"""The benchmark's own tests, on the tiny 8x8 lattice.

Every named metric must be emitted, and every output check must be able to
fail: each check is fed a deliberately corrupted output and must report it,
and corrupted program outputs must surface as failed operations.

    python3 -m pytest bench/tests -q
"""

import copy
import json
import os
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run  # noqa: E402

run.add_paths()

import fibershift as fs  # noqa: E402
import helpers  # noqa: E402
import workloads  # noqa: E402


def _bench(*argv):
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *argv],
                          capture_output=True, text=True, timeout=170,
                          cwd=run.ROOT)
    return proc


def test_benchmark_json_matches_describe():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == run.describe()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_emitted(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "0.5",
                  "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    want = run.END_TO_END if trace == 0 else run.PER_LAYER
    assert list(last["metrics"]) == list(want)
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    for name, m in last["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    if trace == 1:
        assert last["metrics"]["ranges.range_from_generators.peak_mb"]["value"] > 0
    if trace == 0:
        assert all(m["value"] > 0 for m in last["metrics"].values())
        printed = {line.split()[0] for line in proc.stdout.splitlines()}
        assert set(run.END_TO_END) <= printed


def test_all_runs_each_workload():
    proc = _bench("--workload", "all", "--seed", "6", "--seconds", "0.2",
                  "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith("{")]
    assert len(results) == len(workloads.WORKLOADS)
    assert all(r["correct"] for r in results)


def test_incomplete_checkout_fails(tmp_path):
    root = tmp_path / "co"
    (root / "bench").mkdir(parents=True)
    for name in ("run.py", "probe.py", "workloads.py", "spans.py"):
        (root / "bench" / name).write_text(
            open(os.path.join(BENCH, name)).read())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "desk-decompose", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=root, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- every check can fail --------------------------------------------------------

def _ops(tmp_path, workload, seed=5):
    workdir = str(tmp_path / workload)
    man = workloads.generate(workload, seed, "tiny", workdir)
    ld = workloads.load_inputs(man, workdir)
    return man, workloads.build_ops(man, ld, workdir)


def _run_all(ops):
    """Run each op once; return outputs by (problem, step), all checks clean."""
    outs = {}
    for op in ops:
        out = op.run()
        assert op.check(out) == [], (op.problem, op.step)
        outs[(op.problem, op.step)] = (op, out)
    return outs


def _replace_line(text, prefix, new):
    return "\n".join(new if line.startswith(prefix) else line
                     for line in text.splitlines()) + "\n"


def test_decompose_checks_fail_on_corruption(tmp_path):
    man, ops = _ops(tmp_path, "desk-decompose")
    outs = _run_all(ops)
    name = man["problems"][0]["name"]
    dec, (code, text) = outs[(name, "decompose")]
    ver, (vcode, vtext) = outs[(name, "verify")]
    con, diag = outs[(name, "connect")]

    assert dec.check((2, text))                      # flipped exit code
    bad = _replace_line(text, "  image_defect", "  image_defect 0.5")
    assert dec.check((0, bad))                       # diagnostic above tol
    fiber = man["problems"][0]["fibers"][0]
    row = f"  fiber {fiber}: rank_jm "
    assert dec.check((0, _replace_line(text, row, row + "99, rank_jr 0")))

    # a perturbed persisted field: verify from disk must notice
    fshd = os.path.join(str(tmp_path / "desk-decompose"), f"{name}.out",
                        "decomposition.fshd")
    res, jm = fs.load_decomposition(fshd)
    noisy = np.array(res.field.ops)
    noisy[fiber] += 1e-3
    res_bad = fs.DecompositionResult(res.base, fs.OperatorField(res.base.lattice, noisy),
                                     res.partition, res.frames, res.diagnostics)
    fs.save_decomposition(res_bad, jm, fshd)
    assert ver.check(ver.run())
    # perturbed target frames: the pinv projector oracle must notice
    frames = list(jm.frames)
    q = frames[fiber]
    if q.shape[1]:
        frames[fiber] = np.roll(q, 1, axis=0)
        q2, _ = np.linalg.qr(frames[fiber])
        frames[fiber] = q2
    jm_bad = fs.RangeFunctionH(jm.lattice, tuple(frames))
    fs.save_decomposition(res, jm_bad, fshd)
    assert dec.check((code, text))

    assert ver.check((vcode, _replace_line(vtext, "  isometry_defect",
                                           "  isometry_defect 5e-9")))
    bad_diag = dict(diag, factorization_defect=1e-3)
    assert con.check(bad_diag)


def test_analyze_checks_fail_on_corruption(tmp_path):
    man, ops = _ops(tmp_path, "desk-analyze")
    outs = _run_all(ops)
    name = man["problems"][0]["name"]
    ana, (code, text) = outs[(name, "analyze")]
    spe, (scode, stext) = outs[(name, "spectrum")]
    fiber = man["problems"][0]["fibers"][0]
    row = f"  fiber {fiber}: rank_jm "
    assert ana.check((3, text))
    assert ana.check((0, _replace_line(text, row, row + "77, rank_jr 0")))
    assert ana.check((0, _replace_line(text, "spectrum:", "spectrum: 0 of 8 fibers")))
    assert spe.check((0, _replace_line(stext, row, row + "77")))

    base_name = man["bases"][0]["name"]
    rec, (ok, base) = outs[(base_name, "recognize")]
    assert rec.check((False, None))
    frames = [np.roll(b, 1, axis=0) if b.shape[1] not in (0, b.shape[0]) else b
              for b in base.frames]
    assert rec.check((True, fs.RangeFunctionK(base.lattice, tuple(frames))))
    chain_name = man["chains"][0]["name"]
    crec, _ = outs[(chain_name, "recognize")]
    assert crec.check((True, base))


def test_scalar_checks_fail_on_corruption(tmp_path):
    man, ops = _ops(tmp_path, "scalar-beurling")
    outs = _run_all(ops)
    name = man["problems"][0]["name"]
    beu, (code, text) = outs[(name, "beurling")]
    assert beu.check((2, text))
    assert beu.check((0, _replace_line(text, "max inner defect", "max inner defect: 0.1")))
    assert beu.check((0, _replace_line(text, "  phi_range_distance",
                                       "  phi_range_distance 1.0")))

    inner, (h, defect) = outs[("blaschke0", "inner")]
    c = np.array(h.coeffs)
    c[3] += 1e-6
    assert inner.check((fs.ScalarH2(c), defect))
    assert inner.check((h, 1e-3))

    qname = [p["name"] for p in man["problems"] if p["name"].startswith("q")][0]
    quo, (psi, phi1, phi2) = outs[(qname, "quotient")]
    lat = psi.lattice
    fibers = []
    for m, f in enumerate(psi.fibers):
        cf = np.array(f.coeffs)
        cf[0] *= np.exp(1e-3j)
        fibers.append(fs.ScalarH2(cf))
    assert quo.check((fs.InnerField(lat, tuple(fibers), psi.support), phi1, phi2))


def test_run_pass_counts_failed_operations(tmp_path, monkeypatch):
    _, ops = _ops(tmp_path, "scalar-beurling")
    clean = run.run_pass(ops)
    assert clean["failures"] == []
    monkeypatch.setattr(helpers, "cli_main", lambda argv: 2)
    flipped = run.run_pass(ops)
    cli_ops = {f"{op.problem}/{op.step}" for op in ops if op.root.startswith("cli.")}
    assert {f["op"] for f in flipped["failures"]} == cli_ops

    def boom():
        raise fs.ToleranceAmbiguity("refused")
    raising = copy.copy(ops[0])
    raising.run = boom
    assert len(run.run_pass([raising])["failures"]) == 1


def test_traced_pass_records_only_program_spans(tmp_path):
    import spans

    _, ops = _ops(tmp_path, "desk-decompose")
    tracer = spans.Tracer()
    assert run.run_pass(ops, tracer)["failures"] == []
    # the checks' oracle SVDs run untraced: the only parentless spans are
    # the operations' roots
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == [op.root for op in ops]
    lm = spans.layer_metrics(tracer.spans, tracer.counters)
    res, _ = fs.load_decomposition(os.path.join(
        str(tmp_path / "desk-decompose"), f"{ops[0].problem}.out",
        "decomposition.fshd"))
    per_call = res.field.ops.nbytes
    assert lm["factorization.field_bytes"] % per_call == 0
    assert lm["factorization.field_bytes"] >= per_call
