"""Desk-scale benchmark for fibershift.

    python3 bench/run.py --workload desk-decompose [--seed 11] [--seconds 40]
                         [--trace 0|1] [--scale desk|tiny]
    python3 bench/run.py --workload all       # the three workloads in turn
    python3 bench/run.py --describe > BENCHMARK.json

One process, one closed-loop client: the workload's fixed operation list
runs in order, again and again while another full pass fits in
``--seconds``. Operations call ``fibershift.cli.main`` in-process (stdout
captured) or public library functions; nothing inside the package is
changed. BLAS threads are pinned to 1 before numpy loads.

Timings are CPU seconds of the measuring process (``time.process_time``,
user + system), not wall seconds. The work is single-threaded and never
waits on anything but the page cache, so on a dedicated core the two agree;
on a shared virtual machine the wall clock also counts time the hypervisor
gives to other guests. On a 2-vCPU guest the same batch of 40 SVDs read
0.85-1.41 s wall and 0.85-0.96 s CPU across 12 repeats, the gap tracking
the steal counter in /proc/stat. The wall-clock ``run_wall_s`` and the
machine-wide steal during the run are printed alongside. Consequence: a
change that adds threads cannot show a gain here.

``setup_s`` is the import of numpy and fibershift plus loading the inputs,
timed in ``SETUP_PROBES`` fresh processes taken between operations across
the run; the fastest probe is reported (see ``SetupProbes`` and
``setup_statistic``).

Seeds: inputs are drawn from ``--seed`` (default 11). Seed 29 is held out:
tune nothing on it, and confirm a claimed gain on it.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the traced
passes (median over passes) and ``trace.overhead_s``, the traced minus the
untraced ``run_s``; memory peaks come from one extra traced pass at the
start (see ``spans.PEAK_LAYERS``). Every output is checked outside the timed region; an
operation that exits non-zero, raises, or fails a check counts in
``failed``. The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. The lines before it list
every metric by name with its unit, the per-step sums, run facts (machine,
numpy/BLAS config, thread setting, seed, report sha256s) and where the
full result and the spans were written (``.bench_work/results/``).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".bench_work")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEFAULT_SEED = 11
HELDOUT_SEED = 29
RUN_SECONDS = 40
SETUP_PROBES = 24

WORKLOAD_WHY = {
    "desk-decompose": (
        "CLI decompose --out then verify at (64,64,k=2..4), plus library "
        "decompose of a remix and connecting_isometry: builds, persists and "
        "re-verifies the dense field F"),
    "desk-analyze": (
        "CLI analyze and spectrum at (64,64,k=2..4) with up to k seeds, plus "
        "is_full_hardy on bases and shifted chains: range SVDs, invariance, "
        "wandering; no field F"),
    "scalar-beurling": (
        "k = 1: CLI beurling at (64,64,1), inner_from_invariant on Blaschke "
        "seeds, inner_quotient of a remix: small per-fiber SVDs, call "
        "overhead dominates"),
}

# name -> (unit, bound); bound is the share by which the median may worsen
END_TO_END = {
    "setup_s": ("s", 0.25),
    "run_s": ("s", 0.25),
    "problem_s.p50": ("s", 0.25),
    "peak_rss_mb": ("MB", 0.1),
}

_UNITS = {"s": "s", "self_s": "s", "calls": "count", "peak_mb": "MB"}
# per-layer metrics listed in BENCHMARK.json; layers a workload does not
# reach read 0 there, so only counts, bytes and ratios are listed for those
PER_LAYER = [
    "fileio.load_problem.s", "fields.eval_field.s", "shifts.shat_closure.s",
    "shifts.closure_generators", "fileio.render.s",
    "ranges.range_from_generators.s", "ranges.range_from_generators.peak_mb",
    "shifts.is_S_invariant.s", "shifts.is_S_invariant.calls",
    "wandering.wandering_range.s", "wandering.wandering_range.calls",
    "subspaces.orthonormal_frame.s", "subspaces.orthonormal_frame.calls",
    "subspaces.op_norm.s", "subspaces.op_norm.calls",
    "subspaces.svd.s", "subspaces.svd.calls", "subspaces.svd.retries",
    "subspaces.svd.values_only_ratio", "subspaces.eigh.calls",
    "parallel.fiber_map.calls",
    "factorization.decompose_range.calls", "factorization.field_bytes",
    "factorization.verify_decomposition.calls",
    "factorization.verify_decomposition.peak_mb",
    "factorization.connecting_isometry.calls",
    "fileio.save_decomposition.calls", "fileio.load_decomposition.calls",
    "fileio.load_decomposition.peak_mb", "fileio.fshd_bytes",
    "ranges.complement_range.calls", "wandering.frame_fields.calls",
    "full_hardy.is_full_hardy.calls",
    "beurling.phi_representation.calls", "beurling.range_of_phi.calls",
    "beurling.inner_from_invariant.calls", "beurling.inner_quotient.calls",
    "trace.overhead_s",
]
# printed with the traced run but not listed in BENCHMARK.json: times of
# layers that some workloads never reach
PRINTED_LAYERS = [
    "factorization.decompose_range.self_s", "factorization.decompose_range.s",
    "factorization.verify_decomposition.s",
    "factorization.connecting_isometry.s", "fileio.save_decomposition.s",
    "fileio.load_decomposition.s", "ranges.complement_range.s",
    "wandering.frame_fields.s", "full_hardy.is_full_hardy.s",
    "beurling.phi_representation.s", "beurling.range_of_phi.s",
    "beurling.inner_from_invariant.s", "beurling.inner_quotient.s",
    "trace.self_sum_s",
]


def layer_unit(name: str) -> str:
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "shifts.closure_generators" or name.endswith(".retries"):
        return "count"
    if name.startswith("trace."):
        return "s"
    return _UNITS[name.rsplit(".", 1)[1]]


def describe() -> dict:
    """The BENCHMARK.json contract, generated from the lists above."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOAD_WHY.items()],
        "end_to_end": [{"name": name, "unit": unit, "better": "lower",
                        "bound": bound}
                       for name, (unit, bound) in END_TO_END.items()],
        "per_layer": [{"name": name, "unit": layer_unit(name), "better": "lower"}
                      for name in PER_LAYER],
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=tuple(WORKLOAD_WHY) + ("all",),
                   help="one workload, or all three in turn")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"input seed (default {DEFAULT_SEED}; "
                        f"{HELDOUT_SEED} is held out for claims)")
    p.add_argument("--seconds", type=float, default=RUN_SECONDS,
                   help="measuring time; passes repeat while one more fits")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("desk", "tiny"), default="desk",
                   help="tiny (8x8 grid) is for the benchmark's own tests")
    p.add_argument("--describe", action="store_true",
                   help="print the BENCHMARK.json contract and exit")
    args = p.parse_args(argv)
    if not args.describe and args.workload is None:
        p.error("--workload is required")
    return args


def add_paths() -> None:
    """Put the checkout's package and test helpers ahead of anything else."""
    for sub in ("tests", "src"):
        path = os.path.join(ROOT, sub)
        if path not in sys.path:
            sys.path.insert(0, path)


def checkout_problems() -> list[str]:
    need = (os.path.join("src", "fibershift", "cli.py"),
            os.path.join("tests", "helpers.py"))
    return [n for n in need if not os.path.isfile(os.path.join(ROOT, n))]


# -- measuring ------------------------------------------------------------------

class Timing(NamedTuple):
    step: str
    problem: str
    cli: bool
    cpu: float
    wall: float


def run_pass(ops, tracer=None, between=None) -> dict:
    """Run every operation once, timed; then check every output untimed.

    With a tracer, the operations run with it installed and the checks run
    after it is removed, so the oracles' own linear algebra is not traced.
    ``between`` is called after each operation, outside its timing.
    """
    gc.collect()
    times, outs, failures, digests = [], [], [], {}
    with tracer.installed() if tracer else contextlib.nullcontext():
        for op in ops:
            ctx = tracer.root(op.root, op.problem) if tracer else contextlib.nullcontext()
            t0, w0 = time.process_time(), time.perf_counter()
            try:
                with ctx:
                    outs.append((op.run(), None))
            except Exception as exc:    # a raising operation is a failed one
                outs.append((None, f"{type(exc).__name__}: {exc}"))
            times.append(Timing(op.step, op.problem, op.root.startswith("cli."),
                                time.process_time() - t0, time.perf_counter() - w0))
            if between is not None:
                between()
    for op, timing, (out, raised) in zip(ops, times, outs):
        if raised is None:
            try:
                errs = op.check(out)
            except Exception as exc:  # an output the check cannot read
                errs = [f"check raised {type(exc).__name__}: {exc}"]
            if timing.cli:
                digests[f"{op.problem}/{op.step}"] = hashlib.sha256(
                    out[1].encode()).hexdigest()
        else:
            errs = [raised]
        if errs:
            failures.append({"op": f"{op.problem}/{op.step}", "errors": errs})
    return {"times": times, "failures": failures, "digests": digests,
            "run_s": sum(t.cpu for t in times),
            "run_wall_s": sum(t.wall for t in times)}


class SetupProbes:
    """Set-up samples spread over the run, one fresh process per sample.

    Each probe (``probe.py``) imports numpy and fibershift and loads the
    inputs, as a CLI user does before the first fiber. Probes are taken
    between operations, about ``interval`` seconds apart, so they sample the
    machine across the whole run rather than during one burst of a few
    seconds; ``finish`` takes any still missing.
    """

    def __init__(self, workdir: str, count: int, interval: float):
        self.workdir, self.count, self.interval = workdir, count, interval
        self.samples: list[float] = []
        self.wall = 0.0                     # seconds spent probing
        self._last = float("-inf")

    def probe(self) -> None:
        w0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "probe.py"), self.workdir],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        self.samples.append(float(proc.stdout.strip().splitlines()[-1]))
        self._last = time.perf_counter()
        self.wall += self._last - w0

    def maybe(self) -> None:
        if (len(self.samples) < self.count
                and time.perf_counter() - self._last >= self.interval):
            self.probe()

    def finish(self) -> None:
        while len(self.samples) < self.count:
            self.probe()


def measure(ops, seconds: float, probes: SetupProbes,
            tracer=None) -> tuple[list, list, list]:
    """Passes until another would overrun ``seconds`` of wall time.

    With a tracer, a first traced pass records the memory peaks of
    ``PEAK_LAYERS`` (see there), then each round is an untraced pass and a
    traced one. Set-up probes run between the untraced operations; their
    time does not count against ``seconds``. Returns the untraced passes,
    the traced passes and the per-layer numbers of each traced pass, the
    memory pass first.
    """
    from spans import PEAK_LAYERS, layer_metrics

    plain, traced, layers = [], [], []

    def traced_pass():
        mark = len(tracer.spans)
        tracer.counters = {}
        traced.append(run_pass(ops, tracer))
        layers.append(layer_metrics(tracer.spans[mark:], tracer.counters))

    t_start = time.perf_counter()
    if tracer is not None:
        tracer.peak_layers = frozenset(PEAK_LAYERS)
        traced_pass()
        tracer.peak_layers = frozenset()
    longest = 0.0
    while True:
        t_round, p_round = time.perf_counter(), probes.wall
        plain.append(run_pass(ops, between=probes.maybe))
        if tracer is not None:
            traced_pass()
        longest = max(longest, time.perf_counter() - t_round
                      - (probes.wall - p_round))
        if time.perf_counter() - t_start - probes.wall + longest > seconds:
            probes.finish()
            return plain, traced, layers


def setup_statistic(samples: list[float]) -> float:
    """Fastest of the set-up probes.

    One probe takes about 0.1 s. On a shared host a whole probe process runs
    either at full speed or about 1.5x slower, so the probe times fall into
    two clusters whose mix follows the neighbours' load; the median and the
    quartiles move with that mix by up to half. Interference only adds time,
    so the fastest probe stays near the cost of the set-up work itself,
    while added set-up work still moves every probe.
    """
    return min(samples)


def step_sums(passes: list[dict]) -> dict[str, float]:
    """Median over passes of each step's summed time."""
    steps = sorted({t.step for p in passes for t in p["times"]})
    return {f"{step}_s": statistics.median(
        sum(t.cpu for t in p["times"] if t.step == step) for p in passes)
        for step in steps}


def problem_samples(passes: list[dict]) -> list[float]:
    """Time per problem file and pass: the sum of its CLI commands.

    This is what a CLI user pays per problem. Library steps (remix
    factorizations, full Hardy recognition, Blaschke seeds, quotients)
    count in run_s and in their step sums only.
    """
    out = []
    for p in passes:
        per: dict[str, float] = {}
        for t in p["times"]:
            if t.cli:
                per[t.problem] = per.get(t.problem, 0.0) + t.cpu
        out.extend(per.values())
    return out


def steal_seconds() -> float | None:
    """Machine-wide CPU time the hypervisor took away, from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def run_facts(np, seed: int) -> dict:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:                       # numpy < 1.26 only prints
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            np.show_config()
        config = buf.getvalue()
    if isinstance(config, dict):
        config = config.get("Build Dependencies", config)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_config": config,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "seed": seed,
    }


def fmt(value: float) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.describe:
        print(json.dumps(describe(), indent=2))
        return 0
    if args.workload == "all":
        codes = []
        for name in WORKLOAD_WHY:
            print(f"## {name}", flush=True)
            argv_one = ["--workload", name, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", str(args.trace),
                        "--scale", args.scale]
            codes.append(subprocess.run([sys.executable, __file__, *argv_one]).returncode)
        return max(codes)
    for var in BLAS_VARS:                   # before numpy is imported
        os.environ[var] = "1"
    missing = checkout_problems()
    if missing:
        print(f"not a fibershift checkout: missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    add_paths()
    import numpy as np
    import spans
    import workloads

    workdir = os.path.join(WORK, f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    resdir = os.path.join(WORK, "results")
    os.makedirs(resdir, exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    try:
        man = workloads.generate(args.workload, args.seed, args.scale, workdir)
        ops = workloads.build_ops(man, workloads.load_inputs(man, workdir), workdir)
        probes = SetupProbes(workdir, SETUP_PROBES, args.seconds / SETUP_PROBES)
        steal0 = steal_seconds()
        plain, traced, layers = measure(ops, args.seconds, probes, tracer)
        setup = probes.samples
        steal1 = steal_seconds()
        fshd_bytes = sum(os.path.getsize(os.path.join(d, f))
                         for d, _, files in os.walk(workdir) for f in files
                         if f.endswith(".fshd"))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runs = plain + traced
    attempted = len(ops) * len(runs)
    failures = [f for p in runs for f in p["failures"]]
    samples = problem_samples(plain)
    metrics = {
        "setup_s": setup_statistic(setup),
        "run_s": statistics.median(p["run_s"] for p in plain),
        "problem_s.p50": statistics.median(samples),
        "peak_rss_mb": peak_rss_mb,
    }
    units = {n: u for n, (u, _) in END_TO_END.items()}
    metrics.update(step_sums(plain))
    for q in (90, 99):
        if len(samples) * (100 - q) / 100 >= 10:
            metrics[f"problem_s.p{q}"] = statistics.quantiles(samples, n=100)[q - 1]
    metrics["run_wall_s"] = statistics.median(p["run_wall_s"] for p in plain)
    units.update({n: "s" for n in metrics if n not in units})
    metrics["fshd_mb"] = fshd_bytes / 1e6
    metrics["failed_frac"] = len(failures) / attempted
    units.update(fshd_mb="MB", failed_frac="ratio")

    layer = {}
    if args.trace:
        memory, timed = layers[0], layers[1:]
        names = sorted({n for lm in timed for n in lm})
        layer = {n: statistics.median_low(lm.get(n, 0) for lm in timed)
                 for n in names}
        layer.update((n, v) for n, v in memory.items() if n.endswith(".peak_mb"))
        traced_run_s = statistics.median(p["run_s"] for p in traced[1:])
        layer["trace.overhead_s"] = traced_run_s - metrics["run_s"]
        for n in PER_LAYER + PRINTED_LAYERS:
            metrics[n] = layer.get(n, 0)
            units[n] = layer_unit(n)
    reported = PER_LAYER if args.trace else list(END_TO_END)

    facts = run_facts(np, args.seed)
    facts.update(steal_s=None if steal0 is None or steal1 is None else steal1 - steal0,
                 passes=len(plain), traced_passes=len(traced),
                 problem_samples=len(samples), setup_samples=setup,
                 run_s_samples=[p["run_s"] for p in plain],
                 report_sha256=plain[0]["digests"],
                 report_drift=sorted({k for p in runs
                                      for k, v in p["digests"].items()
                                      if plain[0]["digests"].get(k) != v}))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = os.path.join(resdir, tag + ".json")
    with open(result_path, "w") as fh:
        json.dump({"workload": args.workload, "scale": args.scale,
                   "metrics": metrics, "units": units, "layers": layer,
                   "facts": facts, "failures": failures,
                   "attempted": attempted}, fh, indent=1, default=str)
    if tracer is not None:
        tracer.write_jsonl(os.path.join(resdir, tag + ".spans.jsonl"))

    for name, value in metrics.items():
        print(f"{name} {fmt(value)} {units[name]}")
    print(f"# samples: problem_s {len(samples)}, run_s and step sums "
          f"{len(plain)} passes, setup_s {len(setup)} probes, layers "
          f"{len(traced) - 1 if traced else 0} traced passes after the "
          f"memory pass")
    for f in failures:
        print(f"# FAILED {f['op']}: {'; '.join(f['errors'])}")
    print("# facts: " + json.dumps({k: v for k, v in facts.items() if k not in (
        "blas_config", "setup_samples", "run_s_samples", "report_sha256")}))
    print(f"# result: {os.path.relpath(result_path, ROOT)}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
