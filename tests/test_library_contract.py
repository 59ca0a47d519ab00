"""The part of the library the benchmark reads, pinned.

``bench/workloads.py`` and ``bench/spans.py`` drive fibershift from outside.
They read a persisted decomposition back through ``load_decomposition``,
which must return ``(res, jm)`` with J's frames; they find the ``.fshd``
path as the third positional argument of ``save_decomposition``; they run
``decompose`` on ``shat_closure`` of the generators; and they parse every
``DIAGNOSTIC_KEYS`` line of decompose, verify and beurling reports, and
``phi_range_distance`` in beurling's. A change that breaks one of these
fails every benchmark pass.
"""

import inspect

import numpy as np

import fibershift as fs
from fibershift.fileio import load_problem, problem_fields
from fibershift.shifts import shifted_copies

from helpers import brute_projector, laurent_seeds, run_cli, write_problem


def _diagnostics(report: str) -> dict[str, float]:
    """The indented ``key value`` lines under ``diagnostics:``."""
    out = {}
    for line in report.split("diagnostics:\n", 1)[1].splitlines():
        if not line.startswith("  "):
            break
        key, val = line.split()
        out[key] = float(val)
    return out


def _problem(tmp_path, k: int) -> str:
    lat = fs.TruncationLattice(8, 16, k)
    path = str(tmp_path / "p.txt")
    write_problem(path, lat, laurent_seeds(np.random.default_rng(7), lat, 1))
    return path


def test_load_decomposition_returns_the_result_and_j(tmp_path):
    """``(res, jm)``: the diagnostics decompose printed, bit for bit, and
    J's frames, which span the closure of the seeds."""
    path = _problem(tmp_path, 2)
    code, out = run_cli(["decompose", path, "--out", str(tmp_path / "o")])
    assert code == 0
    res, jm = fs.load_decomposition(str(tmp_path / "o" / "decomposition.fshd"))
    assert res.diagnostics == _diagnostics(out)
    seeds = problem_fields(load_problem(path))
    for m in range(jm.lattice.n_lambda):
        cols = shifted_copies(
            np.stack([g.flat()[m] for g in seeds], axis=1),
            jm.lattice.n_z, jm.lattice.k, jm.lattice.n_z)
        q = jm.frames[m]
        assert np.abs(q @ q.conj().T - brute_projector(cols, 1e-9)).max() < 1e-6


def test_save_decomposition_takes_the_path_third(tmp_path):
    params = list(inspect.signature(fs.save_decomposition).parameters)
    assert params[:3] == ["res", "jm", "path"]
    lat = fs.TruncationLattice(4, 8, 2)
    seeds = [fs.eval_field(p, lat) for p in laurent_seeds(np.random.default_rng(8), lat, 1)]
    jm = fs.closure_range(seeds, lat)
    res = fs.decompose_range(jm, seeds)
    path = str(tmp_path / "d.fshd")
    fs.save_decomposition(res, jm, path)
    assert fs.load_decomposition(path)[0].diagnostics == res.diagnostics


def test_decompose_runs_on_a_closure():
    """The benchmark's connect and quotient ops decompose truncated shifts;
    held to them, Phi passes as it does held to the seeds."""
    lat = fs.TruncationLattice(4, 16, 2)
    seeds = [fs.eval_field(p, lat) for p in
             laurent_seeds(np.random.default_rng(9), lat, 1)]
    gens = fs.shat_closure(seeds)
    res = fs.decompose(gens, lat)
    assert set(res.diagnostics) == set(fs.DIAGNOSTIC_KEYS)
    assert max(res.diagnostics.values()) <= lat.orth_tol
    assert len(res.seeds) == len(gens)
    assert all(held is g for held, g in zip(res.seeds, gens))
    by_seeds = fs.decompose_range(fs.closure_range(seeds, lat), seeds)
    assert res.ranks.tolist() == by_seeds.ranks.tolist()
    assert max(by_seeds.diagnostics.values()) <= lat.orth_tol


def test_reports_print_every_diagnostic(tmp_path):
    path = _problem(tmp_path, 2)
    for argv in (["decompose", path, "--out", str(tmp_path / "o")],
                 ["verify", str(tmp_path / "o")]):
        code, out = run_cli(argv)
        assert code == 0
        assert set(_diagnostics(out)) == set(fs.DIAGNOSTIC_KEYS)
    code, out = run_cli(["beurling", _problem(tmp_path, 1)])
    assert code == 0
    assert set(_diagnostics(out)) == {*fs.DIAGNOSTIC_KEYS, "phi_range_distance"}
