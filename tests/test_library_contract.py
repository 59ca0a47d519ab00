"""The part of the library the benchmark reads, pinned.

``bench/workloads.py`` and ``bench/spans.py`` drive fibershift from outside.
They read a persisted decomposition back through ``load_decomposition``,
which must return ``(res, jm)`` with J's frames; they find the ``.fshd``
path as the third positional argument of ``save_decomposition``; they run
``decompose`` on ``shat_closure`` of the generators; and they parse every
``DIAGNOSTIC_KEYS`` line of decompose, verify and beurling reports, and
``phi_range_distance`` in beurling's. They import seven builders from
``tests/helpers.py`` and every name they read off the package. A change
that breaks one of these fails every benchmark pass.
"""

import ast
import inspect
from pathlib import Path

import numpy as np

import fibershift as fs
from fibershift.fileio import load_problem, problem_fields
from fibershift.shifts import shifted_copies

import helpers
from helpers import brute_projector, laurent_seeds, run_cli, write_problem

# the builders bench/workloads.py imports from helpers, with their parameters
BENCH_HELPERS = {
    "blaschke_coeffs": ["a", "n_z"],
    "brute_projector": ["cols", "rcond"],
    "haar_frame": ["rng", "dim", "r"],
    "haar_unitary": ["rng", "n"],
    "laurent_seeds": ["rng", "lat", "r", "vanish"],
    "run_cli": ["argv"],
    "write_problem": ["path", "lat", "polys"],
}


def test_exports_resolve_once():
    """Every name in ``__all__`` is bound on the package and listed once, and
    a star import runs, so a deleted function leaves no stale export."""
    names = fs.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(fs, n)] == []
    scope: dict = {}
    exec("from fibershift import *", scope)
    assert set(names) <= set(scope)


def test_bench_helpers_are_pinned():
    """The seven helpers the benchmark imports exist with their parameters,
    and the desk recipe draws the same seeds: the benchmark's problems are
    built from them."""
    source = (Path(__file__).parents[1] / "bench" / "workloads.py").read_text()
    imported = {alias.name for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom) and node.module == "helpers"
                for alias in node.names}
    assert imported == set(BENCH_HELPERS)
    for name, params in BENCH_HELPERS.items():
        assert list(inspect.signature(getattr(helpers, name)).parameters) == params
    (poly,) = laurent_seeds(np.random.default_rng(7), fs.TruncationLattice(4, 8, 2), 1)
    expected = [(1, 0, 1, -0.159789806726 - 0.029293013951j),
                (1, 0, 2, 0.003746186865 + 0.100207920579j),
                (1, 1, 1, 0.002302286433 - 0.850936490016j),
                (1, 1, 2, -0.513061124731 + 0.112561413137j)]
    assert [t[:3] for t in poly.terms] == [t[:3] for t in expected]
    assert np.allclose([t[3] for t in poly.terms], [t[3] for t in expected],
                       rtol=0, atol=1e-11)


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
