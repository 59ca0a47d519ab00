"""The part of the library the benchmark reads, pinned.

``bench/workloads.py`` and ``bench/spans.py`` drive fibershift from outside.
They read a persisted decomposition back through ``load_decomposition``,
which must return ``(res, jm)`` with J's frames; they find the ``.fshd``
path as the third positional argument of ``save_decomposition``; they run
``decompose`` on ``shat_closure`` of the generators; and they parse every
``DIAGNOSTIC_KEYS`` line of decompose, verify and beurling reports, and
``phi_range_distance`` in beurling's. They read the scalar layer's
``support`` and ``fibers`` off describing fields and quotients, and
``inner_from_invariant``'s ``(h, defect)``, and build a corrupted quotient
as ``InnerField(lattice, fibers, support)``. They import seven builders from
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
from helpers import (blaschke_coeffs, brute_projector, laurent_seeds, run_cli,
                     write_problem)

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


def test_scalar_surface_the_benchmark_reads():
    """``quotient_ops`` reads ``support``, a frozenset, and
    ``fibers[m].coeffs`` off ``phi_representation`` of two decompositions
    and off their ``inner_quotient``, whose fiber holds the constant at
    degree 0 and zeros above; ``blaschke_ops`` reads
    ``inner_from_invariant([ScalarH2])`` as ``(h, float)`` with ``h.coeffs``.
    The benchmark's own tests rotate the quotient's constants and rebuild it
    positionally from its lattice, fibers and support."""
    lat = fs.TruncationLattice(4, 32, 1)
    seeds = [fs.eval_field(p, lat) for p in laurent_seeds(np.random.default_rng(5), lat, 1)]
    phase = 1.5 * np.exp(1j * np.arange(lat.n_lambda))[:, None, None]
    remix = [fs.FiberedField(lat, phase * g.data) for g in seeds]
    phi1 = fs.phi_representation(fs.decompose(fs.shat_closure(seeds), lat))
    phi2 = fs.phi_representation(fs.decompose(fs.shat_closure(remix), lat))
    psi = fs.inner_quotient(phi1, phi2)
    for field in (phi1, phi2, psi):
        assert type(field.support) is frozenset
        assert len(field.fibers) == lat.n_lambda
    assert phi1.support == phi2.support == psi.support != frozenset()
    for m in sorted(phi1.support):
        c1, c2 = phi1.fibers[m].coeffs, phi2.fibers[m].coeffs
        c = np.vdot(c2, c1)
        q = psi.fibers[m].coeffs
        assert q.shape == (lat.n_z,) and abs(q[0] - c) <= 1e-12 and not np.any(q[1:])
        assert np.abs(c1 - c * c2).max() <= lat.orth_tol
    rotated = tuple(fs.ScalarH2(f.coeffs * np.exp(1e-3j)) for f in psi.fibers)
    noisy = fs.InnerField(psi.lattice, rotated, psi.support)
    assert noisy.support == psi.support
    assert np.allclose(noisy.fibers[min(psi.support)].coeffs[0],
                       psi.fibers[min(psi.support)].coeffs[0] * np.exp(1e-3j))
    h, defect = fs.inner_from_invariant([fs.ScalarH2(blaschke_coeffs(0.3, 32))])
    assert isinstance(h, fs.ScalarH2) and type(defect) is float
    assert h.coeffs.shape == (32,)
