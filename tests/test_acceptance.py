"""Acceptance gates at the desk scale (n_lambda = 64, n_z = 64, k up to 4).

Each test records one PASS/FAIL line with its headline metric and wall time;
the conftest hook prints the lines in an "acceptance gates" section at the
end of every pytest run (they also stream live under -s). Every gate carries
its own time budget: these checks are sized to run on a single laptop core.

The random generator sets reuse the Laurent fixture from helpers; see the
module docstring there for why its singular value ladders stay clear of the
rank cutoff at this scale.
"""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from conftest import ACCEPTANCE_LINES

import numpy as np
import pytest

import fibershift as fs
from fibershift import (DIAGNOSTIC_KEYS, FiberedField, RangeFunctionK,
                        TruncationLattice)
from fibershift.errors import BaseNotConstant, ToleranceAmbiguity
from fibershift.fields import z_degree
from fibershift.shifts import shift_matrix
from fibershift.subspaces import DEGREE_TOL, band_projector_distance, subspace_distance

from helpers import (blaschke_coeffs, brute_projector, frame_projector,
                     grid_seeds, haar_frame, haar_unitary, laurent_seeds,
                     write_problem)

pytestmark = pytest.mark.acceptance

BUDGET = 60.0  # seconds per gate

# generator-set mix for the reconstruction gates: (k, seed count) per run
MIX = ([(1, 1)] * 18 + [(2, 1)] * 14 + [(2, 2)] * 8 + [(3, 1)] * 5
       + [(3, 2)] * 2 + [(4, 1)] * 2 + [(4, 2)] * 1)

# pair mix for the connecting-field gate; weighted toward wandering
# dimension 2 and up, where the two factorizations genuinely differ
PAIRS = [(1, 1), (2, 1), (2, 1), (2, 2), (2, 2), (2, 2), (3, 1), (3, 2),
         (3, 2), (4, 2)]


def _report(name: str, ok: bool, metrics: str, elapsed: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"{verdict} {name}: {metrics} ({elapsed:.1f}s)"
    ACCEPTANCE_LINES.append(line)
    print(line, file=sys.stdout, flush=True)


@pytest.fixture(scope="module")
def desk_runs():
    """Decompose 50 random generator sets once; two gates read the results."""
    rng = np.random.default_rng(20260815)
    runs = []
    t0 = time.time()
    for k, r in MIX:
        lat = TruncationLattice(64, 64, k)
        gens = fs.shat_closure(grid_seeds(rng, lat, r))
        res = fs.decompose(gens, lat)
        runs.append({"k": k, "max_dim": max(res.partition.classes),
                     **res.diagnostics})
    return SimpleNamespace(runs=runs, elapsed=time.time() - t0)


def test_reconstruction_diagnostics(desk_runs):
    worst = max(max(run[key] for key in DIAGNOSTIC_KEYS)
                for run in desk_runs.runs)
    ok = worst <= 1e-7 and desk_runs.elapsed < BUDGET
    _report("reconstruction-diagnostics", ok,
            f"{len(desk_runs.runs)} runs, worst defect {worst:.2e} (tol 1e-07)",
            desk_runs.elapsed)
    assert worst <= 1e-7
    assert desk_runs.elapsed < BUDGET


def test_wandering_rank_bound(desk_runs):
    margins = [run["k"] - run["max_dim"] for run in desk_runs.runs]
    ok = all(m >= 0 for m in margins)
    _report("wandering-rank-bound", ok,
            f"max wandering dimension within k on all {len(desk_runs.runs)} runs",
            0.0)
    assert ok


def test_full_hardy_roundtrip_and_rejection():
    rng = np.random.default_rng(31)
    t0 = time.time()
    worst = 0.0
    for _ in range(20):
        k = int(rng.integers(1, 5))
        lat = TruncationLattice(64, 64, k)
        frames = tuple(haar_frame(rng, k, int(rng.integers(0, k + 1)))
                       for _ in range(lat.n_lambda))
        base = RangeFunctionK(lat, frames)
        ok_one, recovered = fs.is_full_hardy(fs.full_hardy_from_base(base))
        assert ok_one
        for m in range(lat.n_lambda):
            worst = max(worst, subspace_distance(recovered.frames[m],
                                                 base.frames[m]))

    rejected = 0
    for _ in range(20):
        k = int(rng.integers(1, 5))
        lat = TruncationLattice(64, 64, k)
        s = int(rng.integers(1, 3))
        v = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        data = np.zeros((lat.n_lambda, lat.n_z, lat.k), dtype=complex)
        data[:, s, :] = v / np.linalg.norm(v)
        jm = fs.range_from_generators(
            fs.shat_closure([FiberedField(lat, data)]), lat)
        try:
            full, _ = fs.is_full_hardy(jm)
        except BaseNotConstant:
            rejected += 1
            continue
        rejected += 0 if full else 1

    elapsed = time.time() - t0
    ok = worst <= 1e-7 and rejected == 20 and elapsed < BUDGET
    _report("full-hardy-roundtrip", ok,
            f"20 bases recovered to {worst:.2e} (tol 1e-07), "
            f"{rejected}/20 shifted chains rejected", elapsed)
    assert worst <= 1e-7
    assert rejected == 20
    assert elapsed < BUDGET


def test_blockwise_projection_exactness():
    rng = np.random.default_rng(32)
    t0 = time.time()
    worst = 0.0
    for _ in range(5):
        k = int(rng.integers(1, 5))
        lat = TruncationLattice(64, 64, k)
        frames = tuple(haar_frame(rng, k, int(rng.integers(0, k + 1)))
                       for _ in range(lat.n_lambda))
        base = RangeFunctionK(lat, frames)
        dense = [np.kron(np.eye(lat.n_z), b @ b.conj().T) for b in base.frames]
        for _ in range(20):
            f = FiberedField(lat, rng.standard_normal((64, 64, k))
                             + 1j * rng.standard_normal((64, 64, k)))
            mine = fs.project_pointwise(f, base)
            for m in range(lat.n_lambda):
                ref = dense[m] @ f.flat()[m]
                worst = max(worst, float(np.abs(mine.flat()[m] - ref).max()))
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and elapsed < BUDGET
    _report("blockwise-projection", ok,
            f"100 vectors, worst entry error {worst:.2e} (tol 1e-12)", elapsed)
    assert worst <= 1e-12
    assert elapsed < BUDGET


def test_blaschke_inner_oracle():
    n_z = 64
    t0 = time.time()
    worst_coeff = worst_defect = 0.0
    for a in (0.1, 0.3, 0.5, 0.5j, -0.6):
        g = np.zeros(n_z, dtype=complex)
        g[0], g[1] = -a, 1.0
        h, defect = fs.inner_from_invariant([fs.ScalarH2(g)])
        oracle = blaschke_coeffs(a, n_z)
        phase = np.vdot(oracle, h.coeffs)
        phase /= abs(phase)
        worst_coeff = max(worst_coeff,
                          float(np.abs(h.coeffs - phase * oracle).max()))
        worst_defect = max(worst_defect, defect)
    for a in (1.5, 2.0):
        g = np.zeros(n_z, dtype=complex)
        g[0], g[1] = -a, 1.0
        h, defect = fs.inner_from_invariant([fs.ScalarH2(g)])
        one = np.zeros(n_z, dtype=complex)
        one[0] = 1.0
        worst_coeff = max(worst_coeff, float(np.abs(h.coeffs - one).max()))
        worst_defect = max(worst_defect, defect)
    elapsed = time.time() - t0
    ok = worst_coeff <= 1e-8 and worst_defect <= 1e-8 and elapsed < BUDGET
    _report("blaschke-inner-oracle", ok,
            f"7 roots, coeff error {worst_coeff:.2e}, "
            f"defect {worst_defect:.2e} (tol 1e-08)", elapsed)
    assert worst_coeff <= 1e-8
    assert worst_defect <= 1e-8
    assert elapsed < BUDGET


def test_scalar_representation_range():
    rng = np.random.default_rng(61)
    t0 = time.time()
    worst = 0.0
    for _ in range(20):
        lat = TruncationLattice(64, 64, 1)
        seed = grid_seeds(rng, lat, 1)[0]
        deg = max(z_degree(seed.fiber(m), DEGREE_TOL)
                  for m in range(lat.n_lambda))
        jm = fs.range_from_generators(fs.shat_closure([seed]), lat)
        res = fs.decompose_range(jm)
        jphi = fs.range_of_phi(fs.phi_representation(res))
        band = (lat.n_z - deg) * lat.k
        for m in range(lat.n_lambda):
            worst = max(worst, band_projector_distance(
                jm.frames[m], jphi.frames[m], band))
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < BUDGET
    _report("scalar-representation-range", ok,
            f"20 runs, worst band distance {worst:.2e} (tol 1e-06)", elapsed)
    assert worst <= 1e-6
    assert elapsed < BUDGET


def _remix(gens, rng, lat):
    """Span-preserving shuffle: scaled unitary mix plus permutation."""
    n = len(gens)
    u = haar_unitary(rng, n) * (0.5 + 1.5 * rng.random(n))[None, :]
    stack = np.stack([g.data for g in gens])
    mixed = np.einsum("gc,g...->c...", u, stack)
    return [FiberedField(lat, mixed[c]) for c in rng.permutation(n)]


def test_connecting_isometry_pairs():
    rng = np.random.default_rng(71)
    t0 = time.time()
    worst = dict.fromkeys(fs.CONNECTING_KEYS, 0.0)
    for k, r in PAIRS:
        lat = TruncationLattice(64, 64, k)
        gens1 = fs.shat_closure(grid_seeds(rng, lat, r))
        gens2 = _remix(gens1, rng, lat)
        res1 = fs.decompose(gens1, lat)
        res2 = fs.decompose(gens2, lat)
        _, diag = fs.connecting_isometry(res1, res2)
        for key, v in diag.items():
            worst[key] = max(worst[key], v)
    elapsed = time.time() - t0
    top = max(worst.values())
    ok = top <= 1e-7 and elapsed < BUDGET
    _report("connecting-isometry-pairs", ok,
            f"{len(PAIRS)} pairs, worst defect {top:.2e} (tol 1e-07)", elapsed)
    assert top <= 1e-7
    assert elapsed < BUDGET


def test_tiny_lattice_brute_force():
    rng = np.random.default_rng(88)
    lat = TruncationLattice(8, 4, 2)
    smat = shift_matrix(lat)
    t0 = time.time()
    worst = 0.0
    redraws = done = 0

    def instance():
        seeds = []
        for _ in range(int(rng.integers(1, 3))):
            deg = int(rng.integers(0, 3))
            coeffs = np.zeros((8, 4, 2), dtype=complex)
            shape = (8, deg + 1, 2)
            coeffs[:, : deg + 1, :] = (rng.standard_normal(shape)
                                       + 1j * rng.standard_normal(shape))
            if rng.random() < 0.4:
                v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                coeffs = (coeffs.sum(axis=2, keepdims=True)
                          * (v / np.linalg.norm(v))[None, None, :])
            seeds.append(FiberedField(lat, coeffs))
        return seeds

    while done < 100:
        try:
            gens = fs.shat_closure(instance())
            jm = fs.range_from_generators(gens, lat)
            jr = fs.wandering_range(jm)
            comp = fs.complement_range(jm)
        except ToleranceAmbiguity:
            # dense draws carry no structure, so a singular value can land
            # in the guard band; the contract there is refusal, not a guess
            redraws += 1
            continue
        vec = FiberedField(lat, rng.standard_normal((8, 4, 2))
                           + 1j * rng.standard_normal((8, 4, 2)))
        for m in range(lat.n_lambda):
            cols = np.stack([g.flat()[m] for g in gens], axis=1)
            p_brute = brute_projector(cols)
            p_mine = frame_projector(jm.frames[m])
            worst = max(worst, float(np.abs(p_mine - p_brute).max()))
            p_wander = p_brute - brute_projector(smat @ cols)
            worst = max(worst, float(np.abs(frame_projector(jr.frames[m])
                                            - p_wander).max()))
            worst = max(worst, float(np.abs(
                frame_projector(comp.frames[m])
                - (np.eye(lat.ambient) - p_brute)).max()))
            worst = max(worst, float(np.abs(
                p_mine @ vec.flat()[m] - p_brute @ vec.flat()[m]).max()))
        done += 1

    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < BUDGET
    _report("tiny-lattice-brute-force", ok,
            f"100 instances, worst max-norm gap {worst:.2e} (tol 1e-08), "
            f"{redraws} redraws", elapsed)
    assert worst <= 1e-8
    assert elapsed < BUDGET


# decomposes every problem file named on the command line and prints the
# exit codes and reports as JSON; run in a fresh interpreter per setting
_DECOMPOSE_ALL = """
import json, sys
from helpers import run_cli
json.dump([run_cli(["decompose", path]) for path in sys.argv[1:]], sys.stdout)
"""
_ROOT = Path(__file__).resolve().parents[1]
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                     "GOTO_NUM_THREADS")
# report lines whose value may move with the BLAS thread count
_NUMERIC_LINE = re.compile(
    rf"(  (?:{'|'.join(DIAGNOSTIC_KEYS)}) |s-invariant: \w+ \(leak )([^ )]+)(\)?)")


def _decompose_fresh(paths, hash_seed: str, blas_threads: str | None):
    env = {key: val for key, val in os.environ.items()
           if key not in _BLAS_THREAD_VARS}
    if blas_threads is not None:
        env.update(dict.fromkeys(_BLAS_THREAD_VARS, blas_threads))
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(_ROOT / "src"), str(_ROOT / "tests"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _DECOMPOSE_ALL, *map(str, paths)],
                          env=env, capture_output=True, text=True, check=True)
    return [tuple(run) for run in json.loads(proc.stdout)]


def _split_numeric(report: str) -> tuple[list[str], list[float]]:
    """Report lines with diagnostic values and the leak masked, and the values."""
    lines, values = [], []
    for line in report.splitlines():
        match = _NUMERIC_LINE.fullmatch(line)
        if match:
            lines.append(match.group(1) + "#" + match.group(3))
            values.append(float(match.group(2)))
        else:
            lines.append(line)
    return lines, values


def test_reports_reproducible(tmp_path):
    """Fresh processes reproduce reports byte for byte; BLAS threading moves
    only the rounding of the diagnostics, never a line of the verdict.

    Byte identity across BLAS thread counts is not required: threaded BLAS
    sums in another order, and the leak and defects move around 1e-14.
    """
    rng = np.random.default_rng(92)
    subset = [(1, 1), (1, 1), (2, 1), (2, 1), (2, 2), (2, 2), (3, 1), (3, 2),
              (4, 1), (4, 2)]
    t0 = time.time()
    paths = []
    for idx, (k, r) in enumerate(subset):
        lat = TruncationLattice(64, 64, k)
        paths.append(tmp_path / f"p{idx}.txt")
        write_problem(paths[-1], lat, laurent_seeds(rng, lat, r))
    first = _decompose_fresh(paths, "1", "1")
    repeat = _decompose_fresh(paths, "2", "1")
    threaded = _decompose_fresh(paths, "3", None)
    elapsed = time.time() - t0

    reproducible = first == repeat
    same_verdicts = True
    worst = 0.0
    for (code1, rep1), (code_t, rep_t) in zip(first, threaded):
        lines1, values1 = _split_numeric(rep1)
        lines_t, values_t = _split_numeric(rep_t)
        same_verdicts &= code1 == code_t == 0 and lines1 == lines_t
        worst = max([worst, *values1, *values_t])
    tol = TruncationLattice(64, 64, 1).orth_tol
    ok = reproducible and same_verdicts and worst <= tol and elapsed < BUDGET
    _report("reports-reproducible", ok,
            f"{len(subset)} problems x 3 fresh runs, repeat byte-identical "
            f"{reproducible}, BLAS 1 vs default lines match {same_verdicts}, "
            f"worst diagnostic {worst:.2e} (tol {tol:.0e})", elapsed)
    assert reproducible
    assert same_verdicts
    assert worst <= tol
    assert elapsed < BUDGET
