"""Grid rotation and fiber shift, and the invariance checks built on them."""

import numpy as np
import pytest

from fibershift import (FiberedField, OperatorField, RangeFunctionH,
                        TruncationLattice, apply_S_hat, apply_U, apply_U_star,
                        commutes_with_S, is_S_invariant, range_from_generators,
                        shat_closure, shift_matrix)
from fibershift.fields import z_degree
from fibershift.shifts import (_band_columns, commutation_defect, shift_columns,
                               shift_fiber, shift_star_fiber)
from fibershift.subspaces import DEGREE_TOL

from helpers import grid_seeds


def _rand_field(rng, lat):
    data = rng.standard_normal((lat.n_lambda, lat.n_z, lat.k)) \
        + 1j * rng.standard_normal((lat.n_lambda, lat.n_z, lat.k))
    return FiberedField(lat, data)


def test_rotation_is_unitary():
    rng = np.random.default_rng(10)
    lat = TruncationLattice(8, 4, 2)
    f = _rand_field(rng, lat)
    uf = apply_U(f)
    assert uf.norm() == pytest.approx(f.norm())
    assert np.allclose(apply_U_star(uf).data, f.data)
    lam = lat.lambdas()
    assert np.allclose(uf.data, f.data * lam[:, None, None])


def test_fiber_shift_moves_degrees():
    lat = TruncationLattice(4, 3, 2)
    data = np.zeros((4, 3, 2), dtype=complex)
    data[:, 0, 1] = 1.0
    data[:, 2, 0] = 3.0  # top degree, dropped by the shift
    sf = apply_S_hat(FiberedField(lat, data))
    assert np.allclose(sf.data[:, 1, 1], 1.0)
    assert np.count_nonzero(sf.data) == 4


def test_shift_matrix_consistency():
    rng = np.random.default_rng(11)
    lat = TruncationLattice(4, 5, 2)
    s = shift_matrix(lat)
    f = _rand_field(rng, lat)
    assert np.allclose(apply_S_hat(f).flat(),
                       (s @ f.flat()[..., None])[..., 0])
    # nilpotent of order n_z
    assert np.any(np.linalg.matrix_power(s, lat.n_z - 1) != 0)
    assert not np.any(np.linalg.matrix_power(s, lat.n_z))
    # isometric below the top degree
    low = np.eye(lat.ambient)[:, : (lat.n_z - 1) * lat.k]
    assert np.allclose((s @ low).conj().T @ (s @ low),
                       np.eye((lat.n_z - 1) * lat.k))


def test_fiber_shift_adjoint():
    rng = np.random.default_rng(12)
    v = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    w = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    lhs = np.vdot(w, shift_fiber(v))
    rhs = np.vdot(shift_star_fiber(w), v)
    assert lhs == pytest.approx(rhs)


def test_shift_columns_matches_matrix():
    rng = np.random.default_rng(13)
    lat = TruncationLattice(2, 4, 3)
    cols = rng.standard_normal((lat.ambient, 5)) + 0j
    assert np.allclose(shift_columns(cols, lat.n_z, lat.k),
                       shift_matrix(lat) @ cols)


def test_shifts_commute():
    rng = np.random.default_rng(14)
    lat = TruncationLattice(8, 4, 2)
    f = _rand_field(rng, lat)
    assert np.allclose(apply_U(apply_S_hat(f)).data,
                       apply_S_hat(apply_U(f)).data)


def test_closure_is_invariant():
    rng = np.random.default_rng(15)
    lat = TruncationLattice(16, 8, 2)
    seeds = grid_seeds(rng, lat, 2)
    gens = shat_closure(seeds)
    assert len(gens) > len(seeds)
    jm = range_from_generators(gens, lat)
    ok, leak = is_S_invariant(jm)
    assert ok and leak < 1e-12
    # seeds alone are generically not invariant
    ok, leak = is_S_invariant(range_from_generators(seeds, lat))
    assert not ok and leak > 0.1


def test_invariance_band_restriction():
    """Content at the top degree cannot register as a leak."""
    lat = TruncationLattice(4, 4, 1)
    frames = tuple(np.eye(4, dtype=complex)[:, 3:] for _ in range(4))
    ok, leak = is_S_invariant(RangeFunctionH(lat, frames))
    assert ok and leak == 0.0


def test_band_columns_match_degree_loop():
    """One reduction per frame selects what the per-column degree loop did."""
    rng = np.random.default_rng(17)
    n_z, k = 6, 2
    frame = rng.standard_normal((n_z * k, 12)) + 1j * rng.standard_normal((n_z * k, 12))
    for c in range(12):  # column c reaches degree c % n_z, below-floor noise above it
        d = c % n_z
        frame[(d + 1) * k:, c] = 1e-13 * (c % 3)
    keep = [c for c in range(12)
            if z_degree(frame[:, c].reshape(n_z, k), DEGREE_TOL) <= n_z - 3]
    assert keep == [0, 1, 2, 3, 6, 7, 8, 9]
    assert np.array_equal(_band_columns(frame, n_z, k), frame[:, keep])


def test_commutes_with_S():
    lat = TruncationLattice(4, 4, 2)
    s = shift_matrix(lat)
    ok, defect = commutes_with_S(
        OperatorField(lat, np.broadcast_to(s, (4, 8, 8))))
    assert ok and defect < 1e-14
    rng = np.random.default_rng(16)
    bad = rng.standard_normal((4, 8, 8)) + 1j * rng.standard_normal((4, 8, 8))
    ok, defect = commutes_with_S(OperatorField(lat, bad))
    assert not ok and defect > 0.1
    # the sliced commutator equals the dense one on the band
    dim = 3 * lat.k
    for f in bad:
        dense = (f @ s - s @ f)[:dim, :dim]
        assert commutation_defect(f, lat.n_z, lat.k) == \
            np.linalg.svd(dense, compute_uv=False)[0]
