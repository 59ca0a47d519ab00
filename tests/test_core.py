"""Lattice, field containers, and the frame calculus."""

import numpy as np
import pytest

import fibershift.subspaces as sub
from fibershift import (FiberedField, LaurentPolyField, ToleranceAmbiguity,
                        TruncationLattice, eval_field, orthonormal_frame,
                        subspace_distance)
from fibershift.errors import CoordinateOverflow, DegreeOverflow
from fibershift.fields import field_from_function, z_degree
from fibershift.subspaces import (band_projector_distance, canonical_columns,
                                  complement_frame, op_norm, project_onto,
                                  residual_norms, robust_svd)

from helpers import haar_frame


def test_lattice_validation():
    with pytest.raises(ValueError):
        TruncationLattice(0, 4, 1)
    with pytest.raises(ValueError):
        TruncationLattice(4, 4, 1, rank_tol=0.0)
    with pytest.raises(ValueError):
        TruncationLattice(4, 4, 1, orth_tol=2.0)
    lat = TruncationLattice(8, 4, 3)
    assert lat.ambient == 12
    assert lat.rank_tol == 1e-9 and lat.orth_tol == 1e-8


def test_lattice_grid_points():
    lat = TruncationLattice(8, 4, 1)
    lam = lat.lambdas()
    assert np.allclose(np.abs(lam), 1.0)
    assert np.allclose(lam ** 8, 1.0)
    # canonical powers wrap, so they are bitwise stable across exponents
    assert np.array_equal(lat.lambda_power(3), lat.lambda_power(3 + 8))
    assert np.array_equal(lat.lambda_power(-1), lat.lambda_power(7))


def test_field_container():
    lat = TruncationLattice(4, 3, 2)
    with pytest.raises(ValueError):
        FiberedField(lat, np.zeros((4, 3, 1)))
    data = np.zeros((4, 3, 2), dtype=complex)
    data[:, 1, 0] = 1.0
    f = FiberedField(lat, data)
    assert f.fiber(2).shape == (3, 2)
    assert f.flat().shape == (4, 6)
    assert f.norm() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        f.data[0, 0, 0] = 5.0


def test_field_arithmetic():
    lat = TruncationLattice(4, 3, 1)
    rng = np.random.default_rng(0)
    a = FiberedField(lat, rng.standard_normal((4, 3, 1)) + 0j)
    b = FiberedField(lat, rng.standard_normal((4, 3, 1)) + 0j)
    assert np.allclose((a + b).data, a.data + b.data)
    assert np.allclose((a - b).data, a.data - b.data)
    assert np.allclose(a.scaled(2j).data, 2j * a.data)


def test_z_degree():
    v = np.zeros((5, 2))
    assert z_degree(v) == -1
    v[3, 1] = 1e-13
    assert z_degree(v, tol=1e-12) == -1
    v[2, 0] = 1.0
    assert z_degree(v, tol=1e-12) == 2
    assert z_degree(v.ravel().astype(complex).reshape(5, 2)) == 3


def test_eval_field_exact_monomial():
    lat = TruncationLattice(8, 4, 2)
    poly = LaurentPolyField([(3, 1, 2, 2.0 + 1.0j)])
    f = eval_field(poly, lat)
    lam = lat.lambdas()
    assert np.allclose(f.data[:, 1, 1], (2.0 + 1.0j) * lam ** 3)
    assert np.count_nonzero(f.data) == 8
    # bitwise reproducible
    assert np.array_equal(f.data, eval_field(poly, lat).data)


def test_eval_field_bounds():
    lat = TruncationLattice(8, 4, 2)
    with pytest.raises(DegreeOverflow):
        eval_field(LaurentPolyField([(0, 4, 1, 1.0)]), lat)
    with pytest.raises(CoordinateOverflow):
        eval_field(LaurentPolyField([(0, 0, 3, 1.0)]), lat)


def test_field_from_function():
    lat = TruncationLattice(4, 2, 1)
    f = field_from_function(lat, lambda lam: np.array([[lam], [0.0]]))
    assert np.allclose(f.data[:, 0, 0], lat.lambdas())


def test_orthonormal_frame_rank():
    rng = np.random.default_rng(1)
    q = haar_frame(rng, 6, 3)
    # duplicated and scaled columns must not inflate the rank
    stack = np.hstack([q, 2.0 * q[:, :1], q[:, 1:2] + q[:, 2:3]])
    frame = orthonormal_frame(stack, 1e-9)
    assert frame.shape == (6, 3)
    assert np.allclose(frame.conj().T @ frame, np.eye(3), atol=1e-12)
    assert subspace_distance(frame, q) < 1e-12


def test_orthonormal_frame_empty_and_zero():
    assert orthonormal_frame(np.zeros((5, 0)), 1e-9).shape == (5, 0)
    assert orthonormal_frame(np.zeros((5, 4)), 1e-9).shape == (5, 0)


def test_orthonormal_frame_guard_band():
    """A singular value within a factor 2 of the cutoff is refused."""
    a = np.diag([1.0, 1e-9]).astype(complex)
    with pytest.raises(ToleranceAmbiguity):
        orthonormal_frame(a, 1e-9)
    # well outside the band on either side: fine
    assert orthonormal_frame(np.diag([1.0, 1e-5]), 1e-9).shape[1] == 2
    assert orthonormal_frame(np.diag([1.0, 1e-14]), 1e-9).shape[1] == 1


def test_canonical_columns_deterministic():
    """Same subspace, permuted and rephased input, same frame out."""
    rng = np.random.default_rng(2)
    cols = haar_frame(rng, 8, 4) * np.array([4.0, 3.0, 2.0, 1.0])
    f1 = orthonormal_frame(cols, 1e-9)
    scramble = cols[:, ::-1] * np.exp(1j * rng.random(4))
    f2 = orthonormal_frame(scramble, 1e-9)
    assert np.allclose(f1, f2, atol=1e-12)
    # first nonzero entry of each column is real positive
    for c in range(f1.shape[1]):
        nz = np.flatnonzero(np.abs(f1[:, c]) > 1e-12)
        pivot = f1[nz[0], c]
        assert abs(pivot.imag) < 1e-12 and pivot.real > 0


def test_canonical_columns_tie_order():
    q = np.eye(3, dtype=complex)[:, ::-1]
    out = canonical_columns(q)
    # all singular values tie; order falls back to the coefficient sequence
    assert np.array_equal(out, canonical_columns(np.eye(3, dtype=complex)))


def test_robust_svd_matches_lapack():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5))
    u, s, vh = robust_svd(a)
    u2, s2, vh2 = np.linalg.svd(a, full_matrices=False)
    assert np.allclose(s, s2)
    assert np.allclose((u * s) @ vh, a, atol=1e-12)


def test_robust_svd_fallback_chain(monkeypatch):
    """Forced gesdd failures fall through to still-accurate factors."""
    rng = np.random.default_rng(4)
    a = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    real_svd = np.linalg.svd
    calls = {"n": 0}

    def fail_first(x, **kw):
        calls["n"] += 1
        if calls["n"] == 1:
            raise np.linalg.LinAlgError("SVD did not converge")
        return real_svd(x, **kw)

    monkeypatch.setattr(np.linalg, "svd", fail_first)
    u, s, vh = robust_svd(a)
    assert np.allclose((u * s) @ vh, a, atol=1e-10)

    def fail_always(x, **kw):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail_always)
    u, s, vh = robust_svd(a)
    assert np.allclose((u * s) @ vh, a, atol=1e-8)
    assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-8)


def test_op_norm_values_only_fallback(monkeypatch):
    """A failed values-only SVD falls back to the robust_svd chain."""
    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    top = np.linalg.svd(a, compute_uv=False)[0]
    real_svd = np.linalg.svd
    calls = []

    def fail_values_only(x, **kw):
        calls.append(kw.get("compute_uv", True))
        if not kw.get("compute_uv", True):
            raise np.linalg.LinAlgError("SVD did not converge")
        return real_svd(x, **kw)

    monkeypatch.setattr(np.linalg, "svd", fail_values_only)
    assert op_norm(a) == pytest.approx(top, rel=1e-12)
    assert calls == [False, True]


def test_complement_frame():
    rng = np.random.default_rng(5)
    q = haar_frame(rng, 6, 2)
    c = complement_frame(q)
    assert c.shape == (6, 4)
    assert np.abs(q.conj().T @ c).max() < 1e-12
    assert np.allclose(c.conj().T @ c, np.eye(4), atol=1e-12)
    assert complement_frame(np.zeros((4, 0))).shape == (4, 4)
    assert complement_frame(np.eye(4)).shape == (4, 0)


def test_subspace_distance_known_angle():
    theta = 0.3
    q1 = np.array([[1.0], [0.0], [0.0]]).astype(complex)
    q2 = np.array([[np.cos(theta)], [np.sin(theta)], [0.0]]).astype(complex)
    assert subspace_distance(q1, q2) == pytest.approx(np.sin(theta), abs=1e-12)
    assert subspace_distance(q1, np.eye(3, dtype=complex)[:, :2]) == 1.0
    assert subspace_distance(q1, q1) < 1e-14


def test_band_projector_distance():
    q1 = np.eye(4, dtype=complex)[:, :1]
    # differs from q1 only in the last coordinate
    v = np.array([1.0, 0, 0, 0.2], dtype=complex)
    q2 = (v / np.linalg.norm(v))[:, None]
    assert band_projector_distance(q1, q2, 4) > 1e-2
    assert band_projector_distance(q1, q2, 3) < 0.08
    assert band_projector_distance(q1, q1, 4) == 0.0
    assert band_projector_distance(np.zeros((4, 0)), np.zeros((4, 0)), 2) == 0.0


def test_projection_helpers():
    rng = np.random.default_rng(6)
    q = haar_frame(rng, 5, 2)
    v = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    p = project_onto(q, v)
    assert np.abs(q.conj().T @ (v - p)).max() < 1e-12
    r = residual_norms(q, v)
    assert np.allclose(r, np.linalg.norm(v - p, axis=0))
    assert op_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0)
    assert op_norm(np.zeros((0, 2))) == 0.0


def test_phase_normalize_below_floor():
    # a column with no entry above the floor passes through unchanged
    q = np.full((3, 1), 1e-14, dtype=complex)
    assert np.array_equal(sub._phase_normalize(q), q)
