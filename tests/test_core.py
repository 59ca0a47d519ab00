"""Lattice, field containers, and the frame calculus."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fibershift.subspaces as sub
from fibershift import (FiberedField, LaurentPolyField, RangeFunctionH,
                        ToleranceAmbiguity, TruncationLattice, eval_field,
                        orthonormal_frame, subspace_distance)
from fibershift.errors import CoordinateOverflow, DegreeOverflow
from fibershift.fields import z_degree
from fibershift.subspaces import (_phase_normalize, canonical_columns,
                                  complement_frame, rank_decision, robust_svd)

from helpers import field_from_fibers, haar_frame


def test_lattice_validation():
    with pytest.raises(ValueError):
        TruncationLattice(0, 4, 1)
    with pytest.raises(ValueError, match=r"^rank_tol must lie in \(0, 1\), got 0.0$"):
        TruncationLattice(4, 4, 1, rank_tol=0.0)
    with pytest.raises(ValueError, match=r"^orth_tol must lie in \(0, 1\), got 2.0$"):
        TruncationLattice(4, 4, 1, orth_tol=2.0)
    for tol in (0.0, 1.0, float("nan")):
        with pytest.raises(ValueError, match=rf"^inner_tol must lie in \(0, 1\), got {tol}$"):
            TruncationLattice(4, 4, 1, inner_tol=tol)
    # the first bad field is named
    with pytest.raises(ValueError, match="^orth_tol"):
        TruncationLattice(4, 4, 1, orth_tol=-1.0, inner_tol=2.0)
    lat = TruncationLattice(8, 4, 3)
    assert lat.ambient == 12
    assert (lat.rank_tol, lat.orth_tol, lat.inner_tol) == (1e-9, 1e-8, 1e-6)


def test_lattice_grid_points():
    lat = TruncationLattice(8, 4, 1)
    lam = lat.lambda_power(1)
    assert np.allclose(np.abs(lam), 1.0)
    assert np.allclose(lam ** 8, 1.0)
    # canonical powers wrap, so they are bitwise stable across exponents
    assert np.array_equal(lat.lambda_power(3), lat.lambda_power(3 + 8))
    assert np.array_equal(lat.lambda_power(-1), lat.lambda_power(7))


@pytest.mark.parametrize("p", [2**62 + 1, 99999999999999999999, -(2**64) - 1])
def test_huge_lambda_exponent_reduces_on_the_grid(p):
    """An exponent past int64 evaluates like its residue modulo n_lambda:
    m * p used to wrap (2**62 + 1 read 1 at m = 2) or overflow."""
    lat = TruncationLattice(3, 2, 1)
    assert np.array_equal(lat.lambda_power(p), lat.lambda_power(p % 3))
    field = eval_field(LaurentPolyField([(p, 1, 1, 2.0)]), lat)
    assert np.array_equal(field.data,
                          eval_field(LaurentPolyField([(p % 3, 1, 1, 2.0)]), lat).data)


def test_field_container():
    lat = TruncationLattice(4, 3, 2)
    with pytest.raises(ValueError):
        FiberedField(lat, np.zeros((4, 3, 1)))
    data = np.zeros((4, 3, 2), dtype=complex)
    data[:, 1, 0] = 1.0
    f = FiberedField(lat, data)
    assert f.fiber(2).shape == (3, 2)
    assert f.flat().shape == (4, 6)
    with pytest.raises(ValueError):
        f.data[0, 0, 0] = 5.0


def test_field_copies_a_view():
    # a contiguous slice of a writable array is a view: freezing it in place
    # would leave the field aliased to memory the caller still writes
    lat = TruncationLattice(2, 3, 1)
    block = np.zeros((2, 2, 3, 1), dtype=complex)
    f = FiberedField(lat, block[0])
    block[0] = 1.0
    assert not np.any(f.data)
    assert block.flags.writeable


def test_field_keeps_a_view_of_read_only_memory():
    """A view whose base owns read-only memory is kept as it is, strided or
    not, and ``flat()`` stays a view of it; a read-only view of writable
    memory is still copied, since the base can be written."""
    lat = TruncationLattice(2, 3, 2)
    buf = np.arange(24, dtype=complex).reshape(2, 6, 2).copy()
    buf.setflags(write=False)
    f = FiberedField(lat, buf[:, 2:5])
    assert f.data.base is buf and not f.data.flags.c_contiguous
    assert np.shares_memory(f.flat(), buf)
    assert f.flat().tolist() == buf[:, 2:5].reshape(2, 6).tolist()
    block = np.zeros((2, 6, 2), dtype=complex)
    view = block[:, 2:5]
    view.setflags(write=False)
    g = FiberedField(lat, view)
    block[:] = 1.0
    assert not np.any(g.data) and g.data.flags.owndata


def test_canonical_frames_are_stored_without_copy():
    rng = np.random.default_rng(3)
    q = canonical_columns(np.asfortranarray(haar_frame(rng, 6, 3)))
    assert q.flags.c_contiguous
    rf = RangeFunctionH(TruncationLattice(1, 3, 2), (q,))
    assert rf.frames[0] is q
    assert not q.flags.writeable


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
    lam = lat.lambda_power(1)
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


def test_field_from_fibers_samples_a_function():
    """Sampling a function on the grid is field_from_fibers over the grid
    points lambda_power(1)."""
    lat = TruncationLattice(4, 2, 1)
    f = field_from_fibers(lat, map(lambda lam: np.array([[lam], [0.0]]),
                                   lat.lambda_power(1)))
    assert np.allclose(f.data[:, 0, 0], lat.lambda_power(1))
    assert not np.any(f.data[:, 1])


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


def _convention_order(q, s):
    """Column order of the basis convention, by Python's stable sort:
    decreasing s, then the (re, im) coefficient sequence ascending."""
    sv = np.zeros(q.shape[1]) if s is None else np.asarray(s, dtype=float)

    def key(j):
        col = q[:, j]
        return (-sv[j], tuple(x for c in col for x in (c.real, c.imag)))

    return sorted(range(q.shape[1]), key=key)


_LEXSORT = np.lexsort   # tests below count calls to np.lexsort


def _full_lexsort_order(q, s):
    """The order of one lexsort over all columns, -s most significant, then
    the interleaved (re, im) coefficient rows: what ``canonical_columns``
    computes with a lexsort per run of tied values."""
    sv = np.zeros(q.shape[1]) if s is None else np.asarray(s, dtype=float)
    keys = np.empty((2 * q.shape[0], q.shape[1]))
    keys[0::2] = q.real
    keys[1::2] = q.imag
    return _LEXSORT(np.vstack([keys[::-1], -sv[None, :]]))


def _assert_convention(q, s):
    out = canonical_columns(q, s)
    normalized = _phase_normalize(q)
    assert out.shape == q.shape and out.dtype == complex
    assert out.tobytes() == normalized[:, _convention_order(normalized, s)].tobytes()
    assert out.tobytes() == normalized[:, _full_lexsort_order(normalized, s)].tobytes()


def _shared_prefix(rows: int, cols: int, prefix: int) -> np.ndarray:
    """Columns equal on their first ``prefix`` rows, distinct below."""
    rng = np.random.default_rng(rows * 100 + cols * 10 + prefix)
    q = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q[:prefix] = q[:prefix, :1]
    return q


@pytest.mark.parametrize("q, s", [
    (np.zeros((4, 0), dtype=complex), None),
    (np.zeros((4, 0), dtype=complex), np.zeros(0)),
    (haar_frame(np.random.default_rng(20), 5, 1), None),
    (haar_frame(np.random.default_rng(21), 5, 1), np.array([0.5])),
    (haar_frame(np.random.default_rng(22), 6, 4), np.array([4.0, 3.0, 2.0, 1.0])),
    (haar_frame(np.random.default_rng(23), 6, 4), np.array([1.0, 4.0, 2.0, 3.0])),
    (haar_frame(np.random.default_rng(24), 6, 4), None),
    (haar_frame(np.random.default_rng(25), 6, 4), np.array([2.0, 1.0, 2.0, 1.0])),
    (np.eye(5, dtype=complex)[:, ::-1], None),
    (np.eye(5, dtype=complex)[:, ::-1], np.ones(5)),
    (_shared_prefix(9, 5, 7), None),
    (_shared_prefix(9, 5, 8), np.ones(5)),
    (_shared_prefix(64, 6, 40), None),
    (_shared_prefix(6, 4, 6), None),        # identical columns: index order
    # several tied runs, each broken on its own coefficients
    (haar_frame(np.random.default_rng(27), 7, 7),
     np.array([3.0, 1.0, 3.0, 2.0, 1.0, 2.0, 0.5])),
    (_shared_prefix(9, 6, 5), np.array([1.0, 1.0, 0.5, 0.5, 0.5, 0.25])),
    (_shared_prefix(8, 6, 8), np.array([2.0, 1.0, 2.0, 1.0, 2.0, 1.0])),
])
def test_canonical_columns_convention(q, s):
    _assert_convention(q, s)


@pytest.mark.parametrize("s, ties", [
    (np.array([3.0, 1.0, 4.0, 2.0, 0.5]), False),
    (np.array([5.0, 4.0, 3.0, 2.0, 1.0]), False),
    (np.array([2.0, 1.0, 2.0, 1.0, 0.5]), True),
    (np.array([0.0, -0.0, 1.0, 2.0, 3.0]), True),
    (None, True),
])
def test_canonical_columns_sorts_coefficients_only_on_ties(monkeypatch, s, ties):
    """Distinct singular values fix the order alone, byte for byte the
    order of the full sort; the coefficient sort runs only on ties."""
    q = haar_frame(np.random.default_rng(26), 7, 5)
    calls = []
    real_lexsort = np.lexsort

    def counting_lexsort(keys):
        calls.append(len(keys))
        return real_lexsort(keys)

    monkeypatch.setattr(np, "lexsort", counting_lexsort)
    _assert_convention(q, s)
    assert bool(calls) == ties


@st.composite
def _frames_with_ties(draw):
    """Small matrices over a few values, so that columns share long
    prefixes and singular values repeat exactly."""
    rows = draw(st.integers(1, 12))
    cols = draw(st.integers(0, 7))
    pool = draw(st.lists(st.complex_numbers(max_magnitude=4.0, allow_nan=False,
                                            allow_infinity=False),
                         min_size=1, max_size=4))
    flat = draw(st.lists(st.sampled_from(pool), min_size=rows * cols,
                         max_size=rows * cols))
    q = np.array(flat, dtype=complex).reshape(rows, cols)
    s = draw(st.none() | st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                                  min_size=cols, max_size=cols))
    return q, None if s is None else np.array(s)


@settings(max_examples=300, deadline=None)
@given(_frames_with_ties())
def test_canonical_columns_convention_random(case):
    _assert_convention(*case)


def test_rank_decision():
    assert rank_decision(np.zeros(0), 1e-9) == 0
    assert rank_decision(np.zeros(3), 1e-9) == 0
    assert rank_decision(np.array([2.0, 1.0, 1e-5, 1e-14]), 1e-9) == 3
    with pytest.raises(ToleranceAmbiguity) as exc:
        rank_decision(np.array([1.0, 1.2e-9]), 1e-9, fiber=4)
    assert exc.value.fiber == 4


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rank_decision_refuses_non_finite(bad):
    """A NaN used to read as rank 0 and an inf as a guard-band refusal
    around the cutoff inf."""
    with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
        rank_decision(np.array([bad, 1.0]), 1e-9)


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


@pytest.mark.parametrize("shape", [(8, 8), (9, 6), (6, 9)])
def test_robust_svd_gram_route_resolves_exact_zeros(shape, monkeypatch):
    """On the eigh route an exact null space keeps singular values at the
    rounding level, far below the rank cutoff, and the right vectors span
    it in full."""
    rng = np.random.default_rng(8)
    m, n = shape
    a = haar_frame(rng, m, 3) @ np.diag([3.0, 1.0, 1e-3]) @ haar_frame(rng, n, 3).conj().T
    exact = np.linalg.svd(a, compute_uv=False)

    def fail_always(x, **kw):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail_always)
    u, s, vh = robust_svd(a)
    assert rank_decision(s, 1e-9) == 3
    assert np.allclose(s[:3], exact[:3], rtol=1e-9)
    assert s[3:].max() < 1e-12
    assert np.allclose((u * s) @ vh, a, atol=1e-12)
    # the eigenvectors form the small side's factor, null space included
    v = vh.conj().T if m >= n else u
    assert np.allclose(v.conj().T @ v, np.eye(min(m, n)), atol=1e-12)
    b = a if m >= n else a.conj().T
    assert np.abs(b @ v[:, 3:]).max() < 1e-12


def _fail_always(x, **kw):
    raise np.linalg.LinAlgError("SVD did not converge")


@pytest.mark.parametrize("small", [3e-9, 2e-8, 9e-8, 1e-6])
def test_robust_svd_gram_route_refuses_unresolved_values(small, monkeypatch):
    """Below about 1e-7 * s_max the eigh route mixes singular values with
    each other and with zero, so a value of 3e-9 next to a zero can read as
    two values above twice the 1e-9 cutoff. Such spectra raise LinAlgError
    instead of reaching a rank decision. A resolved value of 1e-6 lifts the
    zero next to it to about eps / 1e-6, into the same zone."""
    rng = np.random.default_rng(9)
    a = (haar_frame(rng, 8, 4) @ np.diag([1.0, 0.5, small, 0.0])
         @ haar_frame(rng, 6, 4).conj().T)
    monkeypatch.setattr(np.linalg, "svd", _fail_always)
    with pytest.raises(np.linalg.LinAlgError, match="cannot resolve"):
        robust_svd(a)
    with pytest.raises(np.linalg.LinAlgError):
        orthonormal_frame(a, 1e-9)


def test_robust_svd_gram_route_left_vectors_orthonormal(monkeypatch):
    """Resolved but small singular values: the columns b v_i are orthogonal
    only to about eps * s_max**2 / (s_i s_j), 1e-4 here, so the left vectors
    come from a QR factorization and stay orthonormal."""
    rng = np.random.default_rng(10)
    a = (haar_frame(rng, 9, 3) @ np.diag([1.0, 2e-6, 1e-6])
         @ haar_frame(rng, 3, 3).conj().T)
    monkeypatch.setattr(np.linalg, "svd", _fail_always)
    u, s, vh = robust_svd(a)
    assert rank_decision(s, 1e-9) == 3
    assert np.allclose(u[:, :3].conj().T @ u[:, :3], np.eye(3), atol=1e-13)
    assert np.allclose((u * s) @ vh, a, atol=1e-9)
    q = orthonormal_frame(a, 1e-9)
    p = a @ np.linalg.pinv(a, rcond=1e-9)
    assert np.allclose(q @ q.conj().T, p, atol=1e-8)


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


@pytest.mark.parametrize("a, b", [(0.3, 0.0), (0.2, 0.5), (1e-7, 2e-7)])
def test_subspace_distance_sums_the_angles(a, b):
    """Rank-2 frames tilted by two angles are at distance
    sqrt(sin^2 a + sin^2 b), read the same from either side."""
    q1 = np.eye(4, dtype=complex)[:, :2]
    q2 = np.zeros((4, 2), dtype=complex)
    q2[[0, 2], 0] = np.cos(a), np.sin(a)
    q2[[1, 3], 1] = np.cos(b), 1j * np.sin(b)
    expect = np.hypot(np.sin(a), np.sin(b))
    assert subspace_distance(q1, q2) == pytest.approx(expect, rel=1e-12, abs=1e-15)
    assert subspace_distance(q2, q1) == pytest.approx(expect, rel=1e-12, abs=1e-15)


def test_subspace_distance_subnormal_tilt():
    """A 3e-320 tilt is a finite, negligible distance (the scaled Gram
    route read it as NaN)."""
    q1 = np.eye(2, dtype=complex)[:, :1]
    q2 = np.array([[1.0], [3e-320]], dtype=complex)
    d = subspace_distance(q1, q2)
    assert np.isfinite(d) and d <= 1e-300


def test_subspace_distance_runs_no_decomposition(monkeypatch):
    rng = np.random.default_rng(8)
    q1, q2 = haar_frame(rng, 6, 3), haar_frame(rng, 6, 3)
    expect = subspace_distance(q1, q2)
    for name in ("svd", "eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, _fail_always)
    assert subspace_distance(q1, q2) == expect
    assert subspace_distance(q2, q1) == pytest.approx(expect, rel=1e-12)
    assert subspace_distance(q1[:, :0], q2[:, :0]) == 0.0


def test_phase_normalize_below_floor():
    # a column with no entry above the floor passes through unchanged
    q = np.full((3, 1), 1e-14, dtype=complex)
    assert np.array_equal(sub._phase_normalize(q), q)
