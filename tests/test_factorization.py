"""Decomposition through a full Hardy space and connecting fields."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibershift import (CONNECTING_KEYS, DIAGNOSTIC_KEYS, ImagesDiffer,
                        NotInvariant, NotPartialIsometry, OperatorField,
                        SymbolField, TruncationLattice, commutes_with_S,
                        connecting_isometry, decompose,
                        initial_space_is_full_hardy, range_from_generators,
                        shat_closure, verify_decomposition)
from fibershift.factorization import DecompositionResult
from fibershift.fields import field_from_fibers
from fibershift.shifts import shift_columns

from helpers import frame_projector, grid_seeds, haar_frame, haar_unitary


def _monomial_gens(lat, degree):
    col = np.zeros((lat.n_z, lat.k), dtype=complex)
    col[degree, 0] = 1.0
    return shat_closure([field_from_fibers(lat, [col] * lat.n_lambda)])


def test_monomial_decomposition_exact():
    lat = TruncationLattice(4, 8, 1)
    res = decompose(_monomial_gens(lat, 2), lat)
    assert all(v == 0.0 for v in res.diagnostics.values())
    assert list(res.partition.dimensions()) == [1, 1, 1, 1]
    # first column of F is the frame vector itself: the monomial z^2
    f0 = res.field.op(0)[:, 0]
    expected = np.zeros(lat.ambient, dtype=complex)
    expected[2] = 1.0
    assert np.abs(f0 - expected).max() == 0.0


def test_unclosed_seeds_raise():
    rng = np.random.default_rng(50)
    lat = TruncationLattice(4, 16, 2)
    with pytest.raises(NotInvariant):
        decompose(grid_seeds(rng, lat, 1), lat)


def test_decompose_random_closure():
    # n_z = 32: an inner root rho of a seed symbol leaves a singular value
    # near rho**n_z in the truncated closure, which straddles the rank
    # cutoff for n_z = 16 but falls far below it from 32 up
    rng = np.random.default_rng(51)
    lat = TruncationLattice(6, 32, 2)
    gens = shat_closure(grid_seeds(rng, lat, 2))
    res = decompose(gens, lat)
    assert set(res.diagnostics) == set(DIAGNOSTIC_KEYS)
    assert max(res.diagnostics.values()) < 1e-8
    assert max(res.partition.dimensions()) <= lat.k
    # base spans are nested coordinate spans
    for m in range(lat.n_lambda):
        r = res.base.rank(m)
        assert np.array_equal(res.base.frames[m], np.eye(lat.k)[:, :r])
        # column j*k + i of F is phi_i shifted j times, and zero for i >= r
        expected = np.zeros((lat.ambient, lat.ambient), dtype=complex)
        col = np.stack([phi.flat()[m] for phi in res.frames.phis[:r]], axis=1)
        for j in range(lat.n_z):
            expected[:, j * lat.k: j * lat.k + r] = col
            col = shift_columns(col, lat.n_z, lat.k)
        assert np.array_equal(res.field.op(m), expected)


def test_result_stores_only_the_symbol():
    lat = TruncationLattice(4, 8, 2)
    res = decompose(_monomial_gens(lat, 1), lat)
    arrays = [key for key, v in vars(res.field).items() if isinstance(v, np.ndarray)]
    assert arrays == ["phi"]
    assert res.field.phi.shape == (lat.n_lambda, lat.ambient, lat.k)
    assert list(res.ranks) == [1] * 4
    assert not np.any(res.field.phi[:, :, 1])  # zero past the wandering rank
    assert res.partition.classes == {1: (0, 1, 2, 3)}
    assert np.array_equal(res.frames.phis[0].flat(), res.field.phi[:, :, 0])
    with pytest.raises(ValueError, match="wandering rank"):
        DecompositionResult(res.field, [3] * 4, {})


def test_verify_against_wrong_target():
    lat = TruncationLattice(4, 8, 1)
    res = decompose(_monomial_gens(lat, 1), lat)
    wrong = range_from_generators(_monomial_gens(lat, 2), lat)
    diags = verify_decomposition(res, wrong)
    assert diags["image_defect"] > 0.1


def test_connecting_isometry_remixed_generators():
    rng = np.random.default_rng(52)
    lat = TruncationLattice(6, 32, 2)
    gens = shat_closure(grid_seeds(rng, lat, 2))
    u = haar_unitary(rng, len(gens))
    remixed = [sum((gens[b].scaled(u[b, a]) for b in range(1, len(gens))),
                   gens[0].scaled(u[0, a])) for a in range(len(gens))]
    res1 = decompose(gens, lat)
    res2 = decompose(remixed, lat)
    psi, worst = connecting_isometry(res1, res2)
    assert set(worst) == set(CONNECTING_KEYS)
    assert max(worst.values()) < 1e-8
    assert psi.phi.shape == (6, lat.ambient, lat.k)


@settings(max_examples=100, deadline=None)
@given(n_lambda=st.integers(1, 3), n_z=st.integers(1, 6), k=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_connecting_field_is_the_constant_unitary(n_lambda, n_z, k, seed):
    """Phi2 = Phi1 V with V unitary per fiber: the connecting field's symbol
    is V at degree 0, its fiber operator is I (x) V, and it commutes with the
    shift exactly."""
    rng = np.random.default_rng(seed)
    lat = TruncationLattice(n_lambda, n_z, k)
    ranks = rng.integers(0, k + 1, n_lambda)
    phi1 = np.zeros((n_lambda, lat.ambient, k), dtype=complex)
    phi2 = np.zeros_like(phi1)
    vs = []
    for m, n in enumerate(ranks):
        v = np.zeros((k, k), dtype=complex)
        v[:n, :n] = haar_unitary(rng, n)
        phi1[m, :, :n] = haar_frame(rng, lat.ambient, n)
        phi2[m] = phi1[m] @ v
        vs.append(v)
    res1 = DecompositionResult(SymbolField(lat, phi1), ranks, {})
    res2 = DecompositionResult(SymbolField(lat, phi2), ranks, {})
    psi, worst = connecting_isometry(res1, res2)
    assert max(worst.values()) < 1e-13
    for m, v in enumerate(vs):
        assert np.abs(psi.phi[m][:k] - v).max() < 1e-13
        assert not np.any(psi.phi[m][k:])
        assert np.abs(psi.op(m) - np.kron(np.eye(n_z), v)).max() < 1e-13
    assert commutes_with_S(psi) == (True, 0.0)


def test_connecting_isometry_rejects_factorization_off_the_images():
    """A 1e-6 move of Phi2 orthogonal to Phi1 leaves U = Phi1* Phi2 unitary;
    only the factorization defect ||Phi2 - Phi1 U|| sees it."""
    rng = np.random.default_rng(53)
    lat = TruncationLattice(6, 32, 2)
    res1 = decompose(shat_closure(grid_seeds(rng, lat, 1)), lat)
    m = int(np.flatnonzero(res1.ranks == 1)[-1])
    phi2 = res1.field.phi * np.exp(0.7j)
    # at degree 3, the coordinate direction orthogonal to phi_1's
    block = phi2[m, 3 * lat.k: 4 * lat.k, 0]
    phi2[m, 3 * lat.k: 4 * lat.k, 0] += 1e-6 * np.array([-block[1], block[0]]).conj() \
        / np.linalg.norm(block)
    assert np.abs(res1.field.phi[m][:, 0].conj() @ phi2[m, :, 0]) == pytest.approx(1.0, abs=1e-14)
    res2 = DecompositionResult(SymbolField(lat, phi2), res1.ranks, {})
    with pytest.raises(ImagesDiffer, match="images") as err:
        connecting_isometry(res1, res2)
    assert err.value.fiber == m


def test_connecting_isometry_rejects_partition_mismatch():
    lat = TruncationLattice(4, 8, 2)
    res1 = decompose(_monomial_gens(lat, 1), lat)
    cols = np.zeros((2, lat.n_z, lat.k), dtype=complex)
    cols[0, 0, 0] = 1.0
    cols[1, 0, 1] = 1.0
    full = [field_from_fibers(lat, [c] * 4) for c in cols]
    res2 = decompose(shat_closure(full), lat)
    with pytest.raises(ImagesDiffer, match="partition"):
        connecting_isometry(res1, res2)


def test_connecting_isometry_rejects_different_images():
    lat = TruncationLattice(4, 8, 1)
    res1 = decompose(_monomial_gens(lat, 1), lat)
    res2 = decompose(_monomial_gens(lat, 2), lat)
    with pytest.raises(ImagesDiffer, match="images"):
        connecting_isometry(res1, res2)


def test_initial_space_roundtrip():
    # degree-zero frames keep every column of F exact, so the global
    # partial isometry test applies; degree-positive frames clip at the
    # top of the band and are rejected by design
    rng = np.random.default_rng(54)
    lat = TruncationLattice(6, 16, 2)
    col = np.zeros((lat.n_z, lat.k), dtype=complex)
    col[0] = haar_frame(rng, 2, 1)[:, 0]
    gens = [field_from_fibers(lat, [col] * lat.n_lambda)]
    res = decompose(shat_closure(gens), lat)
    ok, base = initial_space_is_full_hardy(res.field)
    assert ok
    for m in range(lat.n_lambda):
        assert np.abs(frame_projector(base.frames[m])
                      - frame_projector(res.base.frames[m])).max() < 1e-8


def test_initial_space_rejects_clipped_frames():
    rng = np.random.default_rng(56)
    lat = TruncationLattice(6, 16, 2)
    res = decompose(shat_closure(grid_seeds(rng, lat, 1)), lat)
    with pytest.raises(NotPartialIsometry):
        initial_space_is_full_hardy(res.field)


def test_initial_space_rejects_contraction():
    lat = TruncationLattice(4, 8, 1)
    res = decompose(_monomial_gens(lat, 1), lat)
    half = OperatorField(lat, [0.5 * res.field.op(m) for m in range(lat.n_lambda)])
    with pytest.raises(NotPartialIsometry):
        initial_space_is_full_hardy(half)


def test_initial_space_rejects_noncommuting():
    rng = np.random.default_rng(55)
    lat = TruncationLattice(2, 4, 1)
    ops = rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4))
    with pytest.raises(ValueError, match="commute"):
        initial_space_is_full_hardy(OperatorField(lat, ops))
