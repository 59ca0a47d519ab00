"""The fiber shift and the invariance checks built on it."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibershift import (FiberedField, RangeFunctionH, SymbolField,
                        TruncationLattice, apply_S_hat, is_S_invariant,
                        range_from_generators, shat_closure)
from fibershift.shifts import closure_counts, shift_leak, shifted_copies

from helpers import grid_seeds, haar_frame, shift_matrix


def _rand_field(rng, lat):
    data = rng.standard_normal((lat.n_lambda, lat.n_z, lat.k)) \
        + 1j * rng.standard_normal((lat.n_lambda, lat.n_z, lat.k))
    return FiberedField(lat, data)


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


def _rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@settings(max_examples=200, deadline=None)
@given(n_z=st.integers(1, 6), k=st.integers(1, 3), r=st.integers(0, 3),
       seed=st.integers(0, 2**32 - 1))
def test_shifted_copies_are_shift_powers(n_z, k, r, seed):
    """Column j*r + i is S^j applied to column i, with S the shift matrix,
    for all n_z powers j."""
    lat = TruncationLattice(1, n_z, k)
    cols = _rand_complex(np.random.default_rng(seed), (lat.ambient, r))
    s = shift_matrix(lat)
    expected = np.zeros((lat.ambient, n_z * r), dtype=complex)
    for j in range(n_z):
        expected[:, j * r:(j + 1) * r] = np.linalg.matrix_power(s, j) @ cols
    assert np.array_equal(shifted_copies(cols, n_z, k), expected)


@settings(max_examples=100, deadline=None)
@given(n_z=st.integers(1, 6), k=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_symbol_field_commutes_exactly(n_z, k, seed):
    """F built from a random symbol commutes with the shift with no rounding
    on the band: the dense commutator vanishes exactly there."""
    lat = TruncationLattice(2, n_z, k)
    field = SymbolField(lat, _rand_complex(np.random.default_rng(seed),
                                           (2, lat.ambient, k)))
    s = shift_matrix(lat)
    cut = (n_z - 1) * k
    for m in range(lat.n_lambda):
        f = field.op(m)
        assert not np.any((f @ s - s @ f)[:cut, :cut])


@settings(max_examples=100, deadline=None)
@given(n_z=st.integers(1, 6), k=st.integers(1, 3), r=st.integers(0, 4),
       seed=st.integers(0, 2**32 - 1))
def test_shift_leak_matches_the_shift_matrix(n_z, k, r, seed):
    """The leak is ||S Q - Q Q* S Q||_F with S the dense shift matrix, and
    the compression's adjoint is (Q* S Q)*."""
    lat = TruncationLattice(1, n_z, k)
    q = haar_frame(np.random.default_rng(seed), lat.ambient, min(r, lat.ambient))
    sq = shift_matrix(lat) @ q
    expected = np.linalg.norm(sq - q @ (q.conj().T @ sq))
    leak, c_star = shift_leak(q, n_z, k)
    assert leak == pytest.approx(expected, abs=1e-13)
    assert np.allclose(c_star, (q.conj().T @ sq).conj().T, rtol=0, atol=1e-13)


def test_closure_is_invariant():
    rng = np.random.default_rng(15)
    lat = TruncationLattice(16, 8, 2)
    seeds = grid_seeds(rng, lat, 2)
    gens = shat_closure(seeds)
    assert len(gens) > len(seeds)
    jm = range_from_generators(gens, lat)
    # the whole-frame leak is rounding in the closure's SVD frames: 7.0e-12
    # here. 1e-10 stays below the wandering step's refusal at half the rank
    # cutoff (5e-10, as ||Q* S Q|| = 1 on a closure)
    ok, leak = is_S_invariant(jm)
    assert ok and leak < 1e-10
    # seeds alone are generically not invariant
    ok, leak = is_S_invariant(range_from_generators(seeds, lat))
    assert not ok and leak > 0.1


def test_closure_shares_one_buffer_per_seed():
    """Each seed's shifts are read-only views of one buffer of two seed
    sizes, bit for bit the ``apply_S_hat`` iterates; at (32, 32, 3) the
    closure of 3 seeds peaks below 3 times the seeds' bytes (a dense copy
    per shift peaked at 30 times)."""
    lat = TruncationLattice(32, 32, 3)
    seeds = grid_seeds(np.random.default_rng(26), lat, 3)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        gens = shat_closure(seeds)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 3 * sum(g.data.nbytes for g in seeds)
    i = 0
    for seed in seeds:
        f = seed
        buf = gens[i].data.base
        while np.any(f.data):
            g = gens[i]
            assert g.data.base is buf and np.shares_memory(g.flat(), buf)
            assert not g.data.flags.writeable and not buf.flags.writeable
            assert g.data.tobytes() == f.data.tobytes()
            f, i = apply_S_hat(f), i + 1
        assert buf.shape == (lat.n_lambda, 2 * lat.n_z, lat.k)
    assert i == len(gens) == sum(closure_counts(seeds))


def test_invariance_band_restriction():
    """Content at the top degree cannot register as a leak: P_n S P_n = P_n S,
    so span{z^3} at n_z = 4 is exactly invariant under the truncated shift."""
    lat = TruncationLattice(4, 4, 1)
    frames = tuple(np.eye(4, dtype=complex)[:, 3:] for _ in range(4))
    ok, leak = is_S_invariant(RangeFunctionH(lat, frames))
    assert ok and leak == 0.0
