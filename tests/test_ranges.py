"""Range functions and the pointwise span calculus."""

import numpy as np
import pytest

from fibershift import (FiberedField, NotOrthogonal, RangeFunctionH,
                        RangeFunctionK, ToleranceAmbiguity, TruncationLattice,
                        range_from_generators, shat_closure)
from fibershift.ranges import (complement_range, direct_sum_ranges,
                               generator_ranks, member, spectrum)

from helpers import brute_projector, frame_projector, grid_seeds


def test_frame_validation():
    lat = TruncationLattice(2, 2, 1)
    with pytest.raises(ValueError):
        RangeFunctionH(lat, (np.eye(2),))  # one frame per grid point
    bad = np.array([[1.0], [1.0]])
    with pytest.raises(ValueError):
        RangeFunctionH(lat, (bad, bad))
    with pytest.raises(ValueError):
        RangeFunctionK(lat, (np.eye(2), np.eye(2)))  # wrong ambient


@pytest.mark.parametrize("scale, ok", [(1 + 5e-6, False), (1 + 4e-11, True),
                                        (np.nan, False)])
def test_frame_validation_tolerance(scale, ok):
    """Every entry of Q* Q - I must stay within 1e-10: a column scaled by
    1 + 5e-6 moves the diagonal by 1e-5, which a relative tolerance of
    1e-5 let through."""
    lat = TruncationLattice(1, 4, 1)
    q = np.eye(4, dtype=complex)
    q[:, 2] *= scale
    if ok:
        RangeFunctionH(lat, (q,))
    else:
        with pytest.raises(ValueError, match="not orthonormal"):
            RangeFunctionH(lat, (q,))


def test_range_ranks():
    lat = TruncationLattice(3, 2, 1)
    frames = (np.eye(2, dtype=complex)[:, :1], np.zeros((2, 0)),
              np.eye(2, dtype=complex))
    rf = RangeFunctionH(lat, frames)
    assert list(rf.ranks()) == [1, 0, 2]
    assert rf.ambient == 2
    assert spectrum(rf) == [0, 2]


def test_range_from_generators_matches_pinv():
    rng = np.random.default_rng(20)
    lat = TruncationLattice(8, 8, 2)
    gens = shat_closure(grid_seeds(rng, lat, 2))
    jm = range_from_generators(gens, lat)
    for m in range(lat.n_lambda):
        cols = np.stack([g.flat()[m] for g in gens], axis=1)
        assert np.abs(frame_projector(jm.frames[m])
                      - brute_projector(cols)).max() < 1e-10


def test_member():
    rng = np.random.default_rng(21)
    lat = TruncationLattice(8, 4, 1)
    gens = shat_closure(grid_seeds(rng, lat, 1))
    jm = range_from_generators(gens, lat)
    ok, res = member(gens[0], jm)
    assert ok and res < 1e-12
    out = FiberedField(lat, np.ones((8, 4, 1), dtype=complex))
    ok, res = member(out, jm)
    assert not ok


def test_member_fails_a_nan_entry():
    """One NaN entry makes the residual NaN and the verdict False; Python's
    max(worst, nan) used to keep worst and read (True, 0.0)."""
    rng = np.random.default_rng(21)
    lat = TruncationLattice(8, 4, 1)
    gens = shat_closure(grid_seeds(rng, lat, 1))
    jm = range_from_generators(gens, lat)
    data = gens[0].data.copy()
    data[5, 2, 0] = np.nan
    ok, res = member(FiberedField(lat, data), jm)
    assert not ok and np.isnan(res)


def test_complement_range():
    rng = np.random.default_rng(22)
    lat = TruncationLattice(4, 8, 1)
    gens = shat_closure(grid_seeds(rng, lat, 1))
    jm = range_from_generators(gens, lat)
    comp = complement_range(jm)
    for m in range(lat.n_lambda):
        p = frame_projector(jm.frames[m]) + frame_projector(comp.frames[m])
        assert np.abs(p - np.eye(lat.ambient)).max() < 1e-12


def test_direct_sum():
    lat = TruncationLattice(2, 3, 1)
    e = np.eye(3, dtype=complex)
    a = RangeFunctionH(lat, (e[:, :1], e[:, :1]))
    b = RangeFunctionH(lat, (e[:, 1:2], e[:, 1:2]))
    ab = direct_sum_ranges([a, b])
    assert list(ab.ranks()) == [2, 2]
    with pytest.raises(NotOrthogonal):
        direct_sum_ranges([a, a])


def test_vanishing_factor_empties_fibers():
    """Generators with a subgroup zero set produce an honest spectrum."""
    rng = np.random.default_rng(23)
    lat = TruncationLattice(8, 4, 1)
    coeffs = np.zeros((8, 4), dtype=complex)
    # canonical powers make the subgroup zeros exact; lam ** 4 would leave
    # 1e-16 residue that the relative rank cutoff keeps
    coeffs[:, 0] = (lat.lambda_power(4) - 1.0) / 2.0
    gens = shat_closure([FiberedField(lat, coeffs[:, :, None])])
    jm = range_from_generators(gens, lat)
    assert spectrum(jm) == [1, 3, 5, 7]


def test_generator_guard_band_names_the_fiber():
    """A generator fiber with a singular value at the rank cutoff is refused,
    by the span and by the rank count alike, and the error names the fiber."""
    lat = TruncationLattice(2, 2, 1)
    a = FiberedField(lat, np.array([[[1.0], [0.0]], [[1.0], [0.0]]]))
    b = FiberedField(lat, np.array([[[0.0], [1.0]], [[0.0], [1e-9]]]))
    for build in (range_from_generators, generator_ranks):
        with pytest.raises(ToleranceAmbiguity) as err:
            build([a, b], lat)
        assert err.value.fiber == 1


def test_no_generators_span_the_zero_subspace():
    """An empty generator list (seeds that vanish on every fiber close to
    none) spans the zero subspace: rank 0 on every fiber, empty spectrum.
    A direct sum of no summands has no lattice and is still refused."""
    lat = TruncationLattice(4, 4, 2)
    jm = range_from_generators([], lat)
    assert jm.ranks().tolist() == [0, 0, 0, 0]
    assert all(q.shape == (8, 0) for q in jm.frames)
    assert generator_ranks([], lat).tolist() == [0, 0, 0, 0]
    assert spectrum(jm) == []
    with pytest.raises(ValueError, match="at least one summand"):
        direct_sum_ranges([])


def test_range_frames_are_frozen():
    lat = TruncationLattice(2, 2, 1)
    rf = RangeFunctionH(lat, (np.eye(2, dtype=complex),) * 2)
    with pytest.raises(ValueError):
        rf.frames[0][0, 0] = 9.0
