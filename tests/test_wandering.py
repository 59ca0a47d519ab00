"""Wandering subspaces, dimension partitions, frame fields."""

import numpy as np
import pytest

from fibershift import (DimensionPartition, NotInvariant, RangeFunctionH,
                        RangeFunctionK, RankTooLarge, ToleranceAmbiguity,
                        TruncationLattice, decompose_range, dimension_partition,
                        frame_fields, full_hardy_from_base, is_S_invariant,
                        range_from_generators, reconstruct_from_wandering,
                        shat_closure, wandering_range)
from fibershift.errors import BandExceeded
from fibershift.shifts import shift_columns, shift_matrix
from fibershift.subspaces import complement_frame

from helpers import brute_projector, frame_projector, grid_seeds, haar_frame


def test_wandering_of_full_hardy_is_degree_zero():
    rng = np.random.default_rng(30)
    lat = TruncationLattice(4, 4, 3)
    frames = tuple(haar_frame(rng, 3, r) for r in (0, 1, 2, 3))
    base = RangeFunctionK(lat, frames)
    jr = wandering_range(full_hardy_from_base(base))
    assert list(jr.ranks()) == [0, 1, 2, 3]
    for m in range(1, 4):
        q = jr.frames[m]
        # all mass sits in the degree-zero block
        assert np.abs(q[lat.k:, :]).max() < 1e-12
        assert np.abs(frame_projector(q[: lat.k, :])
                      - frame_projector(base.frames[m])).max() < 1e-12


def test_wandering_matches_projector_difference():
    rng = np.random.default_rng(31)
    lat = TruncationLattice(8, 8, 2)
    gens = shat_closure(grid_seeds(rng, lat, 2))
    jm = range_from_generators(gens, lat)
    jr = wandering_range(jm)
    s = shift_matrix(lat)
    for m in range(lat.n_lambda):
        cols = np.stack([g.flat()[m] for g in gens], axis=1)
        oracle = brute_projector(cols) - brute_projector(s @ cols)
        assert np.abs(frame_projector(jr.frames[m]) - oracle).max() < 1e-9


def _desk_like(k: int, seed: int, n: int = 8):
    rng = np.random.default_rng(seed)
    lat = TruncationLattice(n, n, k)
    return range_from_generators(shat_closure(grid_seeds(rng, lat, k)), lat)


@pytest.mark.parametrize("k, seed", [(2, 34), (3, 35)])
def test_wandering_lies_in_j_orthogonal_to_sj(k, seed):
    jm = _desk_like(k, seed)
    jr = wandering_range(jm)
    lat = jm.lattice
    assert jr.ranks().max() > 0
    for m in range(lat.n_lambda):
        q, w = jm.frames[m], jr.frames[m]
        assert np.linalg.norm(w - q @ (q.conj().T @ w), 2) <= 1e-12
        assert np.linalg.norm(w.conj().T @ shift_columns(q, lat.n_z, lat.k), 2) <= 1e-12


def test_wandering_refuses_leak_at_cutoff_scale():
    """At (16, 16, 2), seed 3, the span leaks 5.0e-10 under the shift, half
    the rank cutoff, and Q* S Q has a singular value at 2.2e-9, just above
    the guard band. Subtracting P_SJ Q in ambient coordinates puts a
    wandering vector 98% outside J here; the decision is refused."""
    jm = _desk_like(2, 3, n=16)
    with pytest.raises(ToleranceAmbiguity, match="shift leaves the subspace"):
        wandering_range(jm)


def _chain_with_slow_direction(eps: float) -> np.ndarray:
    """Frame of an exactly invariant J at n_z = 8, k = 3: all degrees of
    e_3, the top-degree e_1, and x = cos t z^7 e_2 + sin t z^6 e_1 with
    sin t = eps, so S x = eps z^7 e_1 and C = Q* S Q has singular values
    1 (seven times), eps and 0 (three times)."""
    n_z, k = 8, 3
    q = np.zeros((n_z * k, n_z + 2), dtype=complex)
    for j in range(n_z):
        q[j * k + 2, j] = 1.0
    q[7 * k + 0, n_z] = 1.0
    t = np.arcsin(eps)
    q[7 * k + 1, n_z + 1], q[6 * k + 0, n_z + 1] = np.cos(t), np.sin(t)
    return q


def test_wandering_guard_band():
    lat = TruncationLattice(1, 8, 3)
    q = _chain_with_slow_direction(1.2e-9)
    c = q.conj().T @ shift_columns(q, lat.n_z, lat.k)
    s = np.linalg.svd(c, compute_uv=False)
    assert np.allclose(s[:8], [1.0] * 7 + [1.2e-9], rtol=1e-12, atol=0.0)
    assert s[8:].max() == 0.0
    with pytest.raises(ToleranceAmbiguity, match="guard band") as exc:
        wandering_range(RangeFunctionH(lat, (q,)))
    assert exc.value.fiber == 0
    # outside the band on either side the slow direction is decided
    for eps, rank in ((1e-12, 3), (1e-5, 2)):
        jm = RangeFunctionH(lat, (_chain_with_slow_direction(eps),))
        assert wandering_range(jm).ranks().tolist() == [rank]


@pytest.mark.parametrize("k, seed", [(2, 36), (3, 37)])
def test_wandering_svd_failure_falls_back(k, seed, monkeypatch):
    """With every gesdd call failing, robust_svd's eigh route gives the
    same wandering projectors."""
    jm = _desk_like(k, seed)
    jr = wandering_range(jm)

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    again = wandering_range(jm)
    assert np.array_equal(again.ranks(), jr.ranks())
    for m in range(jm.lattice.n_lambda):
        assert np.abs(frame_projector(again.frames[m])
                      - frame_projector(jr.frames[m])).max() < 1e-12


def test_wandering_rejects_leaky_input():
    rng = np.random.default_rng(32)
    lat = TruncationLattice(4, 8, 1)
    seeds = grid_seeds(rng, lat, 1)
    with pytest.raises(NotInvariant):
        wandering_range(range_from_generators(seeds, lat))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_rotation_out_of_j_is_not_invariant(k):
    """Turning one frame column of fiber 0 by 1e-6 towards the complement
    of J leaks about 1e-6 under the shift, whatever the degrees of the
    frame columns (SVD frames of closures spread every column over all
    degrees)."""
    rng = np.random.default_rng(41)
    lat = TruncationLattice(8, 8, k)
    jm = range_from_generators(shat_closure(grid_seeds(rng, lat, k, vanish=False)), lat)
    assert is_S_invariant(jm)[0]
    q = np.array(jm.frames[0])
    t = 1e-6
    q[:, 0] = np.cos(t) * q[:, 0] + np.sin(t) * complement_frame(q)[:, 0]
    bad = RangeFunctionH(lat, (q,) + jm.frames[1:])
    ok, leak = is_S_invariant(bad)
    assert not ok and 5e-7 < leak < 2e-6
    with pytest.raises(NotInvariant):
        wandering_range(bad)
    with pytest.raises(NotInvariant):
        decompose_range(bad)


def test_partition_classes():
    lat = TruncationLattice(4, 2, 2)
    e = np.eye(4, dtype=complex)
    rf = RangeFunctionH(lat, (e[:, :0], e[:, :1], e[:, :1], e[:, :2]))
    part = dimension_partition(rf)
    assert part.classes == {0: (0,), 1: (1, 2), 2: (3,)}
    assert part.dimension_at(2) == 1
    assert list(part.dimensions()) == [0, 1, 1, 2]
    dims = part.dimensions()
    dims[0] = 2  # a copy: the partition is unchanged
    assert part.dimension_at(0) == 0
    with pytest.raises(RankTooLarge):
        dimension_partition(RangeFunctionH(lat, (e[:, :3],) * 4))


def test_partition_validation():
    with pytest.raises(ValueError):
        DimensionPartition({0: (0, 2)})  # gap at index 1
    with pytest.raises(KeyError):
        DimensionPartition({1: (0,)}).dimension_at(5)
    with pytest.raises(KeyError):
        DimensionPartition({1: (0,)}).dimension_at(-1)


def test_frame_fields_support():
    lat = TruncationLattice(4, 2, 2)
    e = np.eye(4, dtype=complex)
    rf = RangeFunctionH(lat, (e[:, :0], e[:, :1], e[:, :1], e[:, :2]))
    ff = frame_fields(rf)
    assert len(ff.phis) == 2
    # field i vanishes below dimension class i+1
    assert not np.any(ff.phis[0].data[0])
    assert np.any(ff.phis[0].data[1])
    assert not np.any(ff.phis[1].data[2])
    assert np.any(ff.phis[1].data[3])


def test_reconstruct_from_wandering():
    rng = np.random.default_rng(33)
    lat = TruncationLattice(4, 6, 2)
    frames = tuple(haar_frame(rng, 2, 1) for _ in range(4))
    base = RangeFunctionK(lat, frames)
    jm = full_hardy_from_base(base)
    jr = wandering_range(jm)
    rebuilt = reconstruct_from_wandering(jr, lat.n_z - 1)
    for m in range(4):
        assert np.abs(frame_projector(rebuilt.frames[m])
                      - frame_projector(jm.frames[m])).max() < 1e-10
    with pytest.raises(BandExceeded):
        reconstruct_from_wandering(jr, lat.n_z)
