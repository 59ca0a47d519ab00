"""Wandering subspaces: invariance, rank bound, and J as the span of the
wandering frame's shifted copies."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fibershift.wandering as wandering
from fibershift import (FibershiftError, NotInvariant, RangeFunctionH,
                        RangeFunctionK, RankTooLarge, ToleranceAmbiguity,
                        TruncationLattice, decompose_range,
                        full_hardy_from_base, is_S_invariant,
                        orthonormal_frame, range_from_generators,
                        shat_closure, wandering_range, wandering_ranks)
from fibershift.errors import DegreeOverflow
from fibershift.ranges import closure_range, complement_range
from fibershift.shifts import shifted_copies
from fibershift.subspaces import complement_frame

from helpers import (brute_projector, frame_projector, grid_seeds, haar_frame,
                     shift_matrix)


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
        assert np.linalg.norm(w.conj().T @ shift_matrix(lat) @ q, 2) <= 1e-12


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
    c = q.conj().T @ shift_matrix(lat) @ q
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
    seeds = grid_seeds(rng, lat, k, vanish=False)
    jm = range_from_generators(shat_closure(seeds), lat)
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
        decompose_range(bad, seeds)


def test_wandering_rank_above_k_names_the_fiber(monkeypatch):
    # the truncated shift has a k-dimensional kernel, so no invariant J has a
    # wandering part above k; a rank decision that keeps no singular value
    # of C* would leave all of J wandering, and must be refused at its fiber
    lat = TruncationLattice(2, 4, 2)
    jm = full_hardy_from_base(RangeFunctionK(lat, (np.eye(2, dtype=complex),) * 2))
    assert list(wandering_range(jm).ranks()) == [2, 2]
    monkeypatch.setattr(wandering, "rank_decision", lambda s, tol, fiber=None, scale=None: 0)
    with pytest.raises(RankTooLarge, match="fiber 0"):
        wandering_range(jm)


def test_wandering_range_fills_the_shift_leaks_memo():
    """The leaks that ``wandering_range`` measured from its C* are, bit for
    bit, the ``shift_leaks`` a fresh range function computes itself."""
    lat = TruncationLattice(4, 8, 2)
    jm = closure_range(grid_seeds(np.random.default_rng(41), lat, 2), lat)
    assert "shift_leaks" not in jm.__dict__
    wandering_range(jm)
    filled = jm.__dict__["shift_leaks"]
    fresh = RangeFunctionH(jm.lattice, jm.frames).shift_leaks
    assert not filled.flags.writeable and filled.dtype == fresh.dtype == float
    assert filled.tobytes() == fresh.tobytes()
    assert jm.shift_leaks is filled


def _outcome(path, jm):
    """Ranks of one wandering path on a fresh copy of ``jm`` (no leaks kept
    from the other path), or the class and fiber of its refusal."""
    try:
        return list(path(RangeFunctionH(jm.lattice, jm.frames)))
    except (FibershiftError, np.linalg.LinAlgError) as exc:
        return type(exc), getattr(exc, "fiber", None)


def _streamed_ranks(jm):
    """``wandering_ranks`` over the frames as a generator yields them, with
    its rank and leak checked against the stored range function's."""
    ranks, leak, wandering_ranks_ = wandering_ranks(iter(jm.frames), jm.lattice)
    assert ranks.tolist() == jm.ranks().tolist()
    assert leak == is_S_invariant(jm)[1]
    if wandering_ranks_ is None:
        raise NotInvariant("not invariant")
    return wandering_ranks_


@settings(max_examples=150, deadline=None)
@given(n_lambda=st.integers(1, 4), n_z=st.integers(1, 8), k=st.integers(1, 3),
       r=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_wandering_ranks_match_wandering_range(n_lambda, n_z, k, r, seed):
    """The values-only ranks path gives the frames path's ranks, or the
    same refusal at the same fiber, on closures of random seeds."""
    lat = TruncationLattice(n_lambda, n_z, k)
    try:
        seeds = grid_seeds(np.random.default_rng(seed), lat, min(r, k))
        jm = range_from_generators(shat_closure(seeds), lat)
    except (DegreeOverflow, ToleranceAmbiguity):
        assume(False)
    assert (_outcome(_streamed_ranks, jm)
            == _outcome(lambda j: wandering_range(j).ranks(), jm))


def test_not_invariant_comes_before_a_lower_fibers_refusal():
    """Fiber 0 is refused by the wandering step (a singular value of C* in
    the guard band) and fiber 1 leaks a whole unit under the shift: both
    paths put NotInvariant, on fiber 1's leak, first."""
    lat = TruncationLattice(2, 8, 3)
    slow = _chain_with_slow_direction(1.2e-9)
    unit = np.zeros((lat.ambient, 1), dtype=complex)
    unit[0, 0] = 1.0
    with pytest.raises(ToleranceAmbiguity, match="guard band"):
        wandering_range(RangeFunctionH(lat, (slow, slow)))
    with pytest.raises(ToleranceAmbiguity, match="guard band"):
        wandering_ranks((slow, slow), lat)
    with pytest.raises(NotInvariant, match="leak 1.000e"):
        wandering_range(RangeFunctionH(lat, (slow, unit)))
    ranks, leak, wandering_ranks_ = wandering_ranks((slow, unit), lat)
    assert ranks.tolist() == [slow.shape[1], 1]
    assert f"{leak:.3e}" == "1.000e+00" and wandering_ranks_ is None


def test_held_refusal_keeps_no_frame():
    """A refused fiber's error is held until the leaks are known, without
    the traceback whose frames would keep its frame and C* alive."""
    lat = TruncationLattice(2, 8, 3)
    slow = _chain_with_slow_direction(1.2e-9)
    leak, refusal = wandering._fiber_wandering(slow, lat.n_z, lat.k,
                                               lat.rank_tol, 0, False)
    assert isinstance(refusal, ToleranceAmbiguity)
    assert refusal.__traceback__ is None and refusal.__context__ is None


def _shifts_span_j(jm, jr, tol: float) -> None:
    """The truncated shift is nilpotent, so an invariant J = W + S J is
    the span of the n_z shifted copies of its wandering frame W, at every
    fiber and with no band: the two projectors agree within ``tol``."""
    lat = jm.lattice
    for q, w in zip(jm.frames, jr.frames):
        rebuilt = orthonormal_frame(shifted_copies(w, lat.n_z, lat.k),
                                    lat.rank_tol)
        assert np.abs(frame_projector(rebuilt) - frame_projector(q)).max() < tol


def test_shifted_copies_of_the_wandering_frame_span_j():
    rng = np.random.default_rng(33)
    lat = TruncationLattice(4, 6, 2)
    frames = tuple(haar_frame(rng, 2, 1) for _ in range(4))
    jm = full_hardy_from_base(RangeFunctionK(lat, frames))
    _shifts_span_j(jm, wandering_range(jm), 1e-10)


@settings(max_examples=100, deadline=None)
@given(n_lambda=st.integers(1, 4), n_z=st.integers(1, 8), k=st.integers(1, 3),
       r=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
# J lies in the top degree on fibers 1 to 3, so S J = 0; on fiber 3 C* holds rounding alone
@example(n_lambda=4, n_z=2, k=2, r=2, seed=1166586)
def test_closure_complement_and_shifted_wandering_span(n_lambda, n_z, k, r, seed):
    """On closures of random seeds, J and its pointwise complement fill each
    fiber orthogonally, and the n_z shifted copies of the wandering part
    span J. A random closure keeps directions near the rank cutoff, which
    move its frame by up to about 3e-10 (1742 closures sampled), so the
    projectors are held to orth_tol."""
    lat = TruncationLattice(n_lambda, n_z, k)
    try:
        seeds = grid_seeds(np.random.default_rng(seed), lat, min(r, k))
        jm = closure_range(seeds, lat)
        jr = wandering_range(jm)
    except (DegreeOverflow, ToleranceAmbiguity, NotInvariant, RankTooLarge):
        assume(False)
    comp = complement_range(jm)
    assert (jm.ranks() + comp.ranks()).tolist() == [lat.ambient] * n_lambda
    for q, c in zip(jm.frames, comp.frames):
        assert np.abs(q.conj().T @ c).max(initial=0.0) <= 1e-10
    _shifts_span_j(jm, jr, lat.orth_tol)
