"""Range functions and the pointwise span calculus."""

import tracemalloc

import numpy as np
import pytest

import fibershift.ranges as ranges
from fibershift import (FiberedField, RangeFunctionH, RangeFunctionK,
                        ToleranceAmbiguity, TruncationLattice,
                        range_from_generators, shat_closure)
from fibershift.ranges import (closure_range, complement_range, generator_frames,
                               generator_ranks)
from fibershift.shifts import closure_counts

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


def test_range_from_generators_matches_pinv():
    rng = np.random.default_rng(20)
    lat = TruncationLattice(8, 8, 2)
    gens = shat_closure(grid_seeds(rng, lat, 2))
    jm = range_from_generators(gens, lat)
    for m in range(lat.n_lambda):
        cols = np.stack([g.flat()[m] for g in gens], axis=1)
        assert np.abs(frame_projector(jm.frames[m])
                      - brute_projector(cols)).max() < 1e-10


def test_complement_range():
    rng = np.random.default_rng(22)
    lat = TruncationLattice(4, 8, 1)
    gens = shat_closure(grid_seeds(rng, lat, 1))
    jm = range_from_generators(gens, lat)
    comp = complement_range(jm)
    for m in range(lat.n_lambda):
        p = frame_projector(jm.frames[m]) + frame_projector(comp.frames[m])
        assert np.abs(p - np.eye(lat.ambient)).max() < 1e-12


def test_vanishing_factor_empties_fibers():
    """Generators with a subgroup zero set span nothing on its fibers."""
    rng = np.random.default_rng(23)
    lat = TruncationLattice(8, 4, 1)
    coeffs = np.zeros((8, 4), dtype=complex)
    # canonical powers make the subgroup zeros exact; lam ** 4 would leave
    # 1e-16 residue that the relative rank cutoff keeps
    coeffs[:, 0] = (lat.lambda_power(4) - 1.0) / 2.0
    gens = shat_closure([FiberedField(lat, coeffs[:, :, None])])
    jm = range_from_generators(gens, lat)
    assert np.flatnonzero(jm.ranks()).tolist() == [1, 3, 5, 7]


def test_generator_guard_band_names_the_fiber():
    """A generator fiber with a singular value at the rank cutoff is refused,
    by the range, the streaming frames and the rank count alike, and the
    error names the fiber. At n_z = 1 the fiber shift is zero, so the seeds
    are their own closure."""
    lat = TruncationLattice(2, 1, 2)
    a = FiberedField(lat, np.array([[[1.0, 0.0]], [[1.0, 0.0]]]))
    b = FiberedField(lat, np.array([[[0.0, 1.0]], [[0.0, 1e-9]]]))

    def streamed(gens, lat):
        return list(generator_frames(gens, lat))

    for build in (range_from_generators, streamed, generator_ranks, closure_range):
        with pytest.raises(ToleranceAmbiguity) as err:
            build([a, b], lat)
        assert err.value.fiber == 1


def test_no_generators_span_the_zero_subspace():
    """An empty generator list (seeds that vanish on every fiber close to
    none) spans the zero subspace: rank 0 on every fiber."""
    lat = TruncationLattice(4, 4, 2)
    jm = range_from_generators([], lat)
    assert jm.ranks().tolist() == [0, 0, 0, 0]
    assert all(q.shape == (8, 0) for q in jm.frames)
    assert [q.shape for q in generator_frames([], lat)] == [(8, 0)] * 4
    assert generator_ranks([], lat).tolist() == [0, 0, 0, 0]


def test_range_frames_are_frozen():
    lat = TruncationLattice(2, 2, 1)
    rf = RangeFunctionH(lat, (np.eye(2, dtype=complex),) * 2)
    with pytest.raises(ValueError):
        rf.frames[0][0, 0] = 9.0


def _closure_seeds(case: str) -> tuple[TruncationLattice, list[FiberedField]]:
    lat = TruncationLattice(8, 6, 2)
    rng = np.random.default_rng(24)

    def rand():
        shape = (lat.n_lambda, lat.n_z, lat.k)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    high = rand()
    high[:, :2] = 0.0               # lowest degree 2 on every fiber
    mixed = rand()
    mixed[:, :3] = 0.0
    mixed[3, 1, 0] = 1.0            # lowest degree 1, on fiber 3 alone
    # zero exactly on the even fibers, where lambda^4 = 1
    vanish = rand() * ((lat.lambda_power(4) - 1.0) / 2.0)[:, None, None]
    zero = np.zeros_like(high)
    data = {"high": [high], "mixed": [mixed], "vanish": [vanish],
            "zero-then-high": [zero, high], "all-zero": [zero, zero],
            "three": [high, vanish, mixed]}[case]
    return lat, [FiberedField(lat, d) for d in data]


@pytest.mark.parametrize("case, counts", [
    ("high", [4]), ("mixed", [5]), ("vanish", [6]), ("zero-then-high", [0, 4]),
    ("all-zero", [0, 0]), ("three", [4, 6, 5])])
def test_closure_stacks_are_the_closure_fields(monkeypatch, case, counts):
    """Each fiber's matrix, as the frames' and the ranks' SVDs receive it,
    is bit for bit the closure fields' fibers side by side, seed by seed,
    and Fortran-ordered; the streamed frames and the ranks are those of the
    closure's range."""
    lat, seeds = _closure_seeds(case)
    gens = shat_closure(seeds)
    assert closure_counts(seeds) == counts and sum(counts) == len(gens)
    seen = []

    def recording(fn):
        def record(stack, *args, **kwargs):
            seen.append((stack.shape, stack.tobytes(), stack.flags.f_contiguous))
            return fn(stack, *args, **kwargs)
        return record

    for name in ("orthonormal_frame", "singular_values"):
        monkeypatch.setattr(ranges, name, recording(getattr(ranges, name)))
    frames = list(generator_frames(gens, lat))
    ranks = generator_ranks(gens, lat)
    assert len(seen) == 2 * lat.n_lambda
    for m in range(lat.n_lambda):
        expected = (np.stack([g.flat()[m] for g in gens], axis=1) if gens
                    else np.zeros((lat.ambient, 0), dtype=complex))
        for got in (seen[m], seen[lat.n_lambda + m]):
            assert got == (expected.shape, expected.tobytes(), True)
    ref = closure_range(seeds, lat)
    assert all(a.shape == b.shape and a.tobytes() == b.tobytes()
               for a, b in zip(frames, ref.frames, strict=True))
    assert ranks.tolist() == ref.ranks().tolist()


def test_closure_range_holds_one_fiber_at_a_time():
    """Spanning the closure allocates J's frames, the closure's buffers (two
    copies of each seed) and one fiber's matrix at a time: the peak stays
    below twice the frames' bytes (1.2 times here)."""
    lat = TruncationLattice(32, 32, 3)
    seeds = grid_seeds(np.random.default_rng(25), lat, 3)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        jm = closure_range(seeds, lat)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    frames = sum(q.nbytes for q in jm.frames)
    assert frames > 0 and peak < 2 * frames
