"""Range functions: measurable families of per-fiber subspaces.

A range function assigns to every grid point an orthonormal frame (each
entry of Q* Q - I within 1e-10). Two ambient sizes occur: frames inside the
truncated fiber Hardy space (dimension n_z*k, ``RangeFunctionH``) and
frames inside the coordinate space C^k alone (``RangeFunctionK``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotOrthogonal
from .fields import FiberedField
from .lattice import TruncationLattice, frozen_array
from .shifts import closure_counts, shifted_copies
from .subspaces import (
    canonical_columns,
    complement_frame,
    orthonormal_frame,
    rank_decision,
    singular_values,
)


def checked_frame(q: np.ndarray, ambient: int, m: int) -> np.ndarray:
    """Frame ``q`` of fiber m, frozen; ValueError unless it has ``ambient``
    rows and orthonormal columns."""
    q = np.asarray(q, dtype=complex)
    if q.ndim != 2 or q.shape[0] != ambient:
        raise ValueError(f"frame {m} must have {ambient} rows")
    if q.shape[1]:
        gram = q.conj().T @ q
        gram[np.diag_indices_from(gram)] -= 1.0
        if not np.abs(gram).max() <= 1e-10:
            raise ValueError(f"frame {m} is not orthonormal")
    return frozen_array(q)


class _RangeFunction:
    """Shared behavior of range functions; subclasses fix the ambient size."""

    lattice: TruncationLattice
    frames: tuple[np.ndarray, ...]

    def _check(self, ambient: int):
        if len(self.frames) != self.lattice.n_lambda:
            raise ValueError("one frame per grid point required")
        object.__setattr__(self, "frames", tuple(
            checked_frame(q, ambient, m) for m, q in enumerate(self.frames)))

    def rank(self, m: int) -> int:
        return self.frames[m].shape[1]

    def ranks(self) -> np.ndarray:
        return np.array([q.shape[1] for q in self.frames], dtype=int)

    @property
    def ambient(self) -> int:
        return self.frames[0].shape[0]


@dataclass(frozen=True)
class RangeFunctionH(_RangeFunction):
    """Range function with fibers inside the truncated Hardy space C^{n_z*k}."""

    lattice: TruncationLattice
    frames: tuple[np.ndarray, ...]

    def __post_init__(self):
        self._check(self.lattice.ambient)


@dataclass(frozen=True)
class RangeFunctionK(_RangeFunction):
    """Range function with fibers inside the coordinate space C^k."""

    lattice: TruncationLattice
    frames: tuple[np.ndarray, ...]

    def __post_init__(self):
        self._check(self.lattice.k)


def _fiber_stacks(gens: list[FiberedField], counts: list[int],
                  lattice: TruncationLattice):
    """Per fiber m, the matrix whose columns are g(lambda_m), S g(lambda_m),
    ..., S^(count-1) g(lambda_m) for each generator g in turn.

    Each matrix is built when its fiber is reached, from the generators
    alone, so no stack over all fibers is ever held. No generators give
    zero columns: the zero subspace, of rank 0 on every fiber.
    """
    for g in gens:
        if g.lattice != lattice:
            raise ValueError("generator lattice mismatch")
    flats = [g.flat() for g in gens]
    # shifted_copies is degree-major (column j*r + i is generator i shifted
    # j times); these columns put it generator by generator
    take = [j * len(gens) + i for i, c in enumerate(counts) for j in range(c)]
    depth = max(counts, default=0)
    fiber = np.zeros((lattice.ambient, len(gens)), dtype=complex)
    for m in range(lattice.n_lambda):
        for i, f in enumerate(flats):
            fiber[:, i] = f[m]
        yield shifted_copies(fiber, lattice.n_z, lattice.k, depth)[:, take]


def _span_frames(gens, counts, lattice):
    for m, stack in enumerate(_fiber_stacks(gens, counts, lattice)):
        yield orthonormal_frame(stack, lattice.rank_tol, fiber=m)


def _span(gens, counts, lattice) -> RangeFunctionH:
    return RangeFunctionH(lattice, tuple(_span_frames(gens, counts, lattice)))


def range_from_generators(gens: list[FiberedField],
                          lattice: TruncationLattice) -> RangeFunctionH:
    """Pointwise span of the generators' fibers.

    Per fiber, the generator vectors are stacked as columns and reduced to a
    canonical orthonormal frame. Raises ToleranceAmbiguity when a rank
    decision falls inside the guard band.
    """
    return _span(gens, [1] * len(gens), lattice)


def closure_range(seeds: list[FiberedField], lattice: TruncationLattice) -> RangeFunctionH:
    """``range_from_generators(shat_closure(seeds), lattice)``, frame for
    frame, without building the closure: each fiber's columns are the seeds'
    shifted copies, made when that fiber's SVD needs them."""
    return _span(seeds, closure_counts(seeds), lattice)


def closure_frames(seeds: list[FiberedField], lattice: TruncationLattice):
    """The frames of ``closure_range(seeds, lattice)``, checked alike, made
    one fiber at a time as they are read, so a reader need not hold J."""
    frames = _span_frames(seeds, closure_counts(seeds), lattice)
    return (checked_frame(q, lattice.ambient, m) for m, q in enumerate(frames))


def closure_ranks(seeds: list[FiberedField], lattice: TruncationLattice) -> np.ndarray:
    """Per-fiber ranks of ``closure_range(seeds, lattice)`` without frames
    or the closure: each fiber costs one SVD without singular vectors, and
    the rank decision, guard band included, is the one the frames make."""
    stacks = _fiber_stacks(seeds, closure_counts(seeds), lattice)
    return np.array([rank_decision(singular_values(stack), lattice.rank_tol, fiber=m)
                     for m, stack in enumerate(stacks)], dtype=int)


def complement_range(range_fn: RangeFunctionH) -> RangeFunctionH:
    """Pointwise orthogonal complement within the truncated fiber space."""
    frames = tuple(canonical_columns(complement_frame(q)) for q in range_fn.frames)
    return RangeFunctionH(range_fn.lattice, frames)


def direct_sum_ranges(parts: list[RangeFunctionH]) -> RangeFunctionH:
    """Fiberwise orthogonal direct sum.

    Raises NotOrthogonal when any two summand fibers have a cross inner
    product above orth_tol.
    """
    if not parts:
        raise ValueError("at least one summand required")
    lat = parts[0].lattice
    for p in parts:
        if p.lattice != lat:
            raise ValueError("summand lattice mismatch")
    frames = []
    for m in range(lat.n_lambda):
        blocks = [p.frames[m] for p in parts]
        for a in range(len(blocks)):
            for b in range(a + 1, len(blocks)):
                if blocks[a].shape[1] and blocks[b].shape[1]:
                    cross = np.abs(blocks[a].conj().T @ blocks[b]).max()
                    if cross > lat.orth_tol:
                        raise NotOrthogonal(
                            f"summands {a} and {b} overlap ({cross:.3e})", fiber=m)
        stacked = np.concatenate(blocks, axis=1)
        total = sum(b.shape[1] for b in blocks)
        q = orthonormal_frame(stacked, lat.rank_tol, fiber=m)
        if q.shape[1] != total:
            raise NotOrthogonal("summands are not independent", fiber=m)
        frames.append(q)
    return RangeFunctionH(lat, tuple(frames))


def spectrum(range_fn) -> list[int]:
    """Sorted grid indices where the fiber subspace is nonzero."""
    return np.flatnonzero(range_fn.ranks()).tolist()
