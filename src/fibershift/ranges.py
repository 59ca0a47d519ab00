"""Range functions: measurable families of per-fiber subspaces.

A range function assigns to every grid point an orthonormal frame (each
entry of Q* Q - I within 1e-10). Two ambient sizes occur: frames inside the
truncated fiber Hardy space (dimension n_z*k, ``RangeFunctionH``) and
frames inside the coordinate space C^k alone (``RangeFunctionK``).

Every span is one per-fiber loop over the generators' fibers side by side
(``range_from_generators``, ``generator_frames``, ``generator_ranks``); a
shift closure is spanned as the generator list ``shat_closure`` makes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .fields import FiberedField
from .lattice import TruncationLattice, frozen_array
from .shifts import shat_closure, shift_leak
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

    @functools.cached_property
    def shift_leaks(self) -> np.ndarray:
        """Per-fiber ``shift_leak`` of the frames, computed once per object.
        ``wandering_range`` fills it with the leaks it measured from the C*
        it decides on, so a command that also reports the leak forms each
        fiber's C* once."""
        lat = self.lattice
        return frozen_array([shift_leak(q, lat.n_z, lat.k)[0] for q in self.frames],
                            dtype=float)


@dataclass(frozen=True)
class RangeFunctionK(_RangeFunction):
    """Range function with fibers inside the coordinate space C^k."""

    lattice: TruncationLattice
    frames: tuple[np.ndarray, ...]

    def __post_init__(self):
        self._check(self.lattice.k)


def fiber_stacks(gens: list[FiberedField], lattice: TruncationLattice):
    """Per fiber m, the generators' fibers g(lambda_m) side by side, built
    when that fiber is reached (no stack over all fibers is held) and
    Fortran-ordered, as LAPACK reads it. No generators give zero columns."""
    if any(g.lattice != lattice for g in gens):
        raise ValueError("generator lattice mismatch")
    flats = [g.flat() for g in gens]
    for m in range(lattice.n_lambda):
        yield np.array([f[m] for f in flats], dtype=complex).reshape(
            len(flats), lattice.ambient).T


def range_from_generators(gens: list[FiberedField],
                          lattice: TruncationLattice) -> RangeFunctionH:
    """Pointwise span of the generators' fibers: per fiber, a canonical
    orthonormal frame of the generator vectors stacked as columns. Raises
    ToleranceAmbiguity when a rank decision falls inside the guard band."""
    return RangeFunctionH(lattice, tuple(generator_frames(gens, lattice)))


def generator_frames(gens: list[FiberedField], lattice: TruncationLattice):
    """The frames of ``range_from_generators(gens, lattice)``, made one
    fiber at a time as they are read. Each is the orthonormal frame its own
    SVD just made, so unlike a ``RangeFunctionH``'s it is not re-checked."""
    for m, stack in enumerate(fiber_stacks(gens, lattice)):
        yield orthonormal_frame(stack, lattice.rank_tol, fiber=m)


def generator_ranks(gens: list[FiberedField], lattice: TruncationLattice) -> np.ndarray:
    """Per-fiber ranks of ``range_from_generators(gens, lattice)`` without
    frames: each fiber costs one SVD without singular vectors, and the rank
    decision, guard band included, is the one the frames make."""
    return np.array([rank_decision(singular_values(stack), lattice.rank_tol, fiber=m)
                     for m, stack in enumerate(fiber_stacks(gens, lattice))], dtype=int)


def closure_range(seeds: list[FiberedField], lattice: TruncationLattice) -> RangeFunctionH:
    """``range_from_generators(shat_closure(seeds), lattice)``."""
    return range_from_generators(shat_closure(seeds), lattice)


def complement_range(range_fn: RangeFunctionH) -> RangeFunctionH:
    """Pointwise orthogonal complement within the truncated fiber space."""
    frames = tuple(canonical_columns(complement_frame(q)) for q in range_fn.frames)
    return RangeFunctionH(range_fn.lattice, frames)

