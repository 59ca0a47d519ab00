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
from .subspaces import (
    canonical_columns,
    complement_frame,
    orthonormal_frame,
    rank_decision,
    residual_norms,
    singular_values,
)


class _RangeFunction:
    """Shared behavior of range functions; subclasses fix the ambient size."""

    lattice: TruncationLattice
    frames: tuple[np.ndarray, ...]

    def _check(self, ambient: int):
        if len(self.frames) != self.lattice.n_lambda:
            raise ValueError("one frame per grid point required")
        fixed = []
        for m, q in enumerate(self.frames):
            q = np.asarray(q, dtype=complex)
            if q.ndim != 2 or q.shape[0] != ambient:
                raise ValueError(f"frame {m} must have {ambient} rows")
            if q.shape[1]:
                gram = q.conj().T @ q
                gram[np.diag_indices_from(gram)] -= 1.0
                if not np.abs(gram).max() <= 1e-10:
                    raise ValueError(f"frame {m} is not orthonormal")
            fixed.append(frozen_array(q))
        object.__setattr__(self, "frames", tuple(fixed))

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


def _generator_stacks(gens: list[FiberedField], lattice: TruncationLattice) -> np.ndarray:
    """Generator fibers stacked as columns, shape (n_lambda, ambient, n_gens)."""
    if not gens:
        raise ValueError("at least one generator required")
    for g in gens:
        if g.lattice != lattice:
            raise ValueError("generator lattice mismatch")
    return np.stack([g.flat() for g in gens], axis=2)


def range_from_generators(gens: list[FiberedField],
                          lattice: TruncationLattice) -> RangeFunctionH:
    """Pointwise span of the generators' fibers.

    Per fiber, the generator vectors are stacked as columns and reduced to a
    canonical orthonormal frame. Raises ToleranceAmbiguity when a rank
    decision falls inside the guard band.
    """
    stacks = _generator_stacks(gens, lattice)
    return RangeFunctionH(lattice, tuple(
        orthonormal_frame(stacks[m], lattice.rank_tol, fiber=m)
        for m in range(lattice.n_lambda)))


def generator_ranks(gens: list[FiberedField], lattice: TruncationLattice) -> np.ndarray:
    """Per-fiber ranks of ``range_from_generators`` without building frames.

    Each fiber costs one SVD without singular vectors; the rank decision,
    guard band included, is the one ``range_from_generators`` makes.
    """
    stacks = _generator_stacks(gens, lattice)
    return np.array([rank_decision(singular_values(stacks[m]), lattice.rank_tol, fiber=m)
                     for m in range(lattice.n_lambda)], dtype=int)


def member(f: FiberedField, range_fn: RangeFunctionH) -> tuple[bool, float]:
    """Whether f(lambda_m) lies in the fiber subspace at every grid point.

    Returns (verdict, max residual). The residual at fiber m is the norm of
    the component of f(lambda_m) outside the frame; the verdict is true when
    the largest residual is at most orth_tol * max(1, ||f||).
    """
    lat = range_fn.lattice
    flat = f.flat()
    worst = 0.0
    for m in range(lat.n_lambda):
        r = residual_norms(range_fn.frames[m], flat[m][:, None])
        worst = max(worst, float(r[0]))
    ok = worst <= lat.orth_tol * max(1.0, f.norm())
    return ok, worst


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


def spectrum_from_ranks(ranks) -> list[int]:
    """Sorted grid indices whose rank is nonzero."""
    return [m for m, r in enumerate(ranks) if r > 0]


def spectrum(range_fn) -> list[int]:
    """Sorted grid indices where the fiber subspace is nonzero."""
    return spectrum_from_ranks(range_fn.ranks())
