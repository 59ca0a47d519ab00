"""Wandering subspaces of shift-invariant range functions.

For an invariant fiber subspace J the wandering part is J minus its shifted
image, computed in the coordinates of J's own frame (one small SVD and one
rank decision per fiber), so it lies in J by construction. Its dimension
never exceeds k, the shifted copies of its frame are orthogonal while they
stay inside the reliable band, and stacking those copies reconstructs the
original subspace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BandExceeded, NotInvariant, RankTooLarge, ToleranceAmbiguity
from .fields import FiberedField, z_degree
from .ranges import RangeFunctionH, direct_sum_ranges
from .shifts import is_S_invariant, shift_leaks, shifted_copies
from .subspaces import DEGREE_TOL, canonical_columns, rank_decision, robust_svd


@dataclass(frozen=True)
class DimensionPartition:
    """Grid indices grouped by wandering dimension.

    ``classes[n]`` is the sorted tuple of fiber indices with dimension n;
    the classes partition 0..n_lambda-1.
    """

    classes: dict[int, tuple[int, ...]]

    def __post_init__(self):
        fixed = {n: tuple(sorted(int(m) for m in self.classes[n]))
                 for n in sorted(self.classes) if len(self.classes[n])}
        object.__setattr__(self, "classes", fixed)
        seen = [m for idx in fixed.values() for m in idx]
        if sorted(seen) != list(range(len(seen))):
            raise ValueError("classes must partition the fiber indices")
        dims = np.zeros(len(seen), dtype=int)
        for n, idx in fixed.items():
            dims[list(idx)] = n
        object.__setattr__(self, "_dims", dims)

    @classmethod
    def from_ranks(cls, ranks) -> "DimensionPartition":
        """Fiber m goes to the class ranks[m]."""
        classes: dict[int, list[int]] = {}
        for m, r in enumerate(ranks):
            classes.setdefault(int(r), []).append(m)
        return cls({n: tuple(v) for n, v in classes.items()})

    def dimension_at(self, m: int) -> int:
        if not 0 <= m < len(self._dims):
            raise KeyError(m)
        return int(self._dims[m])

    def dimensions(self) -> np.ndarray:
        return self._dims.copy()


@dataclass(frozen=True)
class FrameFields:
    """Measurable frame fields phi_1 .. phi_k attached to a partition.

    On a fiber of dimension n the first n fields give an orthonormal basis
    of the subspace there and the remaining fields vanish identically.
    """

    phis: tuple[FiberedField, ...]
    partition: DimensionPartition


def _fiber_wandering(frame: np.ndarray, n_z: int, k: int, rank_tol: float,
                     leak: float, fiber: int | None = None) -> np.ndarray:
    """Frame of J minus (fiber shift applied to J) for one fiber.

    With Q the frame of an invariant J, S Q = Q C for the r x r matrix
    C = Q* S Q, so S J = Q range(C) and J minus S J = Q ker(C*). The rank
    of C is decided once on its singular values; the kernel of C* is read
    off the right singular vectors of C*, which the ``robust_svd`` fallback
    also returns in full.

    A numerical J is invariant only up to ``leak``, the ``shift_leak`` of Q:
    the part S Q - Q C of S J outside J. It is of the order of the frame's
    distance from an invariant subspace, and so of the error in C: beyond
    half the cutoff a small singular value of C cannot be told from a zero
    one, and the decision is refused (ToleranceAmbiguity). A weaker test
    that only certifies rank(S Q) = rank(C) accepts such frames and then
    misses the wandering ranks of the generators themselves at n_z = 16.
    """
    if frame.shape[1] == 0:
        return frame
    c_star = frame[: (n_z - 1) * k].conj().T @ frame[k:]
    _, s, vh = robust_svd(c_star)
    rank = rank_decision(s, rank_tol, fiber)
    cutoff = rank_tol * float(s[0])
    if leak > 0.5 * cutoff:
        raise ToleranceAmbiguity(
            f"shift leaves the subspace by {leak:.3e}, beyond half the cutoff "
            f"{cutoff:.3e}", fiber=fiber)
    return canonical_columns(frame @ vh[rank:].conj().T)


def wandering_range(range_fn: RangeFunctionH) -> RangeFunctionH:
    """Pointwise wandering subspace of a shift-invariant range function.

    Raises NotInvariant when some fiber's ``shift_leak`` exceeds orth_tol.
    """
    lat = range_fn.lattice
    ok, leak = is_S_invariant(range_fn)
    if not ok:
        raise NotInvariant(f"input is not shift invariant (leak {leak:.3e})")
    leaks = shift_leaks(range_fn)
    frames = tuple(
        _fiber_wandering(range_fn.frames[m], lat.n_z, lat.k, lat.rank_tol, leaks[m], fiber=m)
        for m in range(lat.n_lambda)
    )
    return RangeFunctionH(lat, frames)


def dimension_partition(range_fn: RangeFunctionH) -> DimensionPartition:
    """Group fibers by rank; ranks above k are rejected.

    Wandering subspaces of invariant range functions never exceed dimension
    k, so a larger rank signals a non-wandering input (RankTooLarge).
    """
    k = range_fn.lattice.k
    ranks = range_fn.ranks()
    over = np.flatnonzero(ranks > k)
    if over.size:
        m = int(over[0])
        raise RankTooLarge(f"rank {ranks[m]} exceeds k = {k}", fiber=m)
    return DimensionPartition.from_ranks(ranks)


def frame_fields(range_fn: RangeFunctionH) -> FrameFields:
    """Package a low-rank range function as k frame fields.

    Field i takes the i-th frame column on fibers of rank >= i and vanishes
    elsewhere, so each field is supported exactly on its dimension classes.
    """
    lat = range_fn.lattice
    partition = dimension_partition(range_fn)
    data = np.zeros((lat.k, lat.n_lambda, lat.ambient), dtype=complex)
    for m, q in enumerate(range_fn.frames):
        data[: q.shape[1], m] = q.T
    phis = tuple(FiberedField(lat, d.reshape(lat.n_lambda, lat.n_z, lat.k)) for d in data)
    return FrameFields(phis, partition)


def reconstruct_from_wandering(wandering: RangeFunctionH, depth: int) -> RangeFunctionH:
    """Direct sum of the wandering frames shifted 0..depth times.

    The depth must keep every shifted copy inside the reliable band:
    depth <= n_z - 1 - (max effective degree over all wandering columns),
    otherwise BandExceeded is raised. Orthogonality of the shifted copies is
    checked (NotOrthogonal on failure).
    """
    lat = wandering.lattice
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    max_deg = max((z_degree(q.reshape(lat.n_z, -1), DEGREE_TOL)
                   for q in wandering.frames if q.shape[1]), default=-1)
    if depth > lat.n_z - 1 - max_deg:
        raise BandExceeded(
            f"depth {depth} exceeds band limit {lat.n_z - 1 - max_deg}")
    stacks = [shifted_copies(q, lat.n_z, lat.k, depth + 1) for q in wandering.frames]
    ranks = wandering.ranks()
    layers = [RangeFunctionH(lat, tuple(s[:, d * r:(d + 1) * r] for s, r in zip(stacks, ranks)))
              for d in range(depth + 1)]
    return direct_sum_ranges(layers)
