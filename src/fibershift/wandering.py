"""Wandering subspaces of shift-invariant range functions.

For an invariant fiber subspace J the wandering part is J minus its shifted
image, computed in the coordinates of J's own frame (one small matrix C*,
which also gives the shift leak, one SVD and one rank decision per fiber),
so it lies in J by construction. Its dimension never exceeds k (RankTooLarge
names the fiber otherwise), the shifted copies of its frame are orthogonal
while they stay inside the reliable band, and stacking those copies
reconstructs the original subspace.

The frame field phi_i is the i-th column of the ``wandering_range``
frames, stored as ``Phi[:, :, i]``; the partition of the circle by
wandering dimension is ``wandering_ranks``, read off singular values alone.
Both run one per-fiber loop over frames as an iterable yields them:
``wandering_range`` over a range function's stored frames, and
``analyze`` ``wandering_ranks`` over the closure frames as they are made,
so it holds one frame at a time, a refused fiber's included.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import (BandExceeded, FibershiftError, NotInvariant, RankTooLarge,
                     ToleranceAmbiguity)
from .fields import z_degree
from .lattice import TruncationLattice
from .ranges import RangeFunctionH, direct_sum_ranges
from .shifts import (compressed_shift_adjoint, leak_verdict, shift_leak,
                     shift_leaks, shifted_copies)
from .subspaces import (DEGREE_TOL, canonical_columns, rank_decision, robust_svd,
                        singular_values)


def _fiber_wandering(frame: np.ndarray, n_z: int, k: int, rank_tol: float,
                     fiber: int | None = None, vectors: bool = True):
    """``(leak, part)`` for one fiber: the ``shift_leak`` of the frame Q and
    the frame of J minus S J (with ``vectors``) or its dimension, both from
    one C*. A refusal is returned as the part, not raised.

    With Q the frame of an invariant J, S Q = Q C for the r x r matrix
    C = Q* S Q, so S J = Q range(C) and J minus S J = Q ker(C*). The rank
    of C is decided once on its singular values; the kernel of C* is read
    off the right singular vectors of C*, which the ``robust_svd`` fallback
    also returns in full. The truncated shift has a k-dimensional kernel, so
    for an invariant J ker(C*) has dimension at most k (RankTooLarge).

    A numerical J is invariant only up to the leak, the part S Q - Q C of
    S J outside J. It is of the order of the frame's distance from an
    invariant subspace, and so of the error in C: beyond half the cutoff a
    small singular value of C cannot be told from a zero one, and the
    decision is refused (ToleranceAmbiguity). A weaker test that only
    certifies rank(S Q) = rank(C) accepts such frames and then misses the
    wandering ranks of the generators themselves at n_z = 16.
    """
    if frame.shape[1] == 0:
        return 0.0, frame if vectors else 0
    c_star = compressed_shift_adjoint(frame, n_z, k)
    leak = shift_leak(frame, n_z, k, c_star)
    try:
        if vectors:
            _, s, vh = robust_svd(c_star)
        else:
            s = singular_values(c_star)
        rank = rank_decision(s, rank_tol, fiber)
        cutoff = rank_tol * float(s[0])
        if leak > 0.5 * cutoff:
            raise ToleranceAmbiguity(
                f"shift leaves the subspace by {leak:.3e}, beyond half the cutoff "
                f"{cutoff:.3e}", fiber=fiber)
        if frame.shape[1] - rank > k:
            raise RankTooLarge(f"rank {frame.shape[1] - rank} exceeds k = {k}", fiber=fiber)
    except (FibershiftError, np.linalg.LinAlgError) as exc:
        # held without the traceback and context whose frames hold Q and C*
        exc.__context__ = None
        return leak, exc.with_traceback(None)
    if not vectors:
        return leak, frame.shape[1] - rank
    return leak, canonical_columns(frame @ vh[rank:].conj().T)


def _wandering(frames: Iterable[np.ndarray], lattice: TruncationLattice,
               vectors: bool) -> tuple:
    """``(ranks, leaks, parts)`` per fiber of each frame as ``frames`` yields
    it, one frame and one C* held at a time. ``parts`` is None when the
    frames are not shift invariant (``leak_verdict``); otherwise the lowest
    refused fiber's refusal is raised."""
    ranks, leaks, parts = zip(*(
        (q.shape[1], *_fiber_wandering(q, lattice.n_z, lattice.k,
                                       lattice.rank_tol, m, vectors))
        for m, q in enumerate(frames)))
    if not leak_verdict(leaks, lattice.orth_tol)[0]:
        return ranks, leaks, None
    for part in parts:
        if isinstance(part, Exception):
            raise part
    return ranks, leaks, parts


def wandering_range(range_fn: RangeFunctionH) -> RangeFunctionH:
    """Pointwise wandering subspace of a shift-invariant range function.

    Raises NotInvariant when some fiber's ``shift_leak`` exceeds orth_tol,
    and otherwise the refusal of the lowest refused fiber: RankTooLarge
    where a wandering rank exceeds k, ToleranceAmbiguity where the rank
    decision is ambiguous or the leak passes half the cutoff. The leaks
    are kept on ``range_fn`` (``shift_leaks``).
    """
    _, leaks, parts = _wandering(range_fn.frames, range_fn.lattice, True)
    shift_leaks(range_fn, leaks)
    if parts is None:
        raise NotInvariant(f"input is not shift invariant (leak {np.max(leaks):.3e})")
    return RangeFunctionH(range_fn.lattice, parts)


def wandering_ranks(frames: Iterable[np.ndarray], lattice: TruncationLattice
                    ) -> tuple[np.ndarray, float, np.ndarray | None]:
    """``(ranks, leak, wandering ranks)`` of the frames of a range function
    on ``lattice``, read one at a time as ``frames`` yields them: the rank
    of each frame, the largest ``shift_leak``, and the ranks of
    ``wandering_range`` from one SVD of C* without singular vectors per
    fiber, or None where ``wandering_range`` raises NotInvariant. Its other
    refusals are raised alike.
    """
    ranks, leaks, parts = _wandering(frames, lattice, False)
    return (np.array(ranks, dtype=int), float(np.max(leaks)),
            None if parts is None else np.array(parts, dtype=int))


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
