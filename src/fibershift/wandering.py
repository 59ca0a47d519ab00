"""Wandering subspaces of shift-invariant range functions.

For an invariant fiber subspace J the wandering part is J minus its shifted
image, computed in the coordinates of J's own frame (one small SVD and one
rank decision per fiber), so it lies in J by construction. Its dimension
never exceeds k (RankTooLarge names the fiber otherwise), the shifted copies
of its frame are orthogonal while they stay inside the reliable band, and
stacking those copies reconstructs the original subspace.

The partition of the circle by wandering dimension is read off ``ranks()``,
and the frame field phi_i is the i-th frame column, which ``decompose``
stores as ``Phi[:, :, i]``.
"""

from __future__ import annotations

import numpy as np

from .errors import BandExceeded, NotInvariant, RankTooLarge, ToleranceAmbiguity
from .fields import z_degree
from .ranges import RangeFunctionH, direct_sum_ranges
from .shifts import is_S_invariant, shift_leaks, shifted_copies
from .subspaces import DEGREE_TOL, canonical_columns, rank_decision, robust_svd


def _fiber_wandering(frame: np.ndarray, n_z: int, k: int, rank_tol: float,
                     leak: float, fiber: int | None = None) -> np.ndarray:
    """Frame of J minus (fiber shift applied to J) for one fiber.

    With Q the frame of an invariant J, S Q = Q C for the r x r matrix
    C = Q* S Q, so S J = Q range(C) and J minus S J = Q ker(C*). The rank
    of C is decided once on its singular values; the kernel of C* is read
    off the right singular vectors of C*, which the ``robust_svd`` fallback
    also returns in full. The truncated shift has a k-dimensional kernel, so
    for an invariant J ker(C*) has dimension at most k (RankTooLarge).

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
    if frame.shape[1] - rank > k:
        raise RankTooLarge(f"rank {frame.shape[1] - rank} exceeds k = {k}", fiber=fiber)
    return canonical_columns(frame @ vh[rank:].conj().T)


def wandering_range(range_fn: RangeFunctionH) -> RangeFunctionH:
    """Pointwise wandering subspace of a shift-invariant range function.

    Raises NotInvariant when some fiber's ``shift_leak`` exceeds orth_tol,
    and RankTooLarge naming the fiber where a wandering rank exceeds k.
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
