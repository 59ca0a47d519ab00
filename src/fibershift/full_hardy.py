"""Full Hardy range functions: fibers that are themselves truncated Hardy
spaces over a base subspace of the coordinate space.

These are exactly the subspaces reducing for the grid rotation and the
fiberwise shift simultaneously: invariant under S and S*. With R the
reversal of degree blocks, R S R = S*, so both leaks are read off J's frame.
"""

from __future__ import annotations

import numpy as np

from .fields import FiberedField
from .ranges import RangeFunctionH, RangeFunctionK
from .shifts import is_S_invariant, shift_leak, shifted_copies
from .subspaces import canonical_columns, robust_svd


def project_pointwise(f: FiberedField, base: RangeFunctionK) -> FiberedField:
    """Project every z-coefficient of every fiber onto the base subspace.

    The projection onto a full Hardy subspace acts blockwise on
    coefficients, so this is exact (no SVD, no tolerance).
    """
    lat = base.lattice
    if f.lattice != lat:
        raise ValueError("lattice mismatch")
    # row j of a fiber times the transposed projector conj(B) B^T; an empty
    # base frame gives zero
    return FiberedField(lat, np.stack([d @ b.conj() @ b.T
                                       for d, b in zip(f.data, base.frames)]))


def full_hardy_from_base(base: RangeFunctionK) -> RangeFunctionH:
    """Embed a coordinate-space range function degreewise.

    The fiber at m is spanned by every shifted copy of every base vector;
    columns are ordered by degree, then base index. Rank is n_z times the
    base rank and the construction is exact.
    """
    lat = base.lattice
    pad = ((0, lat.ambient - lat.k), (0, 0))
    frames = tuple(shifted_copies(np.pad(b, pad), lat.n_z, lat.k)
                   for b in base.frames)
    return RangeFunctionH(lat, frames)


def is_full_hardy(range_fn: RangeFunctionH) -> tuple[bool, RangeFunctionK | None]:
    """Decide whether a range function is full Hardy and recover its base.

    Every fiber must leak within orth_tol under S (``is_S_invariant``) and
    under S* (``shift_leak`` of the frame with its degree blocks reversed),
    and have rank n * n_z. Its base is spanned by the top n left singular
    vectors of the degree-zero block Q[:k], whose Gram is P_J compressed to
    degree zero, the base projector: the singular values are 1 and 0, so no
    rank decision is needed.
    """
    lat = range_fn.lattice
    n_z, k = lat.n_z, lat.k
    ranks = range_fn.ranks()
    if not is_S_invariant(range_fn)[0] or np.any(ranks % n_z):
        return False, None
    base_frames = []
    for q, r in zip(range_fn.frames, ranks):
        if shift_leak(q.reshape(n_z, k, r)[::-1].reshape(n_z * k, r), n_z, k)[0] > lat.orth_tol:
            return False, None
        u = robust_svd(q[:k])[0]
        base_frames.append(canonical_columns(u[:, : r // n_z]))
    return True, RangeFunctionK(lat, tuple(base_frames))
