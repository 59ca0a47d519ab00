"""Full Hardy range functions: fibers that are themselves truncated Hardy
spaces over a base subspace of the coordinate space.

These are exactly the subspaces reducing for the grid rotation and the
fiberwise shift simultaneously: both the subspace and its complement are
shift invariant, and the wandering part sits in degree zero.
"""

from __future__ import annotations

import numpy as np

from .errors import BaseNotConstant
from .fields import FiberedField
from .ranges import RangeFunctionH, RangeFunctionK, complement_range
from .shifts import is_S_invariant, shifted_copies
from .subspaces import canonical_columns, complement_frame, orthonormal_frame
from .wandering import wandering_range


def project_pointwise(f: FiberedField, base: RangeFunctionK) -> FiberedField:
    """Project every z-coefficient of every fiber onto the base subspace.

    The projection onto a full Hardy subspace acts blockwise on
    coefficients, so this is exact (no SVD, no tolerance).
    """
    lat = base.lattice
    if f.lattice != lat:
        raise ValueError("lattice mismatch")
    data = np.empty_like(f.data)
    for m in range(lat.n_lambda):
        b = base.frames[m]
        if b.shape[1] == 0:
            data[m] = 0.0
        else:
            p = b @ b.conj().T
            data[m] = np.einsum("ab,jb->ja", p, f.data[m])
    return FiberedField(lat, data)


def full_hardy_from_base(base: RangeFunctionK) -> RangeFunctionH:
    """Embed a coordinate-space range function degreewise.

    The fiber at m is spanned by every shifted copy of every base vector;
    columns are ordered by degree, then base index. Rank is n_z times the
    base rank and the construction is exact.
    """
    lat = base.lattice
    pad = ((0, lat.ambient - lat.k), (0, 0))
    frames = tuple(shifted_copies(np.pad(b, pad), lat.n_z, lat.k, lat.n_z)
                   for b in base.frames)
    return RangeFunctionH(lat, frames)


def is_full_hardy(range_fn: RangeFunctionH) -> tuple[bool, RangeFunctionK | None]:
    """Decide whether a range function is full Hardy and recover its base.

    Tests that the subspace and its pointwise complement are both invariant
    under the fiber shift (whole-frame leak within orth_tol). When both
    hold, the wandering part must consist of degree-zero vectors; its
    degree-zero block is returned as the base.

    Raises BaseNotConstant when the invariance tests pass but a wandering
    vector carries mass above orth_tol outside degree zero. A subspace whose
    complement is invariant too reduces the fiber shift, so it is full Hardy
    and its wandering part sits in degree zero up to about the leaks; the
    guard catches a disagreement between the two checks.
    """
    lat = range_fn.lattice
    ok, _ = is_S_invariant(range_fn)
    if not ok:
        return False, None
    ok, _ = is_S_invariant(complement_range(range_fn))
    if not ok:
        return False, None
    base_frames = []
    for m, w in enumerate(wandering_range(range_fn).frames):
        if w.shape[1] == 0:
            base_frames.append(np.zeros((lat.k, 0), dtype=complex))
            continue
        high = np.linalg.norm(w[lat.k:, :], axis=0)
        if np.any(high > lat.orth_tol):
            raise BaseNotConstant(
                f"wandering vector has degree-positive mass {float(high.max()):.3e}",
                fiber=m)
        block0 = w[: lat.k, :]
        base_frames.append(canonical_columns(orthonormal_frame(block0, lat.rank_tol, fiber=m)))
    return True, RangeFunctionK(lat, tuple(base_frames))


def full_hardy_complement(base: RangeFunctionK) -> RangeFunctionK:
    """Base of the complementary full Hardy subspace: the pointwise
    orthogonal complement inside the coordinate space."""
    frames = tuple(canonical_columns(complement_frame(b)) for b in base.frames)
    return RangeFunctionK(base.lattice, frames)
