"""Factorization of a jointly invariant range function through a partial
isometry field acting on a full Hardy subspace.

``decompose`` turns a shift-invariant range function J_M into a coordinate
base J (constant on each dimension class), frame fields phi_i, and an
operator field F that maps the full Hardy space over J onto J_M fiber by
fiber: the column of F at degree j and coordinate i is the j-fold shifted
phi_i. F is a partial isometry with initial space the full Hardy space over
J, commutes with both shifts, and carries the embedded base onto the
wandering part of J_M.

Every verification below is band restricted: the truncated fiber shift is
only isometric below the top retained degree, so defects are measured on
columns whose degrees stay inside the reliable band and subspace equalities
are compared after compressing both projectors to that band. Comparisons
never introduce new rank decisions; they reuse frames that already exist.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ImagesDiffer, NotPartialIsometry
from .fields import FiberedField, z_degree
from .full_hardy import _embedded_base_columns, is_full_hardy
from .lattice import TruncationLattice
from .ranges import OperatorField, RangeFunctionH, RangeFunctionK, range_from_generators
from .shifts import commutation_defect, commutes_with_S, shift_columns
from .subspaces import (DEGREE_TOL, band_projector_distance, canonical_columns,
                        herm_norm, op_norm, robust_svd)
from .wandering import DimensionPartition, FrameFields, frame_fields, wandering_range

DIAGNOSTIC_KEYS = ("isometry_defect", "image_defect", "commutation_defect",
                   "invariance_leak")


@dataclass(frozen=True)
class DecompositionResult:
    """Output of ``decompose``.

    base : coordinate-space range function J (nested coordinate spans)
    field : partial isometry operator field F
    partition : fiber indices grouped by wandering dimension
    frames : frame fields phi_1 .. phi_k of the wandering part
    diagnostics : the four verification defects, maxima over fibers
    """

    base: RangeFunctionK
    field: OperatorField
    partition: DimensionPartition
    frames: FrameFields
    diagnostics: dict[str, float]


def _fiber_band(res: DecompositionResult, m: int) -> int:
    """Last degree b such that shifts of the frame vectors up to b are exact."""
    n = res.base.rank(m)
    fibers = [phi.fiber(m) for phi in res.frames.phis[:n]]
    d = z_degree(np.hstack(fibers), DEGREE_TOL) if n else -1
    return res.base.lattice.n_z - 1 - max(d, 0)


def _hardy_projector(base_frame: np.ndarray, n_z: int, k: int) -> np.ndarray:
    """Projector onto the full Hardy space over one base fiber."""
    if base_frame.shape[1] == 0:
        return np.zeros((n_z * k, n_z * k), dtype=complex)
    return np.kron(np.eye(n_z), base_frame @ base_frame.conj().T)


def _stable_frame(cols: np.ndarray) -> np.ndarray:
    """Orthonormalize columns that are near-orthonormal by construction.

    Directions with singular value below 1/2 are genuinely absent (for a
    valid partial isometry every kept column has unit norm), so the fixed
    absolute cutoff cannot sit near a legitimate singular value.
    """
    if cols.shape[1] == 0:
        return cols.astype(complex)
    u, s, _ = robust_svd(cols)
    return u[:, s > 0.5]


def decompose(gens: list[FiberedField], lattice: TruncationLattice) -> DecompositionResult:
    """Factor the pointwise span of ``gens`` through a full Hardy space.

    The span must already be invariant under the fiber shift (NotInvariant
    otherwise; pass the closure of seed generators when needed). Steps: build
    the range function, take its wandering part, partition fibers by
    wandering dimension (RankTooLarge above k), pick the nested coordinate
    base on each class, assemble F column by column from shifted frame
    vectors, and verify.
    """
    return decompose_range(range_from_generators(gens, lattice))


def decompose_range(jm: RangeFunctionH) -> DecompositionResult:
    """``decompose`` for an already-built range function."""
    lat = jm.lattice
    jr = wandering_range(jm)
    frames = frame_fields(jr)
    partition = frames.partition

    eye = np.eye(lat.k, dtype=complex)
    base_frames = tuple(eye[:, : jr.rank(m)] for m in range(lat.n_lambda))
    base = RangeFunctionK(lat, base_frames)

    # column j*k + i of F is S^j phi_i; phi_i vanishes on fibers of rank <= i
    phi = np.stack([p.flat() for p in frames.phis], axis=2)
    ops = np.zeros((lat.n_lambda, lat.ambient, lat.ambient), dtype=complex)
    for lo in range(0, lat.ambient, lat.k):
        ops[:, lo:, lo:lo + lat.k] = phi[:, : lat.ambient - lo]
    field = OperatorField(lat, ops)
    res = DecompositionResult(base, field, partition, frames, {})
    diagnostics = verify_decomposition(res, jm)
    return DecompositionResult(base, field, partition, frames, diagnostics)


def verify_decomposition(res: DecompositionResult, jm: RangeFunctionH) -> dict[str, float]:
    """Recompute the four factorization defects against a target range.

    Work happens in initial-space coordinates: with G the embedded base
    frame (degree-major), the columns W = F G carry everything F does on the
    full Hardy space, and the mass of F off that space, ||F - (F G) G*||_F,
    is folded into the isometry and image defects since it must vanish for
    a partial isometry starting there.

    isometry_defect : || (W* W - I) on band degrees || plus off-space mass
    image_defect : containment of W in the target frame, the band-compressed
        projector distance between the banded image span and the target,
        and the off-space mass
    commutation_defect : band-restricted commutator of F with the fiber
        shift, read off slices of F. F built by ``decompose_range`` commutes
        by construction, so the difference is exactly zero and no SVD runs;
        a perturbed F (say, read from a damaged file) is measured in full.
    invariance_leak : banded image columns, shifted once, measured against
        the image projector W W*

    Values are maxima over fibers. All four vanish (to rounding) for a valid
    decomposition whose frame vectors are band limited. The base must be the
    nested coordinate base that ``decompose`` and ``load_decomposition``
    produce (ValueError otherwise).
    """
    lat = res.base.lattice
    if jm.lattice != lat:
        raise ValueError("lattice mismatch")
    per = verify_per_fiber(res, jm)
    return {key: float(np.max(per[key])) for key in DIAGNOSTIC_KEYS}


def verify_per_fiber(res: DecompositionResult, jm: RangeFunctionH) -> dict[str, np.ndarray]:
    """Per-fiber defect arrays behind ``verify_decomposition``."""
    lat = res.base.lattice
    dims = res.partition.dimensions()
    eye_k = np.eye(lat.k, dtype=complex)

    def one(m: int) -> tuple[float, float, float, float]:
        f = res.field.ops[m]
        b = _fiber_band(res, m)
        n = int(dims[m])
        if res.base.rank(m) != n:
            raise ValueError(f"partition and base rank disagree at fiber {m}")
        if not np.array_equal(res.base.frames[m], eye_k[:, :n]):
            raise ValueError(f"base is not the coordinate base at fiber {m}")
        q = jm.frames[m]

        # columns j*k + i with i < n carry F on the full Hardy space over the
        # base (W = F G); the others must vanish
        blocks = f.reshape(-1, lat.n_z, lat.k)
        w = blocks[:, :, :n].reshape(len(f), -1)
        off_mass = float(np.linalg.norm(blocks[:, :, n:]))

        w_band = w[:, : n * (b + 1)]
        gram = w_band.conj().T @ w_band
        gram[np.diag_indices_from(gram)] -= 1.0
        iso = max(herm_norm(gram), off_mass)

        if q.shape[1]:
            contain = op_norm(w - q @ (q.conj().T @ w))
        else:
            contain = op_norm(w)
        v = _stable_frame(w_band)
        cover = band_projector_distance(v, q, (b + 1) * lat.k)
        image = max(contain, cover, off_mass)

        comm = commutation_defect(f, lat.n_z, lat.k)

        if b >= 1 and n:
            shifted = shift_columns(w[:, : n * b], lat.n_z, lat.k)
            leak = op_norm(shifted - w @ (w.conj().T @ shifted))
        else:
            leak = 0.0
        return iso, image, comm, leak

    rows = [one(m) for m in range(lat.n_lambda)]
    return {key: np.array([r[idx] for r in rows])
            for idx, key in enumerate(DIAGNOSTIC_KEYS)}


CONNECTING_KEYS = ("isometry_defect", "image_defect", "factorization_defect",
                   "commutation_defect")


def connecting_isometry(res1: DecompositionResult, res2: DecompositionResult,
                        ) -> tuple[OperatorField, dict[str, float]]:
    """The operator field carrying the second factorization onto the first.

    Both inputs must decompose the same subspace; wandering dimensions must
    agree and the banded image spans must coincide (ImagesDiffer otherwise).
    Per fiber the result is F1* F2, a partial isometry with initial space
    the full Hardy space of res2's base and image that of res1's. It
    commutes with both shifts and satisfies F2 = F1 composed with it, all of
    which is verified on the band before returning.

    Returns the field together with the four verification defects (maxima
    over fibers):

    isometry_defect : psi* psi against the projector onto res2's full
        Hardy space, banded
    image_defect : psi carrying res2's full Hardy projector onto res1's,
        banded
    factorization_defect : (F2 - F1 psi) on the embedded base columns
    commutation_defect : banded commutator of psi with the fiber shift
    """
    lat = res1.base.lattice
    if res2.base.lattice != lat:
        raise ValueError("lattice mismatch")
    dims1 = res1.partition.dimensions()
    dims2 = res2.partition.dimensions()
    if not np.array_equal(dims1, dims2):
        raise ImagesDiffer("wandering dimension partitions differ")
    tol = 10.0 * lat.orth_tol

    ops = np.zeros((lat.n_lambda, lat.ambient, lat.ambient), dtype=complex)
    worst = dict.fromkeys(CONNECTING_KEYS, 0.0)
    for m in range(lat.n_lambda):
        f1 = res1.field.ops[m]
        f2 = res2.field.ops[m]
        b = min(_fiber_band(res1, m), _fiber_band(res2, m))
        dim_b = (b + 1) * lat.k
        g1 = _embedded_base_columns(res1.base.frames[m], lat.n_z, lat.k, b)
        g2 = _embedded_base_columns(res2.base.frames[m], lat.n_z, lat.k, b)
        v1 = _stable_frame(f1 @ g1)
        v2 = _stable_frame(f2 @ g2)
        if band_projector_distance(v1, v2, dim_b) > tol:
            raise ImagesDiffer("banded images differ", fiber=m)

        psi = f1.conj().T @ f2
        ops[m] = psi

        p_w1 = _hardy_projector(res1.base.frames[m], lat.n_z, lat.k)
        p_w2 = _hardy_projector(res2.base.frames[m], lat.n_z, lat.k)
        iso = op_norm((psi.conj().T @ psi - p_w2)[:dim_b, :dim_b])
        img = op_norm((psi @ p_w2 @ psi.conj().T - p_w1)[:dim_b, :dim_b])
        fact = op_norm((f2 - f1 @ psi) @ g2)
        s_psi = shift_columns(psi, lat.n_z, lat.k)
        psi_s = np.zeros_like(psi)
        psi_s[:, : (lat.n_z - 1) * lat.k] = psi[:, lat.k:]
        comm = op_norm((psi_s - s_psi)[:dim_b, :dim_b])
        fiber_worst = max(iso, img, fact, comm)
        if fiber_worst > tol:
            raise ImagesDiffer(
                f"connecting field fails verification ({fiber_worst:.3e})", fiber=m)
        for key, val in zip(CONNECTING_KEYS, (iso, img, fact, comm)):
            worst[key] = max(worst[key], val)
    return OperatorField(lat, ops), worst


def initial_space_is_full_hardy(field_op: OperatorField) -> tuple[bool, RangeFunctionK | None]:
    """Test whether a commuting partial isometry field starts on a full
    Hardy space, and recover its base.

    Singular values of each fiber operator must sit within orth_tol of 0 or
    1 (NotPartialIsometry otherwise); the initial space is spanned by the
    right singular vectors at the unit singular values. A field that fails
    to commute with the fiber shift on the band is rejected outright.

    Truncation caveat: a field built by ``decompose`` is a partial isometry
    in this global sense only when no frame column truncates partway. Frame
    vectors of degree d lose mass once shifted past degree n_z - 1 - d, and
    the clipped columns carry singular values strictly between 0 and 1, so
    fields over degree-positive frames are rejected here even though they
    verify cleanly on the reliable band.
    """
    lat = field_op.lattice
    ok, defect = commutes_with_S(field_op)
    if not ok:
        raise ValueError(f"field does not commute with the fiber shift ({defect:.3e})")
    frames = []
    for m in range(lat.n_lambda):
        _, s, vh = robust_svd(field_op.ops[m])
        bad = (s > lat.orth_tol) & (np.abs(s - 1.0) > lat.orth_tol)
        if np.any(bad):
            raise NotPartialIsometry(
                f"singular value {float(s[bad][0]):.6f} away from 0 and 1", fiber=m)
        keep = np.abs(s - 1.0) <= lat.orth_tol
        frames.append(canonical_columns(vh[keep].conj().T))
    initial = RangeFunctionH(lat, tuple(frames))
    return is_full_hardy(initial)
