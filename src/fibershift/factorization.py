"""Factorization of a jointly invariant range function through a partial
isometry field acting on a full Hardy subspace.

``decompose`` turns a shift-invariant range function J_M into its symbol
Phi: per fiber an (n_z*k) x k matrix whose first n columns are the frame
phi_1 .. phi_n of the wandering part of J_M (n its wandering dimension) and
whose other columns vanish. The operator field F(lambda_m) is the lower
triangular block Toeplitz matrix of Phi(lambda_m): its column at degree j and
coordinate i is the j-fold shifted phi_i. F is a partial isometry with
initial space the full Hardy space over the coordinate base span(e_1..e_n),
commutes with both shifts by construction, and carries the embedded base
onto the wandering part of J_M. F is built one fiber at a time, on demand.

``verify_decomposition`` is band restricted: the truncated fiber shift is
only isometric below the top retained degree, so defects are measured on
columns whose degrees stay inside the reliable band and subspace equalities
are compared after compressing both projectors to that band. Comparisons
never introduce new rank decisions; they reuse frames that already exist.
``connecting_isometry`` compares two symbols on every degree. Dense operator
fields only serve fields built outside ``decompose``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ImagesDiffer, NotPartialIsometry
from .fields import FiberedField, z_degree
from .full_hardy import is_full_hardy
from .lattice import TruncationLattice, frozen_array
from .ranges import OperatorField, RangeFunctionH, RangeFunctionK, range_from_generators
from .shifts import commutes_with_S, shifted_copies
from .subspaces import (DEGREE_TOL, band_projector_distance, canonical_columns,
                        herm_norm, op_norm, project_onto, robust_svd)
from .wandering import DimensionPartition, FrameFields, frame_fields, wandering_range

DIAGNOSTIC_KEYS = ("isometry_defect", "image_defect", "invariance_leak")


@dataclass(frozen=True)
class SymbolField:
    """An operator field stored as its symbol.

    ``phi`` has shape (n_lambda, n_z*k, k). ``op(m)`` builds F(lambda_m),
    whose column j*k + i is phi[m][:, i] shifted j times, so the field
    commutes with the fiber shift by construction.
    """

    lattice: TruncationLattice
    phi: np.ndarray

    def __post_init__(self):
        lat = self.lattice
        shape = (lat.n_lambda, lat.ambient, lat.k)
        if np.shape(self.phi) != shape:
            raise ValueError(f"phi must have shape {shape}")
        object.__setattr__(self, "phi", frozen_array(self.phi))

    def op(self, m: int) -> np.ndarray:
        lat = self.lattice
        return shifted_copies(self.phi[m], lat.n_z, lat.k, lat.n_z)


@dataclass(frozen=True, eq=False)
class DecompositionResult:
    """Output of ``decompose``.

    field : partial isometry field F, stored as its symbol Phi
    ranks : wandering dimension per fiber; Phi vanishes past it
    diagnostics : the three verification defects, maxima over fibers

    The coordinate base, the partition of the fibers by wandering dimension
    and the frame fields phi_1 .. phi_k are derived from Phi and the ranks.
    """

    field: SymbolField
    ranks: np.ndarray
    diagnostics: dict[str, float]

    def __post_init__(self):
        lat = self.field.lattice
        ranks = frozen_array(self.ranks, dtype=int)
        if ranks.shape != (lat.n_lambda,) or np.any((ranks < 0) | (ranks > lat.k)):
            raise ValueError("one wandering rank in 0..k per fiber required")
        object.__setattr__(self, "ranks", ranks)

    @property
    def lattice(self) -> TruncationLattice:
        return self.field.lattice

    @functools.cached_property
    def base(self) -> RangeFunctionK:
        """span(e_1 .. e_n) on a fiber of wandering dimension n."""
        eye = np.eye(self.lattice.k, dtype=complex)
        return RangeFunctionK(self.lattice, tuple(eye[:, :r] for r in self.ranks))

    @functools.cached_property
    def partition(self) -> DimensionPartition:
        return DimensionPartition.from_ranks(self.ranks)

    @functools.cached_property
    def frames(self) -> FrameFields:
        lat = self.lattice
        shape = (lat.n_lambda, lat.n_z, lat.k)
        phis = tuple(FiberedField(lat, self.field.phi[:, :, i].reshape(shape))
                     for i in range(lat.k))
        return FrameFields(phis, self.partition)


def _fiber_band(cols: np.ndarray, n_z: int) -> int:
    """Last degree b such that shifts of the frame columns up to b are exact."""
    d = z_degree(cols.reshape(n_z, -1), DEGREE_TOL) if cols.shape[1] else -1
    return n_z - 1 - max(d, 0)


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
    wandering dimension (RankTooLarge above k), store the wandering frames
    as the symbol Phi, and verify.
    """
    return decompose_range(range_from_generators(gens, lattice))


def decompose_range(jm: RangeFunctionH) -> DecompositionResult:
    """``decompose`` for an already-built range function."""
    frames = frame_fields(wandering_range(jm))
    field = SymbolField(jm.lattice, np.stack([p.flat() for p in frames.phis], axis=2))
    ranks = frames.partition.dimensions()
    diagnostics = verify_decomposition(DecompositionResult(field, ranks, {}), jm)
    return DecompositionResult(field, ranks, diagnostics)


def verify_decomposition(res: DecompositionResult, jm: RangeFunctionH) -> dict[str, float]:
    """Recompute the three factorization defects against a target range.

    Work happens in initial-space coordinates: the columns W = F G of F on
    the full Hardy space over the base (G the embedded base, degree-major)
    are the shifted copies of the first n columns of Phi. The shifted copies
    of the other columns are the mass of F off that space, which must vanish
    for a partial isometry starting there; its Frobenius norm is folded into
    the isometry and image defects.

    isometry_defect : || (W* W - I) on band degrees || plus off-space mass
    image_defect : containment of W in the target frame, the band-compressed
        projector distance between the banded image span and the target,
        and the off-space mass
    invariance_leak : banded image columns, shifted once, measured against
        the image projector W W*

    Values are maxima over fibers. All three vanish (to rounding) for a
    valid decomposition whose frame vectors are band limited. Commutation
    with the shifts needs no check: it holds by construction for a field
    stored as its symbol.
    """
    if jm.lattice != res.lattice:
        raise ValueError("lattice mismatch")
    per = verify_per_fiber(res, jm)
    return {key: float(np.max(per[key])) for key in DIAGNOSTIC_KEYS}


def verify_per_fiber(res: DecompositionResult, jm: RangeFunctionH) -> dict[str, np.ndarray]:
    """Per-fiber defect arrays behind ``verify_decomposition``."""
    lat = res.lattice
    n_z, k = lat.n_z, lat.k

    def one(m: int) -> tuple[float, float, float]:
        n = int(res.ranks[m])
        phi = res.field.phi[m]
        b = _fiber_band(phi[:, :n], n_z)
        q = jm.frames[m]

        w = shifted_copies(phi[:, :n], n_z, k, n_z)
        off_mass = float(np.linalg.norm(shifted_copies(phi[:, n:], n_z, k, n_z)))

        w_band = w[:, : n * (b + 1)]
        gram = w_band.conj().T @ w_band
        gram[np.diag_indices_from(gram)] -= 1.0
        iso = max(herm_norm(gram), off_mass)

        contain = op_norm(w - project_onto(q, w))
        v = _stable_frame(w_band)
        cover = band_projector_distance(v, q, (b + 1) * k)
        image = max(contain, cover, off_mass)

        # the shift of the first b layers of W is its next b layers
        shifted = w[:, n: n * (b + 1)]
        leak = op_norm(shifted - project_onto(w, shifted))
        return iso, image, leak

    rows = [one(m) for m in range(lat.n_lambda)]
    return {key: np.array([r[idx] for r in rows])
            for idx, key in enumerate(DIAGNOSTIC_KEYS)}


CONNECTING_KEYS = ("isometry_defect", "factorization_defect")


def constant_unitary(phi1: np.ndarray, phi2: np.ndarray) -> tuple[np.ndarray, float, float]:
    """U = phi1* phi2 with its defects ||U* U - I|| and ||phi2 - phi1 U||.

    For the first n columns of two inner symbols of one subspace, which
    differ by a constant unitary on the right (Beurling-Lax-Halmos
    uniqueness), U is that unitary and both defects vanish.
    """
    u = phi1.conj().T @ phi2
    gram = u.conj().T @ u
    gram[np.diag_indices_from(gram)] -= 1.0
    return u, herm_norm(gram), op_norm(phi2 - phi1 @ u)


def connecting_isometry(res1: DecompositionResult, res2: DecompositionResult,
                        ) -> tuple[SymbolField, dict[str, float]]:
    """The constant unitary field carrying the second factorization onto
    the first: per fiber of wandering dimension n, Phi2 = Phi1 U.

    Wandering dimensions must agree and U must pass both defects of
    ``constant_unitary`` within 10*orth_tol (ImagesDiffer otherwise; for a
    square U, ||U U* - I|| = ||U* U - I||, so the images agree too). The
    field's symbol is U at degree 0, padded to k x k: its fiber operator
    I (x) U commutes with the fiber shift by construction. Returns it with
    the defects, maxima over fibers, under ``CONNECTING_KEYS``.
    """
    lat = res1.lattice
    if res2.lattice != lat:
        raise ValueError("lattice mismatch")
    if not np.array_equal(res1.ranks, res2.ranks):
        raise ImagesDiffer("wandering dimension partitions differ")
    tol = 10.0 * lat.orth_tol

    symbol = np.zeros((lat.n_lambda, lat.ambient, lat.k), dtype=complex)
    worst = dict.fromkeys(CONNECTING_KEYS, 0.0)
    for m in range(lat.n_lambda):
        n = int(res1.ranks[m])
        u, iso, fact = constant_unitary(res1.field.phi[m][:, :n], res2.field.phi[m][:, :n])
        if max(iso, fact) > tol:
            raise ImagesDiffer(
                f"images differ: connecting field defect {max(iso, fact):.3e}", fiber=m)
        symbol[m, :n, :n] = u
        for key, val in zip(CONNECTING_KEYS, (iso, fact)):
            worst[key] = max(worst[key], val)
    return SymbolField(lat, symbol), worst


def initial_space_is_full_hardy(field_op: OperatorField | SymbolField,
                                ) -> tuple[bool, RangeFunctionK | None]:
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
        _, s, vh = robust_svd(field_op.op(m))
        bad = (s > lat.orth_tol) & (np.abs(s - 1.0) > lat.orth_tol)
        if np.any(bad):
            raise NotPartialIsometry(
                f"singular value {float(s[bad][0]):.6f} away from 0 and 1", fiber=m)
        keep = np.abs(s - 1.0) <= lat.orth_tol
        frames.append(canonical_columns(vh[keep].conj().T))
    initial = RangeFunctionH(lat, tuple(frames))
    return is_full_hardy(initial)
