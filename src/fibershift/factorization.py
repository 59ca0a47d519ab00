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

Every verification below is band restricted: the truncated fiber shift is
only isometric below the top retained degree, so defects are measured on
columns whose degrees stay inside the reliable band and subspace equalities
are compared after compressing both projectors to that band. Comparisons
never introduce new rank decisions; they reuse frames that already exist.
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
from .shifts import commutation_defect, commutes_with_S, shifted_copies
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
    lat = res1.lattice
    if res2.lattice != lat:
        raise ValueError("lattice mismatch")
    if not np.array_equal(res1.ranks, res2.ranks):
        raise ImagesDiffer("wandering dimension partitions differ")
    tol = 10.0 * lat.orth_tol
    n_z, k, amb = lat.n_z, lat.k, lat.ambient

    ops = np.zeros((lat.n_lambda, amb, amb), dtype=complex)
    worst = dict.fromkeys(CONNECTING_KEYS, 0.0)
    for m in range(lat.n_lambda):
        n = int(res1.ranks[m])
        cols1 = res1.field.phi[m][:, :n]
        cols2 = res2.field.phi[m][:, :n]
        b = min(_fiber_band(cols1, n_z), _fiber_band(cols2, n_z))
        dim_b = (b + 1) * k
        v1 = _stable_frame(shifted_copies(cols1, n_z, k, b + 1))
        v2 = _stable_frame(shifted_copies(cols2, n_z, k, b + 1))
        if band_projector_distance(v1, v2, dim_b) > tol:
            raise ImagesDiffer("banded images differ", fiber=m)

        f1 = res1.field.op(m)
        f2 = res2.field.op(m)
        psi = f1.conj().T @ f2
        ops[m] = psi

        # the initial space and the image of psi are both the full Hardy
        # space over span(e_1 .. e_n); p_w projects onto it
        p_w = np.diag(np.tile(np.arange(k) < n, n_z)).astype(complex)
        iso = op_norm((psi.conj().T @ psi - p_w)[:dim_b, :dim_b])
        img = op_norm((psi @ p_w @ psi.conj().T - p_w)[:dim_b, :dim_b])
        # the embedded base columns of F2 - F1 psi, degree-major
        fact = op_norm((f2 - f1 @ psi).reshape(amb, n_z, k)[:, : b + 1, :n]
                       .reshape(amb, -1))
        comm = commutation_defect(psi, n_z, k, dim_b)
        fiber_worst = max(iso, img, fact, comm)
        if fiber_worst > tol:
            raise ImagesDiffer(
                f"connecting field fails verification ({fiber_worst:.3e})", fiber=m)
        for key, val in zip(CONNECTING_KEYS, (iso, img, fact, comm)):
            worst[key] = max(worst[key], val)
    return OperatorField(lat, ops), worst


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
