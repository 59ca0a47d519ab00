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

``verify_decomposition`` reads F's isometry exactly off the symbol. Only
the cover of the target by the image is band limited: the truncated shift is
isometric only below the top retained degree, so the target is compared
with the banded image on the band rows. Comparisons make no rank decision,
and every defect is a Frobenius norm.
``connecting_isometry`` compares two symbols on every degree, and
``initial_space_base`` reads the initial space of a field off its symbol.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ImagesDiffer, NotPartialIsometry
from .fields import FiberedField, z_degree
from .lattice import TruncationLattice, frozen_array
from .ranges import RangeFunctionH, RangeFunctionK, range_from_generators
from .shifts import shifted_copies
from .subspaces import DEGREE_TOL, canonical_columns
from .wandering import wandering_range

DIAGNOSTIC_KEYS = ("isometry_defect", "image_defect")


@dataclass(frozen=True)
class SymbolField:
    """An operator field stored as its symbol.

    ``phi`` has shape (n_lambda, n_z*k, k) and finite entries. ``op(m)``
    builds F(lambda_m), whose column j*k + i is phi[m][:, i] shifted j
    times, so the field commutes with the fiber shift by construction.
    """

    lattice: TruncationLattice
    phi: np.ndarray

    def __post_init__(self):
        lat = self.lattice
        shape = (lat.n_lambda, lat.ambient, lat.k)
        if np.shape(self.phi) != shape:
            raise ValueError(f"phi must have shape {shape}")
        if not np.all(np.isfinite(self.phi)):
            raise ValueError("phi must be finite")
        object.__setattr__(self, "phi", frozen_array(self.phi))

    def op(self, m: int) -> np.ndarray:
        lat = self.lattice
        return shifted_copies(self.phi[m], lat.n_z, lat.k, lat.n_z)


@dataclass(frozen=True, eq=False)
class DecompositionResult:
    """Output of ``decompose``.

    field : partial isometry field F, stored as its symbol Phi
    ranks : wandering dimension per fiber; Phi must vanish past it
    diagnostics : the two verification defects, maxima over fibers

    The fibers of wandering dimension n are those with ``ranks == n``, and
    the frame field phi_i is ``field.phi[:, :, i]``. The coordinate base is
    derived from the ranks.
    """

    field: SymbolField
    ranks: np.ndarray
    diagnostics: dict[str, float]

    def __post_init__(self):
        lat = self.field.lattice
        ranks = frozen_array(self.ranks, dtype=int)
        if ranks.shape != (lat.n_lambda,) or np.any((ranks < 0) | (ranks > lat.k)):
            raise ValueError("one wandering rank in 0..k per fiber required")
        past = (np.arange(lat.k) >= ranks[:, None])[:, None]
        mass = np.any((self.field.phi != 0) & past, axis=(1, 2))
        if np.any(mass):
            raise ValueError(f"Phi is nonzero past the wandering rank at fiber "
                             f"{int(np.argmax(mass))}")
        object.__setattr__(self, "ranks", ranks)

    @property
    def lattice(self) -> TruncationLattice:
        return self.field.lattice

    @functools.cached_property
    def base(self) -> RangeFunctionK:
        """span(e_1 .. e_n) on a fiber of wandering dimension n."""
        eye = np.eye(self.lattice.k, dtype=complex)
        return RangeFunctionK(self.lattice, tuple(eye[:, :r] for r in self.ranks))


def _fiber_band(cols: np.ndarray, n_z: int) -> int:
    """Last degree b such that shifts of the frame columns up to b are exact."""
    d = z_degree(cols.reshape(n_z, -1), DEGREE_TOL) if cols.shape[1] else -1
    return n_z - 1 - max(d, 0)


def decompose(gens: list[FiberedField], lattice: TruncationLattice) -> DecompositionResult:
    """Factor the pointwise span of ``gens`` through a full Hardy space.

    The span must already be invariant under the fiber shift (NotInvariant
    otherwise; pass the closure of seed generators when needed). Steps: build
    the range function, take its wandering part (RankTooLarge above k),
    store the wandering frames as the first columns of the symbol Phi, and
    verify.
    """
    return decompose_range(range_from_generators(gens, lattice))


def decompose_range(jm: RangeFunctionH) -> DecompositionResult:
    """``decompose`` for an already-built range function."""
    lat = jm.lattice
    jr = wandering_range(jm)
    ranks = jr.ranks()
    phi = np.zeros((lat.n_lambda, lat.ambient, lat.k), dtype=complex)
    for m, r in enumerate(ranks):
        phi[m, :, :r] = jr.frames[m]
    field = SymbolField(lat, phi)
    diagnostics = verify_decomposition(DecompositionResult(field, ranks, {}), jm)
    return DecompositionResult(field, ranks, diagnostics)


def verify_decomposition(res: DecompositionResult, jm: RangeFunctionH) -> dict[str, float]:
    """Recompute the two factorization defects against a target range.

    The columns W of F on the full Hardy space over the base are the
    shifted copies of phi_1 .. phi_n, the only nonzero columns of Phi.

    isometry_defect : ||G - I||_F for the Gram matrix G of the n_z shifts
        of phi_1 .. phi_n in H^2, not truncated. G is block Toeplitz in
        A_d = phi* S^d phi, so ||G - I||_F^2 = n_z ||A_0 - I||_F^2
        + 2 sum_{d >= 1} (n_z - d) ||A_d||_F^2; Phi lies below degree n_z,
        so the truncated shifts give these products exactly.
    image_defect : containment ||W - Q Q* W||_F of W in the target frame Q,
        and the cover ||band rows of (Q - W_b W_b* Q)||_F of the target by
        the banded image W_b, linear in a tilt of Q into the band.

    Every defect is a Frobenius norm (no SVD, no eigensolver), never below
    the 2-norm of its matrix, so verdicts can only be stricter. Values are
    maxima over fibers; NaN stays NaN, and products that overflow read inf
    or NaN rather than warn. Commutation with the shifts holds by
    construction for a field stored as its symbol.
    """
    if jm.lattice != res.lattice:
        raise ValueError("lattice mismatch")
    per = verify_per_fiber(res, jm)
    return {key: float(np.max(per[key])) for key in DIAGNOSTIC_KEYS}


def _gram_defect(cols: np.ndarray, shifts: np.ndarray, p: np.ndarray,
                 weights: np.ndarray) -> float:
    """(sum_d weights[d] ||A_d - [d = 0] P||_F^2)^(1/2) for the blocks
    A_d = cols* S^d cols, d = 0 .. n_z - 1, of the n_z ``shifts`` of cols."""
    c = cols.shape[1]
    a = (cols.conj().T @ shifts).reshape(c, len(weights), c)
    a[:, 0] -= p
    return float(np.sqrt(np.sum(np.abs(a) ** 2, axis=(0, 2)) @ weights))


def verify_per_fiber(res: DecompositionResult, jm: RangeFunctionH) -> dict[str, np.ndarray]:
    """Per-fiber defect arrays behind ``verify_decomposition``."""
    lat = res.lattice
    n_z, k = lat.n_z, lat.k
    # each A_d with d >= 1 sits n_z - d times above the diagonal of G, and below
    weights = 2.0 * (n_z - np.arange(n_z))
    weights[0] = n_z

    def one(m: int) -> tuple[float, ...]:
        n = int(res.ranks[m])
        phi = res.field.phi[m][:, :n]
        q = jm.frames[m]
        w = shifted_copies(phi, n_z, k, n_z)
        iso = _gram_defect(phi, w, np.eye(n), weights)

        qw = q.conj().T @ w
        contain = np.linalg.norm(w - q @ qw)
        # band rows of J's frame outside span(W_b): shifts of W past the band
        # vanish on those rows, so this is zero exactly when W_b covers them
        b = _fiber_band(phi, n_z)
        rows, cols = (b + 1) * k, (b + 1) * n
        cover = np.linalg.norm(q[:rows] - w[:rows, :cols] @ qw[:, :cols].conj().T)
        return iso, contain, cover

    # entries near 1e+200 overflow to inf or NaN defects, which gates fail
    with np.errstate(over="ignore", invalid="ignore"):
        terms = [one(m) for m in range(lat.n_lambda)]
    iso, contain, cover = np.array(terms).T
    # elementwise maxima propagate NaN, where max(0.0, nan) reads 0.0
    return dict(zip(DIAGNOSTIC_KEYS, (iso, np.maximum(contain, cover))))


CONNECTING_KEYS = ("isometry_defect", "factorization_defect")


def constant_unitary(phi1: np.ndarray, phi2: np.ndarray) -> tuple[np.ndarray, float, float]:
    """U = phi1* phi2 with its defects ||U* U - I||_F and ||phi2 - phi1 U||_F.

    For the first n columns of two inner symbols of one subspace, which
    differ by a constant unitary on the right (Beurling-Lax-Halmos
    uniqueness), U is that unitary and both defects vanish.
    """
    u = phi1.conj().T @ phi2
    gram = u.conj().T @ u
    gram[np.diag_indices_from(gram)] -= 1.0
    return u, float(np.linalg.norm(gram)), float(np.linalg.norm(phi2 - phi1 @ u))


def connecting_isometry(res1: DecompositionResult, res2: DecompositionResult,
                        ) -> tuple[SymbolField, dict[str, float]]:
    """The constant unitary field carrying the second factorization onto
    the first: per fiber of wandering dimension n, Phi2 = Phi1 U.

    Wandering dimensions must agree and U must pass both defects of
    ``constant_unitary`` within 10*orth_tol (ImagesDiffer otherwise; for a
    square U, ||U U* - I||_F = ||U* U - I||_F, so the images agree too). The
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
        if not (iso <= tol and fact <= tol):
            raise ImagesDiffer(
                f"images differ: connecting field defect {max(iso, fact):.3e}", fiber=m)
        symbol[m, :n, :n] = u
        for key, val in zip(CONNECTING_KEYS, (iso, fact)):
            worst[key] = max(worst[key], val)
    return SymbolField(lat, symbol), worst


def initial_space_base(field: SymbolField) -> RangeFunctionK:
    """Base of the full Hardy space a partial isometry field starts on.

    A partial isometry that commutes with S starts on a full Hardy space:
    its initial space and its kernel are both S-invariant, so the initial
    space reduces S. The field of Phi is such a partial isometry exactly
    when Phi is rigid, Phi(zeta)* Phi(zeta) = P on the circle for one
    projection P, and P projects onto the base. Per fiber:

    - A_0 = Phi* Phi (k x k) must have every eigenvalue within orth_tol of
      0 or 1; P projects onto its unit eigenvectors, which span the base.
    - The rigidity defect R = sqrt(mean_t ||Phi(zeta_t)* Phi(zeta_t) - P||_F^2)
      over the circle must be at most orth_tol. Phi* Phi is a trigonometric
      polynomial in the blocks A_d = Phi* S^d Phi that verification reads,
      so R^2 = ||A_0 - P||_F^2 + 2 sum_{d >= 1} ||A_d||_F^2 exactly.

    Either failure raises NotPartialIsometry naming the fiber; a NaN R
    fails too. Columns of Phi are never truncated here, so a decomposition
    over frames of positive degree passes where the truncated F would clip.
    Each fiber costs one product of Phi* with its shifts and one k x k
    eigenproblem.
    """
    lat = field.lattice
    n_z, k, tol = lat.n_z, lat.k, lat.orth_tol
    weights = np.full(n_z, 2.0)
    weights[0] = 1.0
    frames = []
    for m in range(lat.n_lambda):
        phi = field.phi[m]
        # entries near 1e+200 overflow to an inf eigenvalue, which the gate fails
        with np.errstate(over="ignore", invalid="ignore"):
            w, v = np.linalg.eigh(phi.conj().T @ phi)
        unit = np.abs(w - 1.0) <= tol
        bad = ~(unit | (np.abs(w) <= tol))
        if np.any(bad):
            raise NotPartialIsometry(
                f"eigenvalue {float(w[bad][0]):.6f} of Phi* Phi away from 0 and 1", fiber=m)
        base = v[:, unit]
        rigidity = _gram_defect(phi, shifted_copies(phi, n_z, k, n_z),
                                base @ base.conj().T, weights)
        if not rigidity <= tol:
            raise NotPartialIsometry(
                f"rigidity defect {rigidity:.3e}: Phi* Phi is not constant", fiber=m)
        frames.append(canonical_columns(base))
    return RangeFunctionK(lat, tuple(frames))
