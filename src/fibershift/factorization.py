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

``verify_decomposition`` holds Phi to the seeds it factors, with no band:
F's isometry is read exactly off the symbol, and the seeds must lie in the
truncated image Phi H^2 + z^n_z H^2 and generate it mod z^n_z. Every defect
is a Frobenius norm; the one rank decision, whether the seeds generate, is
made at rank_tol.
``connecting_isometry`` compares two symbols on every degree, and
``initial_space_base`` reads the initial space of a field off its symbol.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ImagesDiffer, NotPartialIsometry
from .fields import FiberedField
from .lattice import TruncationLattice, frozen_array
from .ranges import RangeFunctionH, RangeFunctionK, fiber_stacks, range_from_generators
from .shifts import shifted_copies
from .subspaces import canonical_columns
from .wandering import wandering_range

DIAGNOSTIC_KEYS = ("isometry_defect", "image_defect")
# added to W* W in the image defect: above its rounding, far below its
# nonzero eigenvalues
_RIDGE = 1e-12


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
        return shifted_copies(self.phi[m], lat.n_z, lat.k)


@dataclass(frozen=True, eq=False)
class DecompositionResult:
    """Output of ``decompose``.

    field : partial isometry field F, stored as its symbol Phi
    ranks : wandering dimension per fiber; Phi must vanish past it
    diagnostics : the two verification defects, maxima over fibers
    seeds : the generators whose H^2 span Phi H^2 is claimed to be, as
        FiberedFields on the field's lattice

    The fibers of wandering dimension n are those with ``ranks == n``, and
    the frame field phi_i is ``field.phi[:, :, i]``. The coordinate base is
    derived from the ranks.
    """

    field: SymbolField
    ranks: np.ndarray
    diagnostics: dict[str, float]
    seeds: tuple[FiberedField, ...]

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
        seeds = tuple(self.seeds)
        if any(g.lattice != lat for g in seeds):
            raise ValueError("seed lattice mismatch")
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "seeds", seeds)

    @property
    def lattice(self) -> TruncationLattice:
        return self.field.lattice

    @functools.cached_property
    def base(self) -> RangeFunctionK:
        """span(e_1 .. e_n) on a fiber of wandering dimension n."""
        eye = np.eye(self.lattice.k, dtype=complex)
        return RangeFunctionK(self.lattice, tuple(eye[:, :r] for r in self.ranks))


def decompose(gens: list[FiberedField], lattice: TruncationLattice) -> DecompositionResult:
    """Factor the pointwise span of ``gens`` through a full Hardy space.

    The span must already be invariant under the fiber shift (NotInvariant
    otherwise). Steps: build the range function, take its wandering part
    (RankTooLarge above k), store the wandering frames as the first columns
    of the symbol Phi, and verify Phi against ``gens``, the generators the
    result carries. On ``shat_closure(seeds)`` verification drops the
    shifts and holds Phi to the seeds alone, so Phi, ranks and diagnostics
    are those of ``decompose_range(closure_range(seeds, lattice), seeds)``,
    which spans the same closure the same way.
    """
    return decompose_range(range_from_generators(gens, lattice), gens)


def decompose_range(jm: RangeFunctionH, seeds: list[FiberedField]) -> DecompositionResult:
    """``decompose`` for an already-built range function ``jm`` spanned by
    ``seeds`` and their shifts."""
    lat = jm.lattice
    jr = wandering_range(jm)
    ranks = jr.ranks()
    phi = np.zeros((lat.n_lambda, lat.ambient, lat.k), dtype=complex)
    for m, r in enumerate(ranks):
        phi[m, :, :r] = jr.frames[m]
    field = SymbolField(lat, phi)
    diagnostics = verify_decomposition(DecompositionResult(field, ranks, {}, seeds))
    return DecompositionResult(field, ranks, diagnostics, seeds)


def verify_decomposition(res: DecompositionResult) -> dict[str, float]:
    """Recompute the two factorization defects against the result's seeds.

    Per fiber, W = shifted_copies of phi_1 .. phi_n (the columns of F on
    the full Hardy space over the base) and G holds the seeds, each scaled
    to unit norm; a seed at or below rank_tol times the fiber's largest is
    left out, as the rank decision that built J leaves it out. First, every
    seed that is bitwise the truncated shift of the seed before it is
    dropped, so a ``shat_closure`` is held to the seeds it was made from,
    with the defects of ``decompose_range(closure_range(seeds), seeds)``,
    which spans the same closure and is handed the seeds alone.
    The drop loses no failure: the truncated span of W is exactly
    S-invariant (S maps each truncated shift of phi_i to the next, and the
    last to zero), so dist(S g, span W) <= dist(g, span W), the shifts of
    a seed inside the truncated image stay inside it and add nothing to
    A_0, and the Frobenius sum over a seed and its n_z - 1 shifts, taken
    at the seed's scale, is at most sqrt(n_z) times the seed's own term.

    isometry_defect : ||G_W - I||_F for the Gram matrix G_W of the n_z
        shifts of phi_1 .. phi_n in H^2, not truncated. G_W is block
        Toeplitz in A_d = phi* S^d phi, so ||G_W - I||_F^2 =
        n_z ||A_0 - I||_F^2 + 2 sum_{d >= 1} (n_z - d) ||A_d||_F^2; Phi lies
        below degree n_z, so the truncated shifts give these products
        exactly.
    image_defect : the seeds against Phi H^2 + z^n_z H^2, the subspace a
        decomposition truncated at n_z stands for (a rational inner factor
        is no polynomial, so Phi H^2 alone can miss the seeds). Containment
        is ||G - W X||_F, the distance of G to span(W): X starts at
        W* G = P_+(Phi* G), exact for an isometric W, and two steps on
        W* W + ridge I take off what the truncation leaves near the top
        degree. Generation mod z^n_z holds when the degree-0 block A_0 of
        W* G, which every X with G = W X mod z^n_z shares since Phi is
        inner below degree n_z, has rank n; an A_0 with fewer seeds than n
        or with 1 / ||R^-1||_F <= rank_tol for the triangular R of A_0*
        (a lower bound on its n-th singular value) reads inf.

    Every defect is a Frobenius norm (no SVD, no eigensolver), never below
    the 2-norm of its matrix, so verdicts can only be stricter. Values are
    maxima over fibers; NaN stays NaN, and products that overflow read inf
    or NaN rather than warn. Commutation with the shifts holds by
    construction for a field stored as its symbol.
    """
    per = verify_per_fiber(res)
    return {key: float(np.max(per[key])) for key in DIAGNOSTIC_KEYS}


def _gram_defect(cols: np.ndarray, shifts: np.ndarray, p: np.ndarray,
                 weights: np.ndarray) -> float:
    """(sum_d weights[d] ||A_d - [d = 0] P||_F^2)^(1/2) for the blocks
    A_d = cols* S^d cols, d = 0 .. n_z - 1, of the n_z ``shifts`` of cols."""
    c = cols.shape[1]
    a = (cols.conj().T @ shifts).reshape(c, len(weights), c)
    a[:, 0] -= p
    return float(np.sqrt(np.sum(np.abs(a) ** 2, axis=(0, 2)) @ weights))


def rigidity_defect(phi: np.ndarray, p: np.ndarray, n_z: int, k: int) -> float:
    """R = (mean over the circle of ||Phi(zeta)* Phi(zeta) - P||_F^2)^(1/2)
    for a symbol Phi below degree n_z. Phi* Phi is the trigonometric
    polynomial with coefficients A_d = Phi* S^d Phi and their adjoints, so
    by Parseval R^2 = ||A_0 - P||_F^2 + 2 sum_{d >= 1} ||A_d||_F^2 exactly.
    At k = 1 with P = 1, R is the RMS of |h|^2 - 1, and since |h|^2 - 1 has
    degree below n_z, max_zeta ||h(zeta)| - 1| <= sqrt(2 n_z - 1) R.
    Entries that overflow give an inf or NaN R, without a warning."""
    weights = np.full(n_z, 2.0)
    weights[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        return _gram_defect(phi, shifted_copies(phi, n_z, k), p, weights)


def _rank_below(a0: np.ndarray, tol: float) -> bool:
    """Whether the n x s matrix a0 may have rank below n at tol: fewer
    columns than rows, or 1 / ||R^-1||_F <= tol for the triangular R of a0*
    (a lower bound on the n-th singular value, so the test is stricter)."""
    if a0.shape[1] < a0.shape[0]:
        return True
    try:
        r_inv = np.linalg.inv(np.linalg.qr(a0.conj().T, mode="r"))
    except np.linalg.LinAlgError:
        return True
    return not tol * np.linalg.norm(r_inv) < 1.0


def _is_shift_of(g: np.ndarray, prev: np.ndarray) -> bool:
    """Whether field data ``g`` is bitwise the truncated shift S ``prev``."""
    return not np.any(g[:, 0]) and np.array_equal(g[:, 1:], prev[:, :-1])


def verify_per_fiber(res: DecompositionResult) -> dict[str, np.ndarray]:
    """Per-fiber defect arrays behind ``verify_decomposition``."""
    lat = res.lattice
    n_z, k = lat.n_z, lat.k
    # each A_d with d >= 1 sits n_z - d times above the diagonal of G_W, and below
    weights = 2.0 * (n_z - np.arange(n_z))
    weights[0] = n_z
    iso, image = np.zeros((2, lat.n_lambda))
    seeds = res.seeds
    kept = [g for i, g in enumerate(seeds)
            if not (i and _is_shift_of(g.data, seeds[i - 1].data))]
    # entries near 1e+200 overflow to inf or NaN defects, which gates fail
    with np.errstate(over="ignore", invalid="ignore"):
        for m, g in enumerate(fiber_stacks(kept, lat)):
            n = int(res.ranks[m])
            phi = res.field.phi[m][:, :n]
            w = shifted_copies(phi, n_z, k)
            iso[m] = _gram_defect(phi, w, np.eye(n), weights)
            # a seed at or below the cutoff of the rank decision that built J
            # (rounding left by a factor that vanishes there) reads as zero
            # and is left out; a NaN norm is kept, so it reaches the defects
            norms = np.linalg.norm(g, axis=0)
            keep = ~(norms <= lat.rank_tol * norms.max(initial=0.0))
            g = g[:, keep] / norms[keep]
            wh = w.conj().T
            a = wh @ g                  # block j is P_+(Phi* G) at degree j
            r = g - w @ a
            # the truncated W is no isometry near the top degree: each step on
            # W* W + ridge I leaves ridge / sigma^2 of r's part along a
            # singular value sigma of W, so two take r off span(W)
            gram = wh @ w
            gram[np.diag_indices_from(gram)] += _RIDGE
            try:
                for _ in range(2):
                    r -= w @ np.linalg.solve(gram, wh @ r)
            except np.linalg.LinAlgError:
                r[:] = np.inf
            image[m] = np.linalg.norm(r)
            # seeds that do not generate read inf; a NaN stays NaN
            if n and _rank_below(a[:n], lat.rank_tol):
                image[m] = np.maximum(image[m], np.inf)
    return dict(zip(DIAGNOSTIC_KEYS, (iso, image)))


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
    - The ``rigidity_defect`` R of Phi against P must be at most orth_tol.

    Either failure raises NotPartialIsometry naming the fiber; a NaN R
    fails too. Columns of Phi are never truncated here, so a decomposition
    over frames of positive degree passes where the truncated F would clip.
    Each fiber costs one product of Phi* with its shifts and one k x k
    eigenproblem.
    """
    lat = field.lattice
    tol = lat.orth_tol
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
        rigidity = rigidity_defect(phi, base @ base.conj().T, lat.n_z, lat.k)
        if not rigidity <= tol:
            raise NotPartialIsometry(
                f"rigidity defect {rigidity:.3e}: Phi* Phi is not constant", fiber=m)
        frames.append(canonical_columns(base))
    return RangeFunctionK(lat, tuple(frames))
