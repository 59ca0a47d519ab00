"""Scalar specialization: one-dimensional coordinate space.

For k = 1 every fiber subspace story collapses to classical Hardy space
material: a shift-invariant subspace is generated by a single inner
function, a decomposition is described by its symbol, a field of inner
functions phi(lambda) (``InnerField``, a ``SymbolField``), and two
describing fields differ by a unimodular constant per fiber, the k = 1
connecting field. Innerness is the k = 1 case of rigidity: ``inner_defect``
is the ``rigidity_defect`` of h against P = 1, the exact RMS of |h|^2 - 1
on the circle, read off the products of h with its shifts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotInner, NotUnimodular, RangesDiffer, WanderingRankNotOne
from .factorization import SymbolField, constant_unitary, rigidity_defect
from .fields import FiberedField
from .lattice import TruncationLattice, frozen_array
from .ranges import RangeFunctionH, closure_range
from .subspaces import orthonormal_frame, subspace_distance
from .wandering import wandering_range


@dataclass(frozen=True)
class ScalarH2:
    """A scalar analytic polynomial, coefficients indexed by z-degree."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = frozen_array(self.coeffs)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coeffs must be a nonempty vector")
        if not np.all(np.isfinite(c)):
            raise ValueError("coeffs must be finite")
        object.__setattr__(self, "coeffs", c)

    @property
    def n_z(self) -> int:
        return self.coeffs.size

    def inner_defect(self) -> float:
        """R = (mean over the circle of (|h|^2 - 1)^2)^(1/2), the k = 1
        ``rigidity_defect``; the boundary modulus strays from 1 by at most
        sqrt(2 n_z - 1) R."""
        return rigidity_defect(self.coeffs[:, None], np.eye(1), self.n_z, 1)


def inner_from_invariant(gens: list[ScalarH2]) -> tuple[ScalarH2, float]:
    """Extract the inner generator of the invariant span of ``gens``.

    ``closure_range`` on the lattice (1, n_z, 1) spans all shifts of the
    generators, closed by the rank cutoff, which discards the geometrically
    small directions a finite truncation cannot distinguish from zero; what
    remains is the invariant subspace generated by the inner part alone. Its
    ``wandering_range`` must be one dimensional (WanderingRankNotOne
    otherwise); the canonical unit wandering vector is the inner function.
    The returned defect is its ``inner_defect``; it carries the geometric
    truncation tail of non-polynomial inner functions.
    """
    if not gens:
        raise ValueError("need at least one generator")
    n_z = gens[0].n_z
    if any(g.n_z != n_z for g in gens):
        raise ValueError("generators disagree on n_z")
    # the wandering step refuses a leak past half the rank cutoff, so the
    # default orth_tol, above the default rank_tol, turns no pass into NotInvariant
    lat = TruncationLattice(1, n_z, 1)
    seeds = [FiberedField(lat, g.coeffs[None, :, None]) for g in gens]
    wander = wandering_range(closure_range(seeds, lat)).frames[0]
    if wander.shape[1] != 1:
        raise WanderingRankNotOne(
            f"wandering part has rank {wander.shape[1]}, expected 1")
    h = ScalarH2(wander[:, 0])
    return h, h.inner_defect()


@dataclass(frozen=True)
class InnerField(SymbolField):
    """A field of scalar inner functions over the lambda grid, held as the
    k = 1 symbol ``phi`` of shape (n_lambda, n_z, 1) stacked from ``fibers``:
    the describing field of a k = 1 decomposition is its symbol Phi. Fibers
    off the support must be exactly zero; each supported fiber's
    ``rigidity_defect`` against P = 1 is computed once, here, and a defect
    above the lattice's ``inner_tol`` raises NotInner at the worst fiber.
    """

    phi: np.ndarray = field(init=False, repr=False)
    fibers: tuple[ScalarH2, ...]
    support: frozenset[int]

    def __post_init__(self):
        lat = self.lattice
        if lat.k != 1:
            raise ValueError("inner fields require k = 1")
        support = frozenset(int(m) for m in self.support)
        if not support <= set(range(lat.n_lambda)):
            raise ValueError("support indices out of range")
        object.__setattr__(self, "fibers", tuple(self.fibers))
        object.__setattr__(self, "support", support)
        # one fiber of length n_z per grid point: the symbol's shape check
        object.__setattr__(self, "phi", np.stack([f.coeffs for f in self.fibers])[:, :, None])
        super().__post_init__()
        defects = np.zeros(lat.n_lambda)
        for m, phi in enumerate(self.phi):
            if m in support:
                defects[m] = rigidity_defect(phi, np.eye(1), lat.n_z, 1)
            elif np.any(phi != 0):
                raise ValueError(f"fiber {m} off the support is not zero")
        object.__setattr__(self, "_defects", frozen_array(defects, dtype=float))
        # argmax lands on the first NaN, which the negated test then fails
        worst_m = int(np.argmax(defects))
        if not defects[worst_m] <= lat.inner_tol:
            raise NotInner(f"inner defect {defects[worst_m]:.3e}", fiber=worst_m)

    def inner_defects(self) -> np.ndarray:
        """The per-fiber defects kept from construction (0 off the support)."""
        return self._defects


def phi_representation(res) -> InnerField:
    """The describing inner field of a k = 1 decomposition: phi(lambda_m) is
    the image of the constant function 1 under the fiber operator, which is
    the symbol Phi(lambda_m) itself. Supported exactly on the fibers of
    wandering rank 1, since Phi vanishes past the rank."""
    fibers = tuple(ScalarH2(phi[:, 0]) for phi in res.field.phi)
    return InnerField(res.lattice, fibers, frozenset(np.flatnonzero(res.ranks)))


def range_of_phi(phi: InnerField) -> RangeFunctionH:
    """The range function of the subspace phi multiplies out of the full
    Hardy space: per fiber, the range of F(lambda_m), whose columns are all
    n_z shifts of phi(lambda_m). Off the support phi is exactly zero, so
    those fibers span nothing."""
    return RangeFunctionH(phi.lattice, tuple(phi_range_frames(phi)))


def phi_range_frames(phi: InnerField):
    """The frames of ``range_of_phi(phi)``, bit for bit, made one fiber at
    a time as they are read, so a reader need not hold the range of phi."""
    for m in range(phi.lattice.n_lambda):
        yield orthonormal_frame(phi.op(m), phi.lattice.rank_tol, fiber=m)


def inner_quotient(phi1: InnerField, phi2: InnerField) -> InnerField:
    """The unimodular constant field relating two describing fields of the
    same subspace: psi with phi1(lambda_m) = psi(lambda_m) phi2(lambda_m).

    This is the k = 1 connecting field: per supported fiber the constant
    c = ``constant_unitary(phi2, phi1)`` sits at degree 0 of the symbol.
    Each c is held to the inner defect of the result, ||c|^2 - 1| <=
    inner_tol, and must reproduce phi1 within orth_tol (NotUnimodular
    otherwise, or RangesDiffer when the supports or the range functions
    differ).
    """
    lat = phi1.lattice
    if phi2.lattice != lat:
        raise ValueError("lattice mismatch")
    if phi1.support != phi2.support:
        raise RangesDiffer("supports differ")
    coeffs = np.zeros((lat.n_lambda, lat.n_z), dtype=complex)
    resid = np.zeros(lat.n_lambda)
    for m in phi1.support:
        u, _, resid[m] = constant_unitary(phi2.phi[m], phi1.phi[m])
        coeffs[m, 0] = u[0, 0]
    try:
        psi = InnerField(lat, tuple(map(ScalarH2, coeffs)), phi1.support)
    except NotInner as exc:
        m, msg = exc.fiber, f"quotient modulus {abs(coeffs[exc.fiber, 0]):.6f}"
    else:
        if not np.any(resid > lat.orth_tol):
            return psi
        m, msg = int(np.argmax(resid > lat.orth_tol)), "fibers are not unimodular multiples"
    r1, r2 = range_of_phi(phi1), range_of_phi(phi2)
    for j in range(lat.n_lambda):
        if subspace_distance(r1.frames[j], r2.frames[j]) > 10.0 * lat.orth_tol:
            raise RangesDiffer("range functions differ", fiber=j)
    raise NotUnimodular(msg, fiber=m)
