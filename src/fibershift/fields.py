"""Fields over the circle grid and exact trigonometric-polynomial evaluation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CoordinateOverflow, DegreeOverflow
from .lattice import TruncationLattice, frozen_array


def z_degree(coeffs: np.ndarray, tol: float = 0.0) -> int:
    """Largest z-degree with a coefficient above ``tol`` in modulus, or -1.

    ``coeffs`` is a single fiber of shape (n_z, k) or a flattened column of
    length n_z*k together with the lattice's k implied by its shape.
    """
    v = np.asarray(coeffs)
    if v.ndim == 1:
        v = v[:, None]
    mags = np.max(np.abs(v), axis=1)
    nz = np.flatnonzero(mags > tol)
    return int(nz[-1]) if nz.size else -1


@dataclass(frozen=True)
class FiberedField:
    """A map from grid points to truncated fibers.

    ``data`` has shape (n_lambda, n_z, k); entry [m, j, i] is the coefficient
    of z^j in coordinate i+1 of the fiber at lambda_m. It is stored read-only
    by ``frozen_array``: a view of read-only memory (a ``shat_closure``
    shift) is kept as a view, any other view is copied, and ``flat()`` is a
    view of ``data`` either way.
    """

    lattice: TruncationLattice
    data: np.ndarray

    def __post_init__(self):
        lat = self.lattice
        expected = (lat.n_lambda, lat.n_z, lat.k)
        if tuple(self.data.shape) != expected:
            raise ValueError(f"field data must have shape {expected}")
        object.__setattr__(self, "data", frozen_array(self.data))

    def fiber(self, m: int) -> np.ndarray:
        """Fiber at grid index m, shape (n_z, k)."""
        return self.data[m]

    def flat(self) -> np.ndarray:
        """All fibers flattened, shape (n_lambda, n_z*k)."""
        return self.data.reshape(self.lattice.n_lambda, self.lattice.ambient)


@dataclass(frozen=True)
class LaurentPolyField:
    """Exact trigonometric-polynomial data for a field.

    Terms are (m, j, i, c): the monomial c * lambda^m * z^j in fiber
    coordinate i (1-based). Powers m may be any integers; j must lie in
    0..n_z-1 and i in 1..k at evaluation time.
    """

    terms: tuple[tuple[int, int, int, complex], ...]

    def __init__(self, terms: Sequence[Sequence]):
        normalized = tuple(
            (int(m), int(j), int(i), complex(c)) for (m, j, i, c) in terms
        )
        object.__setattr__(self, "terms", normalized)


def eval_field(poly: LaurentPolyField, lattice: TruncationLattice) -> FiberedField:
    """Evaluate a Laurent-polynomial field on the lattice.

    Evaluation is term-by-term with grid-canonical powers of lambda, so the
    result is exact up to machine rounding and bitwise reproducible.

    Raises
    ------
    DegreeOverflow : a term's z-power falls outside 0..n_z-1
    CoordinateOverflow : a term's coordinate falls outside 1..k
    """
    data = np.zeros((lattice.n_lambda, lattice.n_z, lattice.k), dtype=complex)
    for (m, j, i, c) in poly.terms:
        if not (0 <= j < lattice.n_z):
            raise DegreeOverflow(f"z-power {j} outside 0..{lattice.n_z - 1}")
        if not (1 <= i <= lattice.k):
            raise CoordinateOverflow(f"coordinate {i} outside 1..{lattice.k}")
        data[:, j, i - 1] += c * lattice.lambda_power(m)
    return FiberedField(lattice, data)
