"""Truncation lattice: the finite grid on which all computations live.

A lattice fixes n_lambda equispaced points on the unit circle (the fiber
grid), the retained z-degrees 0..n_z-1 inside each fiber, and the coordinate
dimension k of the fiber value space. Fibers are elements of C^{n_z x k},
flattened row-major so coefficient (j, i) sits at index j*k + i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TruncationLattice:
    """Grid sizes and numerical tolerances for one problem instance.

    Parameters
    ----------
    n_lambda : number of grid points on the circle, lambda_m = exp(2 pi i m / n_lambda)
    n_z : number of retained z-degrees per fiber
    k : dimension of the fiber coordinate space
    rank_tol : relative singular value cutoff for rank decisions
    orth_tol : residual tolerance for orthogonality and membership checks
    inner_tol : bound on the inner defect of a k = 1 inner function
    """

    n_lambda: int
    n_z: int
    k: int
    rank_tol: float = 1e-9
    orth_tol: float = 1e-8
    inner_tol: float = 1e-6

    def __post_init__(self):
        if self.n_lambda < 1 or self.n_z < 1 or self.k < 1:
            raise ValueError("lattice sizes must be positive")
        for name in ("rank_tol", "orth_tol", "inner_tol"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {getattr(self, name)}")

    @property
    def ambient(self) -> int:
        """Dimension n_z * k of one flattened fiber."""
        return self.n_z * self.k

    def lambda_power(self, p: int) -> np.ndarray:
        """lambda_m ** p for every m, with the exponent reduced on the grid.

        Reducing m*p modulo n_lambda before exponentiating keeps the values
        on the canonical grid angles, so repeated evaluations are bitwise
        reproducible. p is reduced first, in exact integer arithmetic, so
        an exponent of any size cannot overflow the product.
        """
        m = (np.arange(self.n_lambda) * (int(p) % self.n_lambda)) % self.n_lambda
        return np.exp(2j * np.pi * m / self.n_lambda)


def frozen_array(a: np.ndarray, dtype=complex) -> np.ndarray:
    """A read-only array of ``dtype`` holding ``a``. An array that owns its
    memory is made C-contiguous and frozen in place (the caller's array
    turns read-only). A view of read-only memory, whose base owns that
    memory and cannot be written, is kept as it is, so fields cut from one
    frozen buffer share it. Any other view is copied, so writes to its base
    cannot reach it."""
    out = np.asarray(a, dtype=dtype)
    base = out.base
    if isinstance(base, np.ndarray) and base.flags.owndata and not base.flags.writeable:
        return out
    out = np.ascontiguousarray(out)
    if not out.flags.owndata:
        out = out.copy()
    out.setflags(write=False)
    return out
