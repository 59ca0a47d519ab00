"""Shift operators on the truncated model.

Two shifts act on fields: rotation of the grid variable (multiplication by
lambda, exactly unitary on the discrete grid) and the fiberwise degree shift
(multiplication by z inside each fiber, which drops the top retained
coefficient and is therefore a nilpotent contraction of order n_z). The top
degree slice is where truncation lies; checks that quantify shift behavior
are restricted to columns whose shifted image stays at degree <= n_z - 2,
where the fiber shift acts exactly isometrically.
"""

from __future__ import annotations

import functools

import numpy as np

from .fields import FiberedField
from .lattice import TruncationLattice
from .ranges import OperatorField, RangeFunctionH
from .subspaces import DEGREE_TOL, op_norm, project_onto


def apply_U(f: FiberedField) -> FiberedField:
    """Multiply fiber m by lambda_m. Exactly unitary."""
    lam = f.lattice.lambdas()
    return FiberedField(f.lattice, f.data * lam[:, None, None])


def apply_U_star(f: FiberedField) -> FiberedField:
    """Multiply fiber m by conj(lambda_m); exact inverse of apply_U."""
    lam = np.conj(f.lattice.lambdas())
    return FiberedField(f.lattice, f.data * lam[:, None, None])


def shift_fiber(v: np.ndarray) -> np.ndarray:
    """Fiber shift: coefficient of z^j moves to z^{j+1}, top degree dropped."""
    out = np.zeros_like(np.asarray(v, dtype=complex))
    out[1:] = v[:-1]
    return out


def shift_star_fiber(v: np.ndarray) -> np.ndarray:
    """Adjoint fiber shift: coefficient of z^{j+1} moves to z^j. Exact."""
    out = np.zeros_like(np.asarray(v, dtype=complex))
    out[:-1] = v[1:]
    return out


def apply_S_hat(f: FiberedField) -> FiberedField:
    """Fiberwise shift applied at every grid point."""
    data = np.zeros_like(f.data)
    data[:, 1:] = f.data[:, :-1]
    return FiberedField(f.lattice, data)


def shat_closure(gens: list[FiberedField]) -> list[FiberedField]:
    """Generators together with all their nonzero fiberwise shift iterates.

    The fiber shift is nilpotent of order n_z, so the closure is finite; a
    range function built from the closure is shift invariant by construction.
    """
    out: list[FiberedField] = []
    for g in gens:
        f = g
        for _ in range(g.lattice.n_z):
            if not np.any(f.data):
                break
            out.append(f)
            f = apply_S_hat(f)
    return out


@functools.lru_cache(maxsize=None)
def _shift_matrix(n_z: int, k: int) -> np.ndarray:
    n = np.zeros((n_z, n_z))
    n[np.arange(1, n_z), np.arange(n_z - 1)] = 1.0
    s = np.kron(n, np.eye(k)).astype(complex)
    s.setflags(write=False)
    return s


def shift_matrix(lattice: TruncationLattice) -> np.ndarray:
    """The fiber shift as an ambient matrix on flattened fibers."""
    return _shift_matrix(lattice.n_z, lattice.k)


def shift_columns(cols: np.ndarray, n_z: int, k: int) -> np.ndarray:
    """Fiber shift applied to each flattened column of a matrix."""
    out = np.zeros_like(np.asarray(cols, dtype=complex))
    out[k:, :] = cols[: (n_z - 1) * k, :]
    return out


def _band_columns(frame: np.ndarray, n_z: int, k: int) -> np.ndarray:
    """Columns whose effective degree keeps the shifted image below the top.

    Those are the columns with no coefficient above DEGREE_TOL at the top two
    degrees; a frame column is never zero, so this is degree <= n_z - 3.
    """
    top = np.abs(frame[max(n_z - 2, 0) * k:]) > DEGREE_TOL
    return frame[:, ~top.any(axis=0)]


def is_S_invariant(range_fn: RangeFunctionH) -> tuple[bool, float]:
    """Whether every fiber subspace is invariant under the fiber shift.

    The leak at fiber m is the operator norm of (I - P) S applied to the
    frame columns whose shifted degree stays at most n_z - 2, so truncation
    cannot masquerade as a leak. Returns (max leak <= orth_tol, max leak).
    """
    lat = range_fn.lattice
    worst = 0.0
    for m in range(lat.n_lambda):
        q = range_fn.frames[m]
        if q.shape[1] == 0:
            continue
        band = _band_columns(q, lat.n_z, lat.k)
        if band.shape[1] == 0:
            continue
        shifted = shift_columns(band, lat.n_z, lat.k)
        leak = op_norm(shifted - project_onto(q, shifted))
        worst = max(worst, leak)
    return worst <= lat.orth_tol, worst


def commutation_defect(f: np.ndarray, n_z: int, k: int) -> float:
    """``||F S - S F||`` on inputs and outputs of degree <= n_z - 2, read off
    slices of F. The SVD runs only when the difference is not exactly zero,
    which it is when the columns of F are shifted copies of its first block.
    """
    dim = (n_z - 1) * k
    d = f[:dim, k:].copy()
    d[k:] -= f[: dim - k, :dim]
    return op_norm(d) if np.any(d) else 0.0


def commutes_with_S(field_op: OperatorField) -> tuple[bool, float]:
    """Whether the operator field commutes with the fiber shift on the band.

    The defect at fiber m is ``commutation_defect`` of F(lambda_m): the band
    is where the truncated shift is exact. Commutation with the grid rotation
    is structural for operator fields and needs no check.
    """
    lat = field_op.lattice
    worst = max(commutation_defect(f, lat.n_z, lat.k) for f in field_op.ops)
    return worst <= lat.orth_tol, worst
