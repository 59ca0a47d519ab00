"""Shift operators on the truncated model.

Two shifts act on fields: rotation of the grid variable (multiplication by
lambda, exactly unitary on the discrete grid) and the fiberwise degree shift
(multiplication by z inside each fiber, which drops the top retained
coefficient and is therefore a nilpotent contraction of order n_z).
Invariance is measured on whole frames: with P_n the truncation,
P_n S P_n = P_n S, so the truncation of an S-invariant subspace is exactly
invariant under the truncated shift and dropping the top degree cannot
masquerade as a leak. The leak of one fiber is computed in ``shift_leak``
alone; the invariance verdict and the wandering step both read it. Fields
are stored as symbols, whose shifted copies make up the fiber operators, so
they commute with both shifts by construction and need no commutation check.
"""

from __future__ import annotations

import functools

import numpy as np

from .fields import FiberedField
from .lattice import TruncationLattice, frozen_array
from .ranges import RangeFunctionH


def apply_U(f: FiberedField) -> FiberedField:
    """Multiply fiber m by lambda_m. Exactly unitary."""
    lam = f.lattice.lambdas()
    return FiberedField(f.lattice, f.data * lam[:, None, None])


def apply_U_star(f: FiberedField) -> FiberedField:
    """Multiply fiber m by conj(lambda_m); exact inverse of apply_U."""
    lam = np.conj(f.lattice.lambdas())
    return FiberedField(f.lattice, f.data * lam[:, None, None])


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


def shifted_copies(cols: np.ndarray, n_z: int, k: int, count: int) -> np.ndarray:
    """``[cols, S cols, ..., S^(count-1) cols]`` side by side, degree-major:
    column j*r + i is the i-th of the r columns shifted j times. Every stack
    of shifted columns is built here; F(lambda_m) is the stack of all n_z
    shifts of its symbol's k columns."""
    cols = np.asarray(cols, dtype=complex)
    r = cols.shape[1]
    out = np.zeros((cols.shape[0], count * r), dtype=complex)
    for j in range(min(count, n_z)):
        out[j * k:, j * r:(j + 1) * r] = cols[: (n_z - j) * k]
    return out


def shift_leak(frame: np.ndarray, n_z: int, k: int) -> float:
    """``||S Q - Q C||_F`` with C = Q* S Q: the part of the shifted frame
    outside span(Q). It vanishes exactly when span(Q) is S-invariant."""
    if frame.shape[1] == 0:
        return 0.0
    c_star = frame[: (n_z - 1) * k].conj().T @ frame[k:]
    # Q C - S Q, with S Q the frame one degree block down
    d = frame @ c_star.conj().T
    d[k:] -= frame[: (n_z - 1) * k]
    return float(np.linalg.norm(d))


def shift_leaks(range_fn: RangeFunctionH) -> np.ndarray:
    """Per-fiber ``shift_leak`` of a range function. Range functions are
    immutable, so the array is kept on the object: a command that reports
    the leak and then takes the wandering part computes it once."""
    leaks = range_fn.__dict__.get("_shift_leaks")
    if leaks is None:
        lat = range_fn.lattice
        leaks = frozen_array([shift_leak(q, lat.n_z, lat.k) for q in range_fn.frames],
                             dtype=float)
        object.__setattr__(range_fn, "_shift_leaks", leaks)
    return leaks


def is_S_invariant(range_fn: RangeFunctionH) -> tuple[bool, float]:
    """Whether every fiber subspace is invariant under the fiber shift.

    Returns (max leak <= orth_tol, max leak), the leak being the Frobenius
    norm ``shift_leak`` of each whole fiber frame.
    """
    worst = float(shift_leaks(range_fn).max())
    return worst <= range_fn.lattice.orth_tol, worst
