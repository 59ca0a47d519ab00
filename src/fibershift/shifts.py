"""The fiberwise shift on the truncated model.

Of the two commuting shifts only the fiberwise degree shift S has code
here: multiplication by z inside each fiber, which drops the top retained
coefficient and is therefore a nilpotent contraction of order n_z. The grid
rotation (multiplication by lambda) needs none: a range function is one
subspace per grid point, so it reduces the rotation by construction.
Invariance is measured on whole frames: with P_n the truncation,
P_n S P_n = P_n S, so the truncation of an S-invariant subspace is exactly
invariant under the truncated shift and dropping the top degree cannot
masquerade as a leak. Each product of the fiber shift has one home:
``shifted_copies`` stacks shifted columns, and ``shift_leak`` forms a
frame's compression C* together with its leak. A range function keeps its
per-fiber leaks (``RangeFunctionH.shift_leaks``), which the invariance
verdict reads and the wandering step fills from the C* it decides on.
Fields are stored as symbols, whose shifted copies make up the fiber
operators, so they commute with both shifts by construction and need no
commutation check.
"""

from __future__ import annotations

import numpy as np

from .fields import FiberedField


def apply_S_hat(f: FiberedField) -> FiberedField:
    """Fiberwise shift applied at every grid point."""
    data = np.zeros_like(f.data)
    data[:, 1:] = f.data[:, :-1]
    return FiberedField(f.lattice, data)


def closure_counts(gens: list[FiberedField]) -> list[int]:
    """Number of nonzero fiberwise shift iterates of each generator: n_z
    minus the lowest z-degree with a nonzero coefficient on any fiber, and 0
    for a zero generator."""
    counts = []
    for g in gens:
        degrees = np.flatnonzero(np.any(g.data, axis=(0, 2)))
        counts.append(g.lattice.n_z - int(degrees[0]) if degrees.size else 0)
    return counts


def shat_closure(gens: list[FiberedField]) -> list[FiberedField]:
    """Generators together with all their nonzero fiberwise shift iterates,
    generator by generator, each followed by its shifts.

    The fiber shift is nilpotent of order n_z, so the closure is finite; a
    range function built from the closure is shift invariant by construction.
    Each generator is written once, behind n_z zero degrees, into a
    read-only buffer of shape (n_lambda, 2 n_z, k), and its j-th shift is
    the view of that buffer starting j degrees before the generator: bit
    for bit ``apply_S_hat`` applied j times, at the cost of two copies of
    the generator rather than one per shift. Every span of the closure
    (``ranges.closure_range`` and the CLI's) is a span of these fields.
    """
    out: list[FiberedField] = []
    for g, count in zip(gens, closure_counts(gens)):
        n_z = g.lattice.n_z
        buf = np.zeros((g.lattice.n_lambda, 2 * n_z, g.lattice.k), dtype=complex)
        buf[:, n_z:] = g.data
        buf.setflags(write=False)
        out += [FiberedField(g.lattice, buf[:, n_z - j: 2 * n_z - j]) for j in range(count)]
    return out


def shifted_copies(cols: np.ndarray, n_z: int, k: int) -> np.ndarray:
    """``[cols, S cols, ..., S^(n_z-1) cols]`` side by side, degree-major:
    column j*r + i is the i-th of the r columns shifted j times. Every stack
    of shifted columns is built here; F(lambda_m) is the stack of all n_z
    shifts of its symbol's k columns."""
    cols = np.asarray(cols, dtype=complex)
    r = cols.shape[1]
    out = np.zeros((cols.shape[0], n_z * r), dtype=complex)
    for j in range(n_z):
        out[j * k:, j * r:(j + 1) * r] = cols[: (n_z - j) * k]
    return out


def shift_leak(frame: np.ndarray, n_z: int, k: int) -> tuple[float, np.ndarray]:
    """``(leak, c_star)`` of a frame Q: C* for the compression C = Q* S Q of
    the fiber shift to span(Q), and the leak ``||S Q - Q C||_F``, the part
    of the shifted frame outside span(Q). S Q is Q one degree block down,
    so C* = Q[:(n_z-1)k]* Q[k:]. The leak vanishes exactly when span(Q) is
    S-invariant, and reads 0.0 on an empty frame."""
    c_star = frame[: (n_z - 1) * k].conj().T @ frame[k:]
    # Q C - S Q, with S Q the frame one degree block down
    d = frame @ c_star.conj().T
    d[k:] -= frame[: (n_z - 1) * k]
    return float(np.linalg.norm(d)), c_star


def is_S_invariant(range_fn) -> tuple[bool, float]:
    """Whether every fiber subspace is invariant under the fiber shift.

    Returns (max leak <= orth_tol, max leak), the leak being the Frobenius
    norm ``shift_leak`` of each whole fiber frame (``range_fn.shift_leaks``).
    """
    return leak_verdict(range_fn.shift_leaks, range_fn.lattice.orth_tol)


def leak_verdict(leaks, orth_tol: float) -> tuple[bool, float]:
    """(max leak <= orth_tol, max leak) over per-fiber shift leaks."""
    worst = float(np.max(leaks))
    return worst <= orth_tol, worst
