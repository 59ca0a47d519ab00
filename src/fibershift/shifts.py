"""The fiberwise shift on the truncated model.

Of the two commuting shifts only the fiberwise degree shift S has code
here: multiplication by z inside each fiber, which drops the top retained
coefficient and is therefore a nilpotent contraction of order n_z. The grid
rotation (multiplication by lambda) needs none: a range function is one
subspace per grid point, so it reduces the rotation by construction.
Invariance is measured on whole frames: with P_n the truncation,
P_n S P_n = P_n S, so the truncation of an S-invariant subspace is exactly
invariant under the truncated shift and dropping the top degree cannot
masquerade as a leak. The leak of one fiber is computed in ``shift_leak``
alone, from the C* that the wandering step decides on, and both the
invariance verdict and the wandering step read it. Fields
are stored as symbols, whose shifted copies make up the fiber operators, so
they commute with both shifts by construction and need no commutation check.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .fields import FiberedField
from .lattice import frozen_array

if TYPE_CHECKING:  # ranges imports this module
    from .ranges import RangeFunctionH


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
    ``ranges.closure_range`` spans the same columns without these fields.
    """
    out: list[FiberedField] = []
    for g, count in zip(gens, closure_counts(gens)):
        f = g
        for _ in range(count):
            out.append(f)
            f = apply_S_hat(f)
    return out


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


def compressed_shift_adjoint(frame: np.ndarray, n_z: int, k: int) -> np.ndarray:
    """C* for the compression C = Q* S Q of the fiber shift to span(Q). S Q
    is Q one degree block down, so C* = Q[:(n_z-1)k]* Q[k:]."""
    return frame[: (n_z - 1) * k].conj().T @ frame[k:]


def shift_leak(frame: np.ndarray, n_z: int, k: int,
               c_star: np.ndarray | None = None) -> float:
    """``||S Q - Q C||_F`` with C = Q* S Q: the part of the shifted frame
    outside span(Q). It vanishes exactly when span(Q) is S-invariant. A
    caller that already holds ``c_star``, the frame's C*, passes it in."""
    if frame.shape[1] == 0:
        return 0.0
    if c_star is None:
        c_star = compressed_shift_adjoint(frame, n_z, k)
    # Q C - S Q, with S Q the frame one degree block down
    d = frame @ c_star.conj().T
    d[k:] -= frame[: (n_z - 1) * k]
    return float(np.linalg.norm(d))


def shift_leaks(range_fn: RangeFunctionH, measured=None) -> np.ndarray:
    """Per-fiber ``shift_leak`` of a range function, kept on the immutable
    object; the wandering step passes in the leaks it ``measured``, so a
    command that also reports the leak computes it once."""
    leaks = range_fn.__dict__.get("_shift_leaks")
    if leaks is None:
        if measured is None:
            lat = range_fn.lattice
            measured = [shift_leak(q, lat.n_z, lat.k) for q in range_fn.frames]
        leaks = frozen_array(measured, dtype=float)
        object.__setattr__(range_fn, "_shift_leaks", leaks)
    return leaks


def is_S_invariant(range_fn: RangeFunctionH) -> tuple[bool, float]:
    """Whether every fiber subspace is invariant under the fiber shift.

    Returns (max leak <= orth_tol, max leak), the leak being the Frobenius
    norm ``shift_leak`` of each whole fiber frame.
    """
    return leak_verdict(shift_leaks(range_fn), range_fn.lattice.orth_tol)


def leak_verdict(leaks, orth_tol: float) -> tuple[bool, float]:
    """(max leak <= orth_tol, max leak) over per-fiber shift leaks."""
    worst = float(np.max(leaks))
    return worst <= orth_tol, worst
