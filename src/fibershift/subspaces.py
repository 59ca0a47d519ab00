"""Frame calculus for per-fiber subspaces.

All subspaces are represented by matrices with orthonormal columns. Rank
decisions happen in exactly one place (``rank_decision``), with a relative
singular value cutoff and a guard band that refuses ambiguous inputs
instead of silently committing to a rank.
"""

from __future__ import annotations

import numpy as np

from .errors import ToleranceAmbiguity

# Coefficients at or below this magnitude are treated as zero when reading
# effective z-degrees off numerical frames. Frames produced by SVD carry
# ~1e-16 junk in every entry; a fixed floor well above that and well below
# every working tolerance keeps band bookkeeping stable.
DEGREE_TOL = 1e-12

# First entry used for column phase normalization must exceed this.
PHASE_TOL = 1e-12

# Relative singular values the Gram-matrix fallback of robust_svd resolves
# (above RESOLVED) or reads as rounded exact zeros (below ZERO_FLOOR).
RESOLVED = 1e-7
ZERO_FLOOR = 1e-12


def _phase_normalize(q: np.ndarray) -> np.ndarray:
    """Rotate each column so its first entry above PHASE_TOL is real positive."""
    q = np.array(q, dtype=complex)
    if q.size == 0:
        return q
    big = np.abs(q) > PHASE_TOL
    # argmax picks the first True per column; columns with no entry above
    # the floor get phase 1 (argmax lands on row 0 there, masked out below)
    first = big.argmax(axis=0)
    pivots = q[first, np.arange(q.shape[1])]
    phases = np.ones(q.shape[1], dtype=complex)
    hit = big.any(axis=0)
    phases[hit] = np.conj(pivots[hit]) / np.abs(pivots[hit])
    return q * phases[None, :]


def robust_svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD that survives LAPACK divide-and-conquer failures.

    gesdd sporadically refuses to converge on valid near-rank-deficient
    input. The transposed problem usually succeeds; failing that, the
    Gram-matrix eigenproblem always converges. Its eigenvectors are the
    right singular vectors of the tall orientation, null space included;
    the singular values are the norms ||b v_i|| (square roots of the
    eigenvalues would lift exact zeros to about 1e-8 * s_max). Eigenvalue
    errors near eps * s_max**2 leave values below RESOLVED * s_max
    unseparated, so a value read between ZERO_FLOOR and RESOLVED times
    s_max raises LinAlgError. Left vectors of the resolved values come from
    a QR of the columns b v_i, rephased to b v_i / s_i; those of the zeros
    are zero columns (no caller selects them).
    """
    a = np.asarray(a, dtype=complex)
    try:
        return np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError:
        pass
    try:
        u, s, vh = np.linalg.svd(a.conj().T, full_matrices=False)
        return vh.conj().T, s, u.conj().T
    except np.linalg.LinAlgError:
        pass
    tall = a.shape[0] >= a.shape[1]
    b = a if tall else a.conj().T
    _, v = np.linalg.eigh(b.conj().T @ b)
    bv = b @ v
    s = np.linalg.norm(bv, axis=0)
    order = np.argsort(s)[::-1]
    s, v, bv = s[order], v[:, order], bv[:, order]
    smax = float(s[0]) if s.size else 0.0
    if np.any((s > ZERO_FLOOR * smax) & (s <= RESOLVED * smax)):
        raise np.linalg.LinAlgError(
            "SVD fallback cannot resolve singular values below "
            f"{RESOLVED:.0e} * s_max")
    keep = s > RESOLVED * smax
    q, r = np.linalg.qr(bv[:, keep])
    d = np.diagonal(r)
    u = np.zeros((b.shape[0], v.shape[1]), dtype=complex)
    u[:, keep] = q * (d / np.abs(d))[None, :]
    if tall:
        return u, s, v.conj().T
    return v, s, u.conj().T


def complement_frame(frame: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of span(frame).

    Householder QR completion, which has no convergence failure mode. The
    frame must already have orthonormal columns.
    """
    dim, r = frame.shape
    if r == 0:
        return np.eye(dim, dtype=complex)
    if r >= dim:
        return np.zeros((dim, 0), dtype=complex)
    q, _ = np.linalg.qr(frame, mode="complete")
    return q[:, r:]


def canonical_columns(q: np.ndarray, s: np.ndarray | None = None) -> np.ndarray:
    """Deterministic basis convention for a frame.

    Columns are phase normalized, then ordered by decreasing singular value
    with exact ties broken lexicographically on the (real, imag) coefficient
    sequence. With ``s`` omitted all columns count as tied. The result is
    C-contiguous, so range functions store it without a copy."""
    if q.shape[1] == 0:
        return np.array(q, dtype=complex)
    q = _phase_normalize(q)
    sv = np.zeros(q.shape[1]) if s is None else np.asarray(s, dtype=float)
    order = np.argsort(-sv, kind="stable")
    # tied[i]: sorted positions i and i + 1 hold equal values (np.unique
    # would find the runs too, but imports numpy.ma, about 1 MB resident)
    tied = np.diff(sv[order]) == 0
    if not tied.any():
        return np.take(q, order, axis=1)
    # only columns in a run of tied values move, in one lexsort over them.
    # Its keys run least to most significant: the last is the run (numbered
    # in sorted order), then row 0's real and imaginary parts, row 1's, and
    # so on. The stable sort left each run in index order, which lexsort
    # keeps for identical columns
    in_run = np.concatenate(([False], tied)) | np.concatenate((tied, [False]))
    pos = np.flatnonzero(in_run)
    cols = order[pos]
    block = np.take(q, cols, axis=1)[::-1]
    keys = np.empty((2 * q.shape[0] + 1, cols.size))
    keys[0:-1:2] = block.imag
    keys[1:-1:2] = block.real
    keys[-1] = np.cumsum(np.concatenate(([True], ~tied)))[pos]
    order[pos] = cols[np.lexsort(keys)]
    return np.take(q, order, axis=1)


def rank_decision(s: np.ndarray, rank_tol: float, fiber: int | None = None) -> int:
    """Number of singular values above ``rank_tol * max(s)``.

    ``s`` holds singular values in decreasing order. If any lies inside
    [0.5, 2] times the cutoff the decision is ambiguous and
    ToleranceAmbiguity is raised. Empty or all-zero input has rank 0; a
    non-finite value raises LinAlgError.
    """
    if not np.all(np.isfinite(s)):
        raise np.linalg.LinAlgError("non-finite singular value")
    smax = float(s[0]) if len(s) else 0.0
    if smax == 0.0:
        return 0
    cutoff = rank_tol * smax
    in_band = (s >= 0.5 * cutoff) & (s <= 2.0 * cutoff)
    if np.any(in_band):
        worst = float(s[in_band][0])
        raise ToleranceAmbiguity(
            f"singular value {worst:.3e} inside guard band of cutoff {cutoff:.3e}",
            fiber=fiber,
        )
    return int(np.count_nonzero(s > cutoff))


def orthonormal_frame(columns: np.ndarray, rank_tol: float,
                      fiber: int | None = None) -> np.ndarray:
    """Orthonormal basis for the span of ``columns`` (ambient x m).

    The rank comes from ``rank_decision`` on the singular values of the
    columns (ToleranceAmbiguity inside the guard band). An all-zero input
    yields an empty frame.
    """
    a = np.asarray(columns, dtype=complex)
    if a.ndim != 2:
        raise ValueError("columns must be a 2-d array")
    if a.shape[1] == 0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    u, s, _ = robust_svd(a)
    rank = rank_decision(s, rank_tol, fiber)
    return canonical_columns(u[:, :rank], s[:rank])


def project_onto(frame: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Orthogonal projection of column vectors onto span(frame)."""
    if frame.shape[1] == 0:
        return np.zeros_like(vectors)
    return frame @ (frame.conj().T @ vectors)


def residual_norms(frame: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Column-wise norms of (I - P_frame) vectors."""
    r = vectors - project_onto(frame, vectors)
    return np.linalg.norm(r, axis=0)


def singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values in decreasing order, computed without singular
    vectors; a LAPACK failure falls back to ``robust_svd``."""
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError:
        return robust_svd(a)[1]


def subspace_distance(q1: np.ndarray, q2: np.ndarray) -> float:
    """Frobenius distance ||q2 - q1 (q1* q2)||_F between two frames.

    For orthonormal frames of equal rank this is the root sum of squared
    sines of the principal angles; it is symmetric, since
    ||(I - P1) Q2||_F^2 = r - ||Q1* Q2||_F^2 = ||(I - P2) Q1||_F^2, and at
    least the sine of the largest angle. The value lies in [0, sqrt(r)]
    for rank r, not in [0, 1]: two orthogonal planes read sqrt(2). Frames
    of different ranks read 1.0, a sentinel that fails any tolerance gate,
    not the largest distance; two empty frames read 0.
    """
    if q1.shape[1] != q2.shape[1]:
        return 1.0
    return float(np.linalg.norm(q2 - project_onto(q1, q2)))
