"""Frame calculus for per-fiber subspaces.

All subspaces are represented by matrices with orthonormal columns. Rank
decisions happen in exactly one place (``orthonormal_frame``), with a
relative singular value cutoff and a guard band that refuses ambiguous
inputs instead of silently committing to a rank.
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
    Gram-matrix eigenproblem always converges. The Gram route halves the
    accurate digits near the noise floor, which stays far below every
    cutoff this package decides at, and left vectors for negligible
    singular values are left as zero columns there (no caller selects
    them).
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
    w, v = np.linalg.eigh(b.conj().T @ b)
    order = np.argsort(w)[::-1]
    w = np.clip(w[order], 0.0, None)
    v = v[:, order]
    s = np.sqrt(w)
    # the columns b v_i are exactly orthogonal with norms s_i, so the kept
    # left vectors come from plain normalization (QR would rephase them)
    u = np.zeros((b.shape[0], v.shape[1]), dtype=complex)
    keep = s > (s[0] * 1e-14 if s.size else 0.0)
    if np.any(keep):
        u[:, keep] = (b @ v[:, keep]) / s[keep]
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
    sequence. With ``s`` omitted all columns count as tied.
    """
    if q.shape[1] == 0:
        return np.array(q, dtype=complex)
    q = _phase_normalize(q)
    if s is None:
        sv = np.zeros(q.shape[1])
    else:
        sv = np.asarray(s, dtype=float)
    # lexsort keys run least to most significant: the interleaved
    # (real, imag) rows break exact ties, -sv decides first
    interleaved = np.empty((2 * q.shape[0], q.shape[1]))
    interleaved[0::2] = q.real
    interleaved[1::2] = q.imag
    order = np.lexsort(np.vstack([interleaved[::-1], -sv[None, :]]))
    return q[:, order]


def orthonormal_frame(columns: np.ndarray, rank_tol: float,
                      fiber: int | None = None) -> np.ndarray:
    """Orthonormal basis for the span of ``columns`` (ambient x m).

    Singular values >= rank_tol * s_max are kept. If any singular value lies
    inside [0.5, 2] times the cutoff the rank decision is ambiguous and
    ToleranceAmbiguity is raised. An all-zero input yields an empty frame.
    """
    a = np.asarray(columns, dtype=complex)
    if a.ndim != 2:
        raise ValueError("columns must be a 2-d array")
    ambient = a.shape[0]
    if a.shape[1] == 0:
        return np.zeros((ambient, 0), dtype=complex)
    u, s, _ = robust_svd(a)
    smax = float(s[0]) if s.size else 0.0
    if smax == 0.0:
        return np.zeros((ambient, 0), dtype=complex)
    cutoff = rank_tol * smax
    in_band = (s >= 0.5 * cutoff) & (s <= 2.0 * cutoff)
    if np.any(in_band):
        worst = float(s[in_band][0])
        raise ToleranceAmbiguity(
            f"singular value {worst:.3e} inside guard band of cutoff {cutoff:.3e}",
            fiber=fiber,
        )
    rank = int(np.count_nonzero(s > cutoff))
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


def op_norm(a: np.ndarray) -> float:
    """Largest singular value (0 for the empty matrix), computed without
    singular vectors; a LAPACK failure falls back to ``robust_svd``."""
    if a.size == 0:
        return 0.0
    try:
        s = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError:
        s = robust_svd(a)[1]
    return float(s[0]) if s.size else 0.0


def herm_norm(a: np.ndarray) -> float:
    """2-norm of a Hermitian matrix via its extreme eigenvalues."""
    if a.size == 0:
        return 0.0
    try:
        return float(np.max(np.abs(np.linalg.eigvalsh(a))))
    except np.linalg.LinAlgError:
        return op_norm(a)


def subspace_distance(q1: np.ndarray, q2: np.ndarray) -> float:
    """Sine of the largest principal angle between two frames.

    Computed from projection residuals in both directions, which stays
    accurate for small angles. Frames of different ranks are at distance 1.
    """
    r1, r2 = q1.shape[1], q2.shape[1]
    if r1 != r2:
        return 1.0
    if r1 == 0:
        return 0.0
    d1 = op_norm(q2 - project_onto(q1, q2))
    d2 = op_norm(q1 - project_onto(q2, q1))
    return max(d1, d2)


def band_projector_distance(q1: np.ndarray, q2: np.ndarray, dim_keep: int) -> float:
    """``|| P_B (Q1 Q1* - Q2 Q2*) P_B ||_2`` with B the first dim_keep coordinates.

    Band-compressed comparison of the two spanned subspaces. No rank
    decisions are made, so the distance is meaningful even when one frame
    has directions that are numerically unreachable from the other.
    """
    a = q1[:dim_keep, :]
    b = q2[:dim_keep, :]
    if a.shape[1] == 0 and b.shape[1] == 0:
        return 0.0
    p1 = a @ a.conj().T if a.shape[1] else np.zeros((dim_keep, dim_keep), dtype=complex)
    p2 = b @ b.conj().T if b.shape[1] else np.zeros((dim_keep, dim_keep), dtype=complex)
    return herm_norm(p1 - p2)
