"""Shared builders for the test suite.

Every random input comes from an explicitly seeded generator. The desk-scale
generator recipe keeps all singular value ladders orders of magnitude away
from the rank cutoff's guard band: direction columns are orthonormal, scalar
symbols are products of root factors with moduli in [0.1, 0.4] or [2.5, 4.0],
and rank variation over the grid comes from factors that vanish exactly on a
subgroup. Seeds are Laurent-term data so the same objects serialize into
problem files without loss.
"""

from __future__ import annotations

import contextlib
import functools
import io
from typing import Iterable

import numpy as np

from fibershift import (FiberedField, LaurentPolyField, RangeFunctionH,
                        TruncationLattice, eval_field)
from fibershift.cli import main as cli_main


@functools.lru_cache(maxsize=None)
def _shift_matrix(n_z: int, k: int) -> np.ndarray:
    n = np.zeros((n_z, n_z))
    n[np.arange(1, n_z), np.arange(n_z - 1)] = 1.0
    s = np.kron(n, np.eye(k)).astype(complex)
    s.setflags(write=False)
    return s


def shift_matrix(lattice: TruncationLattice) -> np.ndarray:
    """The fiber shift as an ambient matrix on flattened fibers: the dense
    reference for the library's shifted copies and leaks."""
    return _shift_matrix(lattice.n_z, lattice.k)


def field_from_fibers(lattice: TruncationLattice, fibers: Iterable[np.ndarray]) -> FiberedField:
    """Stack per-fiber (n_z, k) arrays into a field."""
    data = np.stack([np.asarray(f, dtype=complex) for f in fibers])
    return FiberedField(lattice, data)


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def haar_frame(rng: np.random.Generator, dim: int, r: int) -> np.ndarray:
    a = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
    q, _ = np.linalg.qr(a)
    return q[:, :r]


def laurent_seeds(rng: np.random.Generator, lat: TruncationLattice, r: int,
                  vanish: bool = True) -> list[LaurentPolyField]:
    """r generator seeds with z-degree at most 6 and orthonormal directions,
    so r <= k (ValueError otherwise, before anything is drawn)."""
    if r > lat.k:
        raise ValueError(f"{r} seeds need {r} orthonormal directions, k = {lat.k}")
    u = haar_unitary(rng, lat.k)
    out = []
    for i in range(r):
        p = int(rng.integers(0, 4))
        n_in = int(rng.integers(0, 2))
        n_out = int(rng.integers(0, 3))
        poly = {(0, p): 1.0 + 0.0j}
        for lo, hi in ((0.1, 0.4),) * n_in + ((2.5, 4.0),) * n_out:
            rho = (lo + (hi - lo) * rng.random()) * np.exp(2j * np.pi * rng.random())
            e = int(rng.integers(-2, 3))
            new: dict[tuple[int, int], complex] = {}
            for (m, j), c in poly.items():
                new[(m, j + 1)] = new.get((m, j + 1), 0.0) + c
                new[(m + e, j)] = new.get((m + e, j), 0.0) - rho * c
            poly = new
        e0 = int(rng.integers(-2, 3))
        poly = {(m + e0, j): c for (m, j), c in poly.items()}
        if vanish and rng.random() < 0.35:
            t = lat.n_lambda // int(rng.choice([2, 4]))
            new = {}
            for (m, j), c in poly.items():
                new[(m + t, j)] = new.get((m + t, j), 0.0) + 0.5 * c
                new[(m, j)] = new.get((m, j), 0.0) - 0.5 * c
            poly = new
        terms = [(m, j, i2 + 1, c * u[i2, i])
                 for (m, j), c in sorted(poly.items())
                 for i2 in range(lat.k)]
        out.append(LaurentPolyField(terms))
    return out


def grid_seeds(rng: np.random.Generator, lat: TruncationLattice, r: int,
               vanish: bool = True) -> list[FiberedField]:
    return [eval_field(p, lat) for p in laurent_seeds(rng, lat, r, vanish)]


def write_problem(path, lat: TruncationLattice,
                  polys: list[LaurentPolyField]) -> None:
    lines = ["schema: fibershift-problem/1",
             f"n_lambda: {lat.n_lambda}", f"n_z: {lat.n_z}", f"k: {lat.k}"]
    for g, poly in enumerate(polys):
        lines.append(f"generator: g{g}")
        for (m, j, i, c) in poly.terms:
            lines.append(f"term: {m} {j} {i} {c.real!r} {c.imag!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


def brute_projector(cols: np.ndarray, rcond: float = 1e-10) -> np.ndarray:
    """Projector onto a raw column span, by pseudoinverse."""
    if cols.shape[1] == 0:
        return np.zeros((cols.shape[0], cols.shape[0]), dtype=complex)
    return cols @ np.linalg.pinv(cols, rcond=rcond)


def frame_projector(frame: np.ndarray) -> np.ndarray:
    return frame @ frame.conj().T


def band_projector_distance(q1: np.ndarray, q2: np.ndarray, dim_keep: int) -> float:
    """``|| P_B (Q1 Q1* - Q2 Q2*) P_B ||_2`` with B the first dim_keep
    coordinates: the two spans compared on a band, by dense projectors."""
    a, b = q1[:dim_keep], q2[:dim_keep]
    return float(np.linalg.norm(frame_projector(a) - frame_projector(b), 2))


def unit_vector(lat: TruncationLattice, degree: int, coord: int) -> np.ndarray:
    """The flattened fiber vector z^degree e_(coord + 1)."""
    v = np.zeros(lat.ambient, dtype=complex)
    v[degree * lat.k + coord] = 1.0
    return v


def z_e1_seed(lat: TruncationLattice) -> FiberedField:
    """The seed z e_1 on every fiber."""
    data = np.zeros((lat.n_lambda, lat.n_z, lat.k), dtype=complex)
    data[:, 1, 0] = 1.0
    return FiberedField(lat, data)


def z_e1_range(lat: TruncationLattice) -> RangeFunctionH:
    """J = z H^2 e_1 on every fiber, spanned by ``z_e1_seed`` and its shifts
    and framed by z e_1 .. z^(n_z - 1) e_1."""
    frame = np.column_stack([unit_vector(lat, d, 0) for d in range(1, lat.n_z)])
    return RangeFunctionH(lat, (frame,) * lat.n_lambda)


def symbol_seeds(lat: TruncationLattice, phi: np.ndarray) -> list[FiberedField]:
    """The k columns of a symbol (n_lambda, n_z*k, k) as seeds: their H^2
    span is Phi H^2 itself."""
    return [FiberedField(lat, phi[:, :, i].reshape(lat.n_lambda, lat.n_z, lat.k))
            for i in range(lat.k)]


def blaschke_coeffs(a: complex, n_z: int) -> np.ndarray:
    """Taylor coefficients of (z - a)/(1 - conj(a) z) on the disk, truncated.

    c_0 = -a and c_j = conj(a)^(j-1) (1 - |a|^2) for j >= 1; the tail decays
    like |a|^j so the truncation error is |a|^n_z.
    """
    if abs(a) >= 1:
        raise ValueError("needs |a| < 1")
    c = np.zeros(n_z, dtype=complex)
    c[0] = -a
    c[1:] = np.conj(a) ** np.arange(n_z - 1) * (1.0 - abs(a) ** 2)
    return c
