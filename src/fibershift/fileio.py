"""Problem-file ingestion, report rendering, result persistence.

Problem files are line-oriented text. Blank lines and ``#`` comments are
ignored; every other line is ``key: value``. Header keys come first:

    schema: fibershift-problem/1        (required, exactly this value)
    n_lambda: 8                         (required)
    n_z: 4                              (required)
    k: 2                                (required)
    rank_tol: 1e-9                      (optional, default 1e-9)
    orth_tol: 1e-8                      (optional, default 1e-8)
    inner_tol: 1e-6                     (optional, default 1e-6)

then one or more generator blocks:

    generator: label                    (label optional)
    term: m j i re im                   (coefficient re+im*1j on lambda^m z^j e_i)

Degrees j run over 0..n_z-1 and coordinates i over 1..k (BoundsError
otherwise); the lambda exponent m may be any integer since powers wrap on
the grid.

Persisted decompositions (``.fshd``, version 5) are little-endian binary:

    magic ``FSHD``, version 5, n_lambda, n_z, k    (4 bytes, 4 x uint32)
    rank_tol, orth_tol, inner_tol, seed count s    (3 x float64, uint32)
    wandering rank per fiber                       (n_lambda x uint32)
    range rank per fiber                           (n_lambda x uint32)
    the two diagnostics, DIAGNOSTIC_KEYS order     (2 x float64, NaN if unmeasured)
    the symbol Phi, shape (n_lambda, n_z*k, k)     (complex128, C order)
    the s seeds, each (n_lambda, n_z, k)           (complex128, C order)
    one target range frame per fiber, (n_z*k, r_m) (complex128, C order)

F and the base are derived from Phi and the wandering ranks; Phi must vanish
past each fiber's wandering rank, and the seeds must be finite. ``verify``
holds Phi to the seeds; the range frames are read back for library callers
only, and nothing checks them against the seeds. Files of version 1 (the
dense F), 2 (three diagnostics), 3 (no seeds) and 4 (no inner_tol) are
refused. Both directions go array by array: save writes each array through
the buffer protocol, and load checks the sizes against the file's size
first, then reads each array into memory that the result keeps, so neither
holds a copy of the file.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import BoundsError, ParseError
from .factorization import DIAGNOSTIC_KEYS, DecompositionResult, SymbolField
from .fields import FiberedField, LaurentPolyField, eval_field
from .lattice import TruncationLattice
from .ranges import RangeFunctionH

SCHEMA = "fibershift-problem/1"
MAGIC = b"FSHD"
BINARY_VERSION = 5

_HEADER = struct.Struct("<4sIIIIdddI")


@dataclass(frozen=True)
class ProblemFile:
    schema: str
    lattice: TruncationLattice
    generators: tuple[LaurentPolyField, ...]
    labels: tuple[str, ...]
    digest: str

    @property
    def inner_tol(self) -> float:
        """The lattice's inner_tol, read as ``pf.inner_tol`` by older callers."""
        return self.lattice.inner_tol


def _parse_kv(line: str, lineno: int) -> tuple[str, str]:
    if ":" not in line:
        raise ParseError(f"line {lineno}: expected 'key: value', got {line!r}")
    key, _, value = line.partition(":")
    return key.strip(), value.strip()


def _parse_int(value: str, key: str, lineno: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"line {lineno}: {key} wants an integer, got {value!r}") from None


def _parse_float(value: str, key: str, lineno: int) -> float:
    try:
        return float(value)
    except ValueError:
        raise ParseError(f"line {lineno}: {key} wants a number, got {value!r}") from None


def load_problem(path: str) -> ProblemFile:
    """Parse and validate a problem file; defaults fill omitted tolerances."""
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not utf-8 text: {exc}") from None

    header: dict[str, object] = {}
    gens: list[list[tuple[int, int, int, complex]]] = []
    labels: list[str] = []
    int_keys = {"n_lambda", "n_z", "k"}
    float_keys = {"rank_tol", "orth_tol", "inner_tol"}
    header_keys = {"schema"} | int_keys | float_keys

    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        key, value = _parse_kv(line, lineno)
        if key in header_keys:
            if gens:
                raise ParseError(f"line {lineno}: header key {key!r} after generators")
            if key in header:
                raise ParseError(f"line {lineno}: duplicate key {key!r}")
            if key == "schema":
                if value != SCHEMA:
                    raise ParseError(f"line {lineno}: unsupported schema {value!r}")
                header[key] = value
            else:
                header[key] = (_parse_int if key in int_keys else _parse_float)(
                    value, key, lineno)
        elif key == "generator":
            gens.append([])
            labels.append(value if value else f"g{len(gens)}")
        elif key == "term":
            if not gens:
                raise ParseError(f"line {lineno}: term outside a generator block")
            parts = value.split()
            if len(parts) != 5:
                raise ParseError(f"line {lineno}: term wants 'm j i re im', got {value!r}")
            m = _parse_int(parts[0], "term m", lineno)
            j = _parse_int(parts[1], "term j", lineno)
            i = _parse_int(parts[2], "term i", lineno)
            c = complex(_parse_float(parts[3], "term re", lineno),
                        _parse_float(parts[4], "term im", lineno))
            if not np.isfinite(c):
                raise ParseError(f"line {lineno}: term coefficient {c} is not finite")
            gens[-1].append((m, j, i, c))
        else:
            raise ParseError(f"line {lineno}: unknown key {key!r}")

    if "schema" not in header:
        raise ParseError("missing schema line")
    for key in int_keys:
        if key not in header:
            raise ParseError(f"missing required key {key!r}")
    if not gens:
        raise ParseError("no generator blocks")

    try:
        lattice = TruncationLattice(
            n_lambda=header["n_lambda"], n_z=header["n_z"], k=header["k"],
            **{key: header[key] for key in float_keys if key in header})
    except ValueError as exc:
        raise ParseError(str(exc)) from None

    for label, terms in zip(labels, gens):
        for m, j, i, _ in terms:
            if not 0 <= j < lattice.n_z:
                raise BoundsError(
                    f"generator {label!r}: term (m={m}, j={j}, i={i}) has "
                    f"degree outside 0..{lattice.n_z - 1}")
            if not 1 <= i <= lattice.k:
                raise BoundsError(
                    f"generator {label!r}: term (m={m}, j={j}, i={i}) has "
                    f"coordinate outside 1..{lattice.k}")

    polys = tuple(LaurentPolyField(tuple(terms)) for terms in gens)
    return ProblemFile(header["schema"], lattice, polys, tuple(labels), digest)


def problem_fields(pf: ProblemFile) -> list[FiberedField]:
    """Evaluate every generator polynomial on the lattice."""
    return [eval_field(p, pf.lattice) for p in pf.generators]


@dataclass(frozen=True)
class Report:
    """What one command run measured, in aggregation order.

    Every field is a measurement or the identity of the run. The rest of
    what a report prints is derived when it is rendered: s-invariance from
    the leak, the spectrum from the nonzero range ranks, the partition of
    the circle from the wandering ranks. ``exit_code`` judges the same
    fields. Rendering is deterministic: tuples keep fiber order, dict
    sections are emitted in fixed key order, floats print via repr
    (shortest roundtrip).
    """

    command: str
    version: str
    digest: str
    lattice: TruncationLattice
    notes: tuple[str, ...] = ()
    s_leak: float | None = None
    ranks_jm: tuple[int, ...] = ()
    ranks_jr: tuple[int, ...] | None = None
    diagnostics: tuple[tuple[str, float], ...] = ()
    inner_defects: tuple[float, ...] | None = None

    def exit_code(self) -> int:
        """The gate table: 2 when any measured value fails its gate, else 0.

        The leak and every verification defect are held to orth_tol,
        ``phi_range_distance`` to 10 orth_tol, every inner defect to
        inner_tol. NaN fails every gate.
        """
        tol = self.lattice.orth_tol
        gates = [(v, 10.0 * tol if key == "phi_range_distance" else tol)
                 for key, v in self.diagnostics]
        if self.s_leak is not None:
            gates.append((self.s_leak, tol))
        gates += [(d, self.lattice.inner_tol) for d in self.inner_defects or ()]
        return 0 if all(v <= bound for v, bound in gates) else 2


def _fmt(x: float) -> str:
    return repr(float(x))


def render_text(report: Report) -> str:
    lat = report.lattice
    lines = [
        f"fibershift report ({report.command})",
        f"version: {report.version}",
        f"input: sha256:{report.digest}",
        f"lattice: n_lambda={lat.n_lambda} n_z={lat.n_z} k={lat.k}",
        "tolerances: rank_tol={} orth_tol={} inner_tol={}".format(
            _fmt(lat.rank_tol), _fmt(lat.orth_tol), _fmt(lat.inner_tol)),
    ]
    for note in report.notes:
        lines.append(f"note: {note}")
    if report.s_leak is not None:
        verdict = "yes" if report.s_leak <= lat.orth_tol else "NO"
        lines.append(f"s-invariant: {verdict} (leak {_fmt(report.s_leak)})")
    if report.ranks_jm:
        spectrum = np.count_nonzero(report.ranks_jm)
        lines.append(f"spectrum: {spectrum} of {lat.n_lambda} fibers")
    if report.ranks_jr is not None:
        for dim, count in enumerate(np.bincount(report.ranks_jr)):
            if count:
                lines.append(f"partition: dimension {dim} on {count} fibers")
    if report.diagnostics:
        lines.append("diagnostics:")
        for key, val in report.diagnostics:
            lines.append(f"  {key} {_fmt(val)}")
    if report.inner_defects is not None:
        lines.append(f"max inner defect: {_fmt(max(report.inner_defects, default=0.0))}")
    if report.ranks_jm:
        lines.append("fibers:")
        for m, r in enumerate(report.ranks_jm):
            row = f"  fiber {m}: rank_jm {r}"
            if report.ranks_jr is not None:
                row += f", rank_jr {report.ranks_jr[m]}"
            if report.inner_defects is not None:
                row += f", inner_defect {_fmt(report.inner_defects[m])}"
            lines.append(row)
    return "\n".join(lines) + "\n"


def render_csv(report: Report) -> str:
    """One row per fiber; a column the command did not measure is empty."""
    lines = ["fiber,rank_jm,rank_jr,class,inner_defect"]
    for m in range(report.lattice.n_lambda):
        jm = str(report.ranks_jm[m]) if report.ranks_jm else ""
        jr = "" if report.ranks_jr is None else str(report.ranks_jr[m])
        defect = "" if report.inner_defects is None else _fmt(report.inner_defects[m])
        lines.append(f"{m},{jm},{jr},{jr},{defect}")
    return "\n".join(lines) + "\n"


def save_decomposition(res: DecompositionResult, jm: RangeFunctionH,
                       path: str) -> None:
    """Write a decomposition, its seeds and its target range to the binary
    layout; a diagnostic missing from ``res.diagnostics`` is written as NaN
    (unmeasured).

    Each array goes to the file as it is, through the buffer protocol, so
    nothing is copied beyond the small rank and diagnostic arrays."""
    lat = res.lattice
    if jm.lattice != lat:
        raise ValueError("lattice mismatch")
    diag = [res.diagnostics.get(key, np.nan) for key in DIAGNOSTIC_KEYS]
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, BINARY_VERSION, lat.n_lambda, lat.n_z, lat.k,
                              lat.rank_tol, lat.orth_tol, lat.inner_tol, len(res.seeds)))
        for arr, dtype in ((res.ranks, "<u4"), (jm.ranks(), "<u4"), (diag, "<f8"),
                           (res.field.phi, "<c16"),
                           *((g.data, "<c16") for g in res.seeds),
                           *((q, "<c16") for q in jm.frames)):
            fh.write(np.ascontiguousarray(arr, dtype=dtype))


def load_decomposition(path: str) -> tuple[DecompositionResult, RangeFunctionH]:
    """Reconstruct a persisted decomposition and its target range.

    The header and the rank arrays fix the file size; invalid sizes or
    tolerances, ranks out of range, a short file and trailing bytes raise
    ParseError before any field is read. Each array is then read straight
    into memory of its own, which the result keeps without a copy; a
    non-finite seed, a Phi that ``DecompositionResult`` refuses, or a range
    frame that is not orthonormal raises ParseError too.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def take(dtype, shape):
            arr = np.empty(shape, dtype=dtype)
            if fh.readinto(arr) != arr.nbytes:
                raise ParseError(f"{path}: truncated file")
            return arr

        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size or head[:4] != MAGIC:
            raise ParseError(f"{path}: not a decomposition file")
        magic, version, n_lambda, n_z, k, *tols, n_seeds = _HEADER.unpack(head)
        if version != BINARY_VERSION:
            raise ParseError(f"{path}: unsupported version {version}")
        try:
            lat = TruncationLattice(n_lambda, n_z, k, *tols)
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}") from None
        amb = lat.ambient
        if size < _HEADER.size + 8 * n_lambda:
            raise ParseError(f"{path}: truncated file")
        ranks_jr = take("<u4", n_lambda).astype(int)
        ranks_jm = take("<u4", n_lambda).astype(int)
        if np.any(ranks_jr > k):
            raise ParseError(f"{path}: wandering rank exceeds k")
        if np.any(ranks_jm > amb):
            raise ParseError(f"{path}: range rank exceeds the fiber dimension")
        expected = (_HEADER.size + 8 * n_lambda + 8 * len(DIAGNOSTIC_KEYS)
                    + 16 * amb * (n_lambda * (k + n_seeds) + int(ranks_jm.sum())))
        if size != expected:
            raise ParseError(f"{path}: truncated file" if size < expected else
                             f"{path}: {size - expected} trailing bytes")
        diag_vals = take("<f8", len(DIAGNOSTIC_KEYS))
        phi = take("<c16", (n_lambda, amb, k))
        seeds = [take("<c16", (n_lambda, n_z, k)) for _ in range(n_seeds)]
        if not all(np.all(np.isfinite(g)) for g in seeds):
            raise ParseError(f"{path}: seeds must be finite")
        jm_frames = tuple(take("<c16", (amb, r)) for r in ranks_jm)
    diagnostics = {key: float(v) for key, v in zip(DIAGNOSTIC_KEYS, diag_vals)}
    try:
        res = DecompositionResult(SymbolField(lat, phi), ranks_jr, diagnostics,
                                  tuple(FiberedField(lat, g) for g in seeds))
        jm = RangeFunctionH(lat, jm_frames)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
    return res, jm
