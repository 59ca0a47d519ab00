"""Problem files, persistence, report rendering, command drivers."""

import dataclasses
import os
import re
import shutil
import struct
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from fibershift import (DIAGNOSTIC_KEYS, DecompositionResult,
                        TruncationLattice, closure_range, connecting_isometry,
                        decompose, decompose_range, range_from_generators,
                        shat_closure)
from fibershift.cli import build_parser, cmd_analyze, cmd_spectrum
from fibershift.errors import BoundsError, ParseError
from fibershift.factorization import verify_decomposition
from fibershift.fileio import (_HEADER, BINARY_VERSION, Report, load_decomposition,
                               load_problem, problem_fields, render_csv,
                               render_text, save_decomposition)
from fibershift.fields import eval_field

from helpers import (grid_seeds, laurent_seeds, run_cli,
                     write_problem, z_e1_range, z_e1_seed)

GOLDEN = """\
# comment lines and blanks are ignored
schema: fibershift-problem/1
n_lambda: 4
n_z: 8
k: 2
orth_tol: 1e-7

generator: first
term: 0 1 1 1.0 0.0
term: -3 2 2 0.5 -0.25   # lambda exponent may be negative
generator:
term: 2 0 1 0.0 1.0
"""


def _write(tmp_path, text, name="problem.txt"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_load_problem_golden(tmp_path):
    pf = load_problem(_write(tmp_path, GOLDEN))
    assert pf.schema == "fibershift-problem/1"
    assert (pf.lattice.n_lambda, pf.lattice.n_z, pf.lattice.k) == (4, 8, 2)
    assert pf.lattice.rank_tol == 1e-9          # default
    assert pf.lattice.orth_tol == 1e-7          # from the file
    assert pf.lattice.inner_tol == 1e-6         # default
    assert pf.inner_tol == pf.lattice.inner_tol
    assert pf.labels == ("first", "g2")
    assert pf.generators[0].terms == ((0, 1, 1, 1.0 + 0.0j),
                                      (-3, 2, 2, 0.5 - 0.25j))
    assert pf.generators[1].terms == ((2, 0, 1, 1.0j),)
    assert len(pf.digest) == 64


BAD_PROBLEMS = (
    ("n_lambda: 4\nn_z: 8\nk: 1\ngenerator: g\nterm: 0 0 1 1 0\n", "schema"),
    ("schema: fibershift-problem/2\n", "unsupported schema"),
    ("schema: fibershift-problem/1\nn_lambda: 4\nn_z: 8\n", "required key"),
    ("schema: fibershift-problem/1\nn_lambda: 4\nn_lambda: 4\n", "duplicate"),
    ("schema: fibershift-problem/1\nn_lambda: x\n", "integer"),
    ("schema: fibershift-problem/1\nterm: 0 0 1 1 0\n", "outside a generator"),
    ("schema: fibershift-problem/1\nn_lambda: 4\nn_z: 8\nk: 1\n"
     "generator: g\nterm: 0 0 1\n", "term wants"),
    ("schema: fibershift-problem/1\nn_lambda: 4\nn_z: 8\nk: 1\n"
     "generator: g\nterm: 0 0 1 1 0\nn_z: 8\n", "after generators"),
    ("schema: fibershift-problem/1\nn_lambda: 4\nn_z: 8\nk: 1\nbogus: 1\n",
     "unknown key"),
    ("schema: fibershift-problem/1\nn_lambda: 4\nn_z: 8\nk: 1\n", "no generator"),
    ("schema: fibershift-problem/1\nn_lambda: 0\nn_z: 8\nk: 1\n"
     "generator: g\nterm: 0 0 1 1 0\n", "positive"),
) + tuple(
    ("schema: fibershift-problem/1\nn_lambda: 4\nn_z: 8\nk: 1\n"
     f"{key}: {value}\ngenerator: g\nterm: 0 0 1 1 0\n",
     rf"^{key} must lie in \(0, 1\), got {float(value)}$")
    for key in ("rank_tol", "orth_tol", "inner_tol")
    for value in ("0", "1", "-1", "nan"))


@pytest.mark.parametrize("text,needle", BAD_PROBLEMS)
def test_load_problem_parse_errors(tmp_path, text, needle):
    with pytest.raises(ParseError, match=needle):
        load_problem(_write(tmp_path, text))


SCHEMA_MISPLACED = (
    ("schema: fibershift-problem/1\nschema: fibershift-problem/1\n"
     "n_lambda: 4\nn_z: 8\nk: 1\ngenerator: g\nterm: 0 0 1 1 0\n",
     "line 2: duplicate key 'schema'"),
    ("schema: fibershift-problem/1\nn_lambda: 4\nn_z: 8\nk: 1\n"
     "generator: g\nterm: 0 0 1 1 0\nschema: fibershift-problem/1\n",
     "line 7: header key 'schema' after generators"),
)


@pytest.mark.parametrize("text, needle", SCHEMA_MISPLACED, ids=["twice", "late"])
def test_schema_line_meets_the_header_checks(tmp_path, capsys, text, needle):
    """A repeated schema line, or one after the generator blocks, is refused
    like any other header key."""
    code, out = run_cli(["analyze", _write(tmp_path, text)])
    assert (code, out) == (3, "")
    assert f"ParseError: {needle}" in capsys.readouterr().err


def test_load_problem_bounds(tmp_path):
    head = "schema: fibershift-problem/1\nn_lambda: 4\nn_z: 8\nk: 2\ngenerator: g\n"
    with pytest.raises(BoundsError, match="degree"):
        load_problem(_write(tmp_path, head + "term: 0 8 1 1 0\n"))
    with pytest.raises(BoundsError, match="coordinate"):
        load_problem(_write(tmp_path, head + "term: 0 0 3 1 0\n"))


def test_problem_fields_match_eval(tmp_path):
    rng = np.random.default_rng(60)
    lat = TruncationLattice(8, 16, 2)
    polys = laurent_seeds(rng, lat, 2)
    path = tmp_path / "p.txt"
    write_problem(path, lat, polys)
    pf = load_problem(str(path))
    assert pf.lattice == lat
    for poly, loaded in zip(polys, pf.generators):
        direct = eval_field(poly, lat)
        roundtrip = eval_field(loaded, lat)
        assert np.array_equal(direct.data, roundtrip.data)
    fields = problem_fields(pf)
    assert np.array_equal(fields[0].data, eval_field(polys[0], lat).data)


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(61)
    lat = TruncationLattice(4, 32, 2)
    seeds = grid_seeds(rng, lat, 2)
    jm = range_from_generators(shat_closure(seeds), lat)
    res = decompose_range(jm, seeds)
    path = str(tmp_path / "out.fshd")
    save_decomposition(res, jm, path)
    # header, two rank arrays, the diagnostics, Phi, two seeds, frames
    ranks_jm = jm.ranks()
    assert os.path.getsize(path) == (_HEADER.size + 8 * 4 + 8 * len(DIAGNOSTIC_KEYS)
                                     + 16 * lat.ambient * (4 * (lat.k + 2) + ranks_jm.sum()))
    res2, jm2 = load_decomposition(path)
    assert res2.diagnostics == res.diagnostics
    assert np.array_equal(res2.field.phi, res.field.phi)
    assert np.array_equal(res2.ranks, res.ranks)
    assert [g.data.tolist() for g in res2.seeds] == [g.data.tolist() for g in seeds]
    for m in range(4):
        assert np.array_equal(jm2.frames[m], jm.frames[m])
        assert np.array_equal(res2.base.frames[m], res.base.frames[m])
    assert verify_decomposition(res2) == res.diagnostics


def test_unverified_result_loads_unmeasured(tmp_path):
    # a result saved without its defects must not load as a perfect one
    lat = TruncationLattice(4, 8, 1)
    jm = z_e1_range(lat)
    res = decompose_range(jm, [z_e1_seed(lat)])
    path = str(tmp_path / "out.fshd")
    save_decomposition(DecompositionResult(res.field, res.ranks, {}, res.seeds), jm, path)
    loaded, _ = load_decomposition(path)
    assert list(loaded.diagnostics) == list(DIAGNOSTIC_KEYS)
    assert all(np.isnan(v) for v in loaded.diagnostics.values())
    assert not any(v <= lat.orth_tol for v in loaded.diagnostics.values())


def test_load_decomposition_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.fshd"
    bad.write_bytes(b"NOPE" + b"\0" * 64)
    with pytest.raises(ParseError, match="not a decomposition"):
        load_decomposition(str(bad))


def test_load_decomposition_rejects_truncation(tmp_path):
    rng = np.random.default_rng(62)
    lat = TruncationLattice(2, 8, 1)
    gens = shat_closure(grid_seeds(rng, lat, 1))
    jm = range_from_generators(gens, lat)
    res = decompose_range(jm, gens)
    path = tmp_path / "t.fshd"
    save_decomposition(res, jm, str(path))
    whole = path.read_bytes()
    path.write_bytes(whole[: len(whole) // 2])
    with pytest.raises(ParseError, match="truncated"):
        load_decomposition(str(path))


@pytest.mark.parametrize("edit, needle", [
    (lambda raw: raw + b"\0", "1 trailing bytes"),
    (lambda raw: raw[:-1], "truncated"),
    # the first wandering rank, then the first range rank, past their bounds
    (lambda raw: raw[:_HEADER.size] + (3).to_bytes(4, "little")
     + raw[_HEADER.size + 4:], "wandering rank exceeds k"),
    (lambda raw: raw[:_HEADER.size + 8] + (17).to_bytes(4, "little")
     + raw[_HEADER.size + 12:], "range rank exceeds"),
])
def test_load_decomposition_checks_layout(tmp_path, edit, needle):
    rng = np.random.default_rng(63)
    lat = TruncationLattice(2, 8, 2)
    seeds = grid_seeds(rng, lat, 1)
    jm = range_from_generators(shat_closure(seeds), lat)
    path = tmp_path / "d.fshd"
    save_decomposition(decompose_range(jm, seeds), jm, str(path))
    load_decomposition(str(path))
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(ParseError, match=needle):
        load_decomposition(str(path))


@pytest.mark.parametrize("field, value, needle", [
    (2, 0, "lattice sizes must be positive"),
    (5, 0.0, r"rank_tol must lie in \(0, 1\), got 0.0"),
    (5, float("nan"), r"rank_tol must lie in \(0, 1\), got nan"),
    (6, 2.0, r"orth_tol must lie in \(0, 1\), got 2.0"),
    (7, 1.0, r"inner_tol must lie in \(0, 1\), got 1.0"),
    (7, float("nan"), r"inner_tol must lie in \(0, 1\), got nan")])
def test_load_decomposition_rejects_bad_header(tmp_path, capsys, field, value, needle):
    """n_lambda = 0, rank_tol = 0 or NaN, orth_tol = 2, or inner_tol = 1 or
    NaN in the header is bad input, as in a problem file: ParseError naming
    the field, and `verify` exits 3 with that message."""
    rng = np.random.default_rng(64)
    lat = TruncationLattice(2, 8, 1)
    seeds = grid_seeds(rng, lat, 1)
    jm = range_from_generators(shat_closure(seeds), lat)
    path = tmp_path / "d.fshd"
    save_decomposition(decompose_range(jm, seeds), jm, str(path))
    raw = path.read_bytes()
    header = list(_HEADER.unpack_from(raw))
    header[field] = value
    path.write_bytes(_HEADER.pack(*header) + raw[_HEADER.size:])
    with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: {needle}$"):
        load_decomposition(str(path))
    capsys.readouterr()
    assert run_cli(["verify", str(path)]) == (3, "")
    assert re.fullmatch(rf"ParseError: {re.escape(str(path))}: {needle}\n",
                        capsys.readouterr().err)


def test_save_decomposition_refuses_lattice_mismatch(tmp_path):
    """A k = 1 result saved with a k = 2 range would make a file that load
    refuses; save refuses the pair before it opens the file."""
    lat = TruncationLattice(4, 8, 1)
    res = decompose_range(z_e1_range(lat), [z_e1_seed(lat)])
    path = tmp_path / "d.fshd"
    with pytest.raises(ValueError, match="lattice mismatch"):
        save_decomposition(res, z_e1_range(TruncationLattice(4, 8, 2)), str(path))
    assert not path.exists()


def _traced_peak(fn):
    """``(fn(), peak)``: the most memory tracemalloc saw allocated while
    ``fn`` ran, its result included."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_decomposition_refuses_huge_header_before_allocating(tmp_path):
    """A 100-byte file whose header declares n_lambda = n_z = 2**20, k = 4
    and 2**32 - 1 seeds is truncated; the size check comes before the 8 MiB
    of rank arrays the header asks for are allocated."""
    path = tmp_path / "huge.fshd"
    path.write_bytes(_HEADER.pack(b"FSHD", BINARY_VERSION, 2**20, 2**20, 4, 1e-9, 1e-8,
                                  1e-6, 2**32 - 1)
                     + bytes(100 - _HEADER.size))

    def load():
        with pytest.raises(ParseError, match="truncated"):
            load_decomposition(str(path))

    assert _traced_peak(load)[1] < 2**20
    assert run_cli(["verify", str(path)])[0] == 3


@pytest.mark.parametrize("where", ["ranks", "diagnostics", "phi", "seeds",
                                   "first frame", "last frame"])
def test_load_decomposition_reads_cut_files_as_truncated(tmp_path, where):
    rng = np.random.default_rng(63)
    lat = TruncationLattice(2, 8, 2)
    seeds = grid_seeds(rng, lat, 1)
    jm = range_from_generators(shat_closure(seeds), lat)
    assert np.all(jm.ranks() > 0)
    path = tmp_path / "d.fshd"
    save_decomposition(decompose_range(jm, seeds), jm, str(path))
    raw = path.read_bytes()
    diag = _HEADER.size + 8 * lat.n_lambda
    phi = diag + 8 * len(DIAGNOSTIC_KEYS)
    seed = phi + 16 * lat.n_lambda * lat.ambient * lat.k
    frames = seed + 16 * lat.n_lambda * lat.ambient
    cut = {"ranks": diag - 2, "diagnostics": diag + 12,
           "phi": (phi + seed) // 2, "seeds": (seed + frames) // 2,
           "first frame": frames + 16, "last frame": len(raw) - 8}[where]
    path.write_bytes(raw[:cut])
    with pytest.raises(ParseError, match="truncated"):
        load_decomposition(str(path))


def _problem(path, shape):
    """A problem file of 3 Laurent seeds on ``shape``, its closure J and
    the seeds."""
    lat = TruncationLattice(*shape)
    write_problem(path, lat, laurent_seeds(np.random.default_rng(5), lat, 3))
    seeds = problem_fields(load_problem(path))
    return range_from_generators(shat_closure(seeds), lat), seeds


@pytest.fixture(scope="module")
def stream_decomposition(tmp_path_factory):
    """(8, 32, 3) with 3 seeds: J's frames take 1.0 MB, its .fshd file 1.1 MB."""
    jm, seeds = _problem(str(tmp_path_factory.mktemp("stream") / "p.txt"), (8, 32, 3))
    return jm, decompose_range(jm, seeds)


def test_save_decomposition_holds_no_copy(stream_decomposition, tmp_path):
    """Every array goes to the file as it is; no blob of the file is made."""
    jm, res = stream_decomposition
    path = str(tmp_path / "d.fshd")
    _, peak = _traced_peak(lambda: save_decomposition(res, jm, path))
    assert peak < 0.05 * os.path.getsize(path)


def test_load_decomposition_reads_into_its_arrays(stream_decomposition, tmp_path):
    """Each array is read into memory the result keeps: beside the arrays,
    the load holds at most the orthonormality check of one frame (a
    conjugate copy, the Gram matrix and its modulus), no raw buffer of the
    file and no copy of the arrays."""
    jm, res = stream_decomposition
    path = str(tmp_path / "d.fshd")
    save_decomposition(res, jm, path)
    (res2, jm2), peak = _traced_peak(lambda: load_decomposition(path))
    arrays = (res2.field.phi, *(g.data for g in res2.seeds), *jm2.frames)
    r = max(jm2.ranks())
    check = jm2.lattice.ambient * r * 16 + 2 * r * r * 16
    assert peak - sum(arr.nbytes for arr in arrays) <= check
    for arr in arrays:
        assert arr.flags.owndata and not arr.flags.writeable


@pytest.mark.parametrize("flags, code", [
    ([], 0),
    # every fiber's wandering step is refused (the leak passes half the
    # cutoff) and then the span reads not invariant: the refusals are held
    # until the leaks are known, without keeping their frames
    (["--orth-tol", "1e-16", "--rank-tol", "1e-14"], 2)])
def test_analyze_holds_one_frame_at_a_time(tmp_path, flags, code):
    """analyze drops each fiber's frame once its ranks and leak are read,
    so it never holds J's frames together. At (32, 32, 3) with 3 seeds
    J's frames take 4.1 MB."""
    path = str(tmp_path / "p.txt")
    jm, _ = _problem(path, (32, 32, 3))
    (got, out), peak = _traced_peak(lambda: run_cli(["analyze", path, *flags]))
    assert got == code
    assert ("s-invariant: NO" in out) == bool(flags)
    assert peak < sum(q.nbytes for q in jm.frames)


def test_beurling_never_holds_the_range_of_phi_beside_j(tmp_path):
    """beurling compares each fiber's span of phi's shifts with J's frame as
    that span is made, so at (32, 32, 1) its peak stays below 1.5 times
    J's frame bytes (1.45 here). Holding the range of phi beside J read 2.8."""
    lat = TruncationLattice(32, 32, 1)
    path = str(tmp_path / "p.txt")
    write_problem(path, lat, laurent_seeds(np.random.default_rng(3), lat, 1, vanish=False))
    jm = closure_range(problem_fields(load_problem(path)), lat)
    frames = sum(q.nbytes for q in jm.frames)
    del jm
    expect = run_cli(["beurling", path])       # imports and caches warmed up
    got, peak = _traced_peak(lambda: run_cli(["beurling", path]))
    assert got == expect and got[0] == 0
    assert peak < 1.5 * frames


def test_render_text_layout():
    lat = TruncationLattice(2, 4, 1)
    report = Report(command="analyze", version="0.1.0", digest="ab" * 32,
                    lattice=lat,
                    notes=("shat-closure: applied (1 -> 3 generators)",),
                    s_leak=0.25, ranks_jm=(3, 0),
                    diagnostics=(("isometry_defect", 1e-15),))
    text = render_text(report)
    assert text.startswith("fibershift report (analyze)\n")
    assert "s-invariant: NO (leak 0.25)" in text
    assert "spectrum: 1 of 2 fibers" in text
    assert "  isometry_defect 1e-15" in text
    assert "  fiber 1: rank_jm 0" in text
    assert text.endswith("\n")
    nan_leak = render_text(dataclasses.replace(report, s_leak=float("nan")))
    assert "s-invariant: NO (leak nan)" in nan_leak


def test_render_csv_layout():
    lat = TruncationLattice(2, 4, 1)
    report = Report(command="beurling", version="0.1.0", digest="cd" * 32,
                    lattice=lat, ranks_jm=(4, 0),
                    ranks_jr=(1, 0), inner_defects=(0.0, 0.0))
    csv = render_csv(report)
    lines = csv.splitlines()
    assert lines[0] == "fiber,rank_jm,rank_jr,class,inner_defect"
    assert lines[1] == "0,4,1,1,0.0"
    assert lines[2] == "1,0,0,0,0.0"


CONSTANT_PROBLEM = """\
schema: fibershift-problem/1
n_lambda: 4
n_z: 8
k: 1
generator: one
term: 0 0 1 1.0 0.0
"""


def test_cli_analyze_constant(tmp_path):
    path = _write(tmp_path, CONSTANT_PROBLEM)
    code, out = run_cli(["analyze", path])
    assert code == 0
    assert "s-invariant: yes" in out
    assert "partition: dimension 1 on 4 fibers" in out
    assert "spectrum: 4 of 4 fibers" in out
    assert all(f"fiber {m}: rank_jm 8, rank_jr 1" in out for m in range(4))


VANISHING_PROBLEM = """\
schema: fibershift-problem/1
n_lambda: 4
n_z: 4
k: 1
generator: vanishing
term: 0 1 1 0.5 0.0
term: 4 1 1 -0.5 0.0
"""


def test_cli_zero_subspace_round_trip(tmp_path):
    """lambda^4 = 1 on a grid of 4 points, so the seed vanishes on every
    fiber and closes to no generators: the zero subspace, not bad input."""
    path = _write(tmp_path, VANISHING_PROBLEM)
    for command in ("analyze", "spectrum", "decompose", "beurling"):
        code, out = run_cli([command, path, "--out", str(tmp_path / command)])
        assert code == 0, command
        assert "note: shat-closure: applied (1 -> 0 generators)" in out
        assert "spectrum: 0 of 4 fibers" in out
        assert all(f"fiber {m}: rank_jm 0" in out for m in range(4))
        if command in ("analyze", "decompose"):
            assert "s-invariant: yes (leak 0.0)" in out
        if command != "spectrum":
            assert "partition: dimension 0 on 4 fibers" in out
        if command in ("decompose", "beurling"):
            assert all(_diagnostic(out, key) == 0.0 for key in DIAGNOSTIC_KEYS)
    code, out = run_cli(["verify", str(tmp_path / "decompose")])
    assert code == 0
    assert all(_diagnostic(out, key) == 0.0 for key in DIAGNOSTIC_KEYS)


def _partition_lines(ranks_jr) -> list[str]:
    lat = TruncationLattice(len(ranks_jr), 4, 2)
    report = Report(command="verify", version="0.1.0", digest="ef" * 32,
                    lattice=lat, ranks_jm=(4,) * len(ranks_jr),
                    ranks_jr=tuple(ranks_jr))
    return [line for line in render_text(report).splitlines()
            if line.startswith("partition: ")]


def test_partition_counts_list_only_dimensions_that_occur():
    assert _partition_lines((2, 0, 2, 2)) == [
        "partition: dimension 0 on 1 fibers",
        "partition: dimension 2 on 3 fibers"]
    assert _partition_lines((1, 1)) == ["partition: dimension 1 on 2 fibers"]
    assert _partition_lines((0, 0, 0)) == ["partition: dimension 0 on 3 fibers"]


def _gated(**fields) -> Report:
    """A report at orth_tol 1e-8 and inner_tol 1e-6 with the given measurements."""
    return Report(command="gate", version="0.1.0", digest="00" * 32,
                  lattice=TruncationLattice(2, 4, 1),
                  ranks_jm=(4, 0), **fields)


NAN = float("nan")


@pytest.mark.parametrize("fields, code", [
    (dict(s_leak=1e-8), 0),
    (dict(s_leak=2e-8), 2),
    (dict(diagnostics=(("isometry_defect", 5e-8),)), 2),
    (dict(diagnostics=(("phi_range_distance", 5e-8),)), 0),
    (dict(diagnostics=(("phi_range_distance", 2e-7),)), 2),
    (dict(inner_defects=(0.0, 2e-6)), 2),
    (dict(s_leak=NAN), 2),
    (dict(diagnostics=(("image_defect", NAN),)), 2),
    (dict(diagnostics=(("phi_range_distance", NAN),)), 2),
    (dict(inner_defects=(NAN, 0.0)), 2),
    (dict(), 0),
], ids=["leak-at-tol", "leak-above", "defect-5x", "phi-distance-5x",
        "phi-distance-20x", "inner-defect-above", "nan-leak", "nan-defect",
        "nan-phi-distance", "nan-inner-defect", "spectrum-only"])
def test_report_exit_code_gate_table(fields, code):
    """One gate per measured value: orth_tol for the leak and the
    verification defects, 10 orth_tol for the Phi range distance,
    inner_tol for the inner defects; NaN fails every gate."""
    assert _gated(**fields).exit_code() == code


def test_cli_spectrum_closure_note(tmp_path):
    path = _write(tmp_path, CONSTANT_PROBLEM)
    code, out = run_cli(["spectrum", path])
    assert code == 0
    assert "note: shat-closure: applied (1 -> 8 generators)" in out


NON_FINITE_TERM = """\
schema: fibershift-problem/1
n_lambda: 4
n_z: 4
k: 1
generator: g
term: 0 1 1 1.0 0.0
term: 1 0 1 {re} 0
"""


@pytest.mark.parametrize("command", ["analyze", "spectrum", "decompose", "beurling"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_cli_non_finite_term_is_bad_input(tmp_path, capsys, command, value):
    """A non-finite coefficient is refused by the parser; spectrum used to
    read its NaN singular values as rank 0 and exit 0."""
    path = _write(tmp_path, NON_FINITE_TERM.format(re=value))
    code, out = run_cli([command, path])
    assert code == 3
    assert out == ""
    assert "ParseError: line 7: term coefficient" in capsys.readouterr().err


HUGE_EXPONENT = """\
schema: fibershift-problem/1
n_lambda: 4
n_z: 4
k: 1
generator: g
term: {m} 0 1 1.0 0.0
term: 0 0 1 -1.0 0.0
"""


def test_cli_huge_lambda_exponent(tmp_path):
    """A lambda exponent past int64 is any integer, as the problem format
    says: the report is the one for its residue modulo n_lambda (here 3, so
    the seed lambda^3 - 1 vanishes on fiber 0 alone)."""
    m = 99999999999999999999
    code, out = run_cli(["spectrum", _write(tmp_path, HUGE_EXPONENT.format(m=m))])
    assert code == 0
    _, ref = run_cli(["spectrum", _write(tmp_path, HUGE_EXPONENT.format(m=m % 4),
                                         "residue.txt")])
    assert "spectrum: 3 of 4 fibers" in out

    def body(report):
        return [line for line in report.splitlines() if not line.startswith("input:")]

    assert body(out) == body(ref)


def _laurent_problem(tmp_path, seed: int, n_z: int = 32) -> str:
    rng = np.random.default_rng(seed)
    lat = TruncationLattice(16, n_z, 2)
    path = str(tmp_path / f"p{seed}.txt")
    write_problem(path, lat, laurent_seeds(rng, lat, 2))
    return path


def test_laurent_seeds_refuse_more_seeds_than_directions():
    """r > k seeds cannot have orthonormal directions: refused before any
    draw, so the generator is left as it was."""
    rng = np.random.default_rng(7)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="2 seeds need 2 orthonormal directions"):
        laurent_seeds(rng, TruncationLattice(1, 1, 1), 2)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("seed", [50, 51, 52])
def test_spectrum_matches_analyze(tmp_path, seed):
    """spectrum reads ranks off singular values alone; analyze builds the
    frames. Both report the same ranks and spectrum."""
    path = _laurent_problem(tmp_path, seed)
    spec = cmd_spectrum(build_parser().parse_args(["spectrum", path]))
    full = cmd_analyze(build_parser().parse_args(["analyze", path]))
    assert spec.exit_code() == 0 and full.exit_code() == 0
    assert spec.ranks_jm == full.ranks_jm
    spectrum_lines = [[line for line in render_text(report).splitlines()
                       if line.startswith("spectrum: ")] for report in (spec, full)]
    assert spectrum_lines[0] == spectrum_lines[1]
    assert 0 < np.count_nonzero(spec.ranks_jm) and min(spec.ranks_jm) < max(spec.ranks_jm)


def test_analyze_refuses_leaky_span_at_n_z_16(tmp_path, capsys):
    """At (16, 16, 2), seed 51, the span at fiber 13 leaks 8.4e-10 under
    the shift, above half the 1e-9 cutoff: the wandering step refuses and
    analyze exits 2. spectrum needs no wandering part and reports the
    ranks of the generators."""
    path = _laurent_problem(tmp_path, 51, n_z=16)
    code, out = run_cli(["analyze", path])
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert "ToleranceAmbiguity: shift leaves the subspace by 8.39" in err
    assert "(fiber 13)" in err
    code, out = run_cli(["spectrum", path])
    assert code == 0
    ranks = [int(line.split()[-1]) for line in out.splitlines()
             if "rank_jm" in line]
    assert ranks == [16, 31, 31, 31] * 4


GUARD_BAND_PROBLEM = """\
schema: fibershift-problem/1
n_lambda: 2
n_z: 4
k: 2
generator: top
term: 0 3 1 1.0 0.0
generator: near
term: 0 3 1 1.0 0.0
term: 0 3 2 2.4e-9 0.0
"""


def test_spectrum_guard_band_exits_2(tmp_path):
    """Two top-degree generators whose stack has singular values near
    sqrt(2) and 1.2 x the cutoff: spectrum refuses like analyze."""
    path = _write(tmp_path, GUARD_BAND_PROBLEM)
    for command in ("spectrum", "analyze"):
        code, out = run_cli([command, path])
        assert code == 2
        assert out == ""


def test_spectrum_values_only_failure(tmp_path, monkeypatch):
    path = _laurent_problem(tmp_path, 53)
    _, expect = run_cli(["spectrum", path])
    real_svd = np.linalg.svd
    calls = []

    def fail_values_only(x, **kw):
        calls.append(kw.get("compute_uv", True))
        if not kw.get("compute_uv", True):
            raise np.linalg.LinAlgError("SVD did not converge")
        return real_svd(x, **kw)

    monkeypatch.setattr(np.linalg, "svd", fail_values_only)
    code, out = run_cli(["spectrum", path])
    assert code == 0
    assert out == expect
    assert calls.count(False) == 16 and calls.count(True) == 16


def test_cli_decompose_verify_roundtrip(tmp_path):
    path = _write(tmp_path, CONSTANT_PROBLEM)
    outdir = str(tmp_path / "result")
    code, out = run_cli(["decompose", path, "--out", outdir])
    assert code == 0
    assert "persisted: decomposition.fshd" in out
    assert (tmp_path / "result" / "report.txt").read_text() == out

    code, vout = run_cli(["verify", outdir])
    assert code == 0
    assert "fibershift report (verify)" in vout
    # the .fshd file directly is also accepted
    code, _ = run_cli(["verify", outdir + "/decomposition.fshd"])
    assert code == 0


@pytest.mark.parametrize("command", ["analyze", "decompose"])
def test_cli_checks_invariance_once(tmp_path, monkeypatch, command):
    """The report's leak and the wandering step read one C* per fiber:
    ``compressed_shift_adjoint`` runs once per fiber and command (twice at
    the time the leak and the wandering step each formed their own)."""
    import fibershift.shifts
    import fibershift.wandering
    real = fibershift.shifts.compressed_shift_adjoint
    calls = []

    def counting(frame, n_z, k):
        calls.append(frame.shape)
        return real(frame, n_z, k)

    for module in (fibershift.shifts, fibershift.wandering):
        monkeypatch.setattr(module, "compressed_shift_adjoint", counting)
    path = _write(tmp_path, CONSTANT_PROBLEM)
    code, out = run_cli([command, path])
    assert code == 0
    assert "s-invariant: yes (leak " in out
    assert calls == [(8, 8)] * 4    # n_lambda fibers, each of rank n_z


@pytest.mark.parametrize("command", ["decompose", "beurling"])
def test_cli_checks_every_frame_orthonormal(tmp_path, monkeypatch, capsys, command):
    """decompose and beurling hold the closure frames in a range function,
    which checks each frame it is given. analyze reads each frame straight
    from the SVD that made it and does not check it again."""
    import fibershift.ranges
    real = fibershift.ranges.orthonormal_frame

    def stretched(columns, rank_tol, fiber=None):
        q = real(columns, rank_tol, fiber)
        return 2.0 * q if fiber == 1 else q

    monkeypatch.setattr(fibershift.ranges, "orthonormal_frame", stretched)
    code, out = run_cli([command, _write(tmp_path, CONSTANT_PROBLEM)])
    assert code == 3 and out == ""
    assert "ValueError: frame 1 is not orthonormal" in capsys.readouterr().err


def test_analyze_takes_no_singular_vectors_of_c_star(tmp_path, monkeypatch):
    """analyze computes singular vectors only for J's closure matrices, one
    per fiber; every SVD of C* is values only, taken right after its fiber's
    closure SVD. With every values-only call failing, the robust_svd
    fallback gives the same report."""
    path = _laurent_problem(tmp_path, 53)
    _, expect = run_cli(["analyze", path])
    real_svd = np.linalg.svd
    shapes = []

    def record(x, **kw):
        shapes.append((x.shape, kw.get("compute_uv", True)))
        return real_svd(x, **kw)

    monkeypatch.setattr(np.linalg, "svd", record)
    code, out = run_cli(["analyze", path])
    assert code == 0 and out == expect
    # per fiber, the closure matrix of 2 seeds and their 59 shifts, then
    # the C* of J, square of J's rank
    ranks = [30, 59, 59, 59] * 4
    assert shapes == [shape for r in ranks
                      for shape in (((64, 61), True), ((r, r), False))]

    calls = []

    def fail_values_only(x, **kw):
        calls.append(kw.get("compute_uv", True))
        if not kw.get("compute_uv", True):
            raise np.linalg.LinAlgError("SVD did not converge")
        return real_svd(x, **kw)

    monkeypatch.setattr(np.linalg, "svd", fail_values_only)
    code, out = run_cli(["analyze", path])
    assert code == 0
    assert out == expect
    assert calls.count(False) == 16 and calls.count(True) == 32


def _diagnostic(report: str, key: str) -> float:
    return float(next(line.split()[1] for line in report.splitlines()
                      if line.strip().startswith(key + " ")))


def _phi_offset(lat: TruncationLattice, m: int, row: int, col: int) -> int:
    """Byte offset of Phi[m][row, col] in a ``.fshd`` file."""
    return (_HEADER.size + 8 * lat.n_lambda + 8 * len(DIAGNOSTIC_KEYS)
            + 16 * ((m * lat.ambient + row) * lat.k + col))


def _nudge(path, lat: TruncationLattice, m: int, row: int, col: int,
           delta: complex) -> None:
    """Add ``delta`` to Phi[m][row, col] on disk. The file is loaded first,
    and Phi read back from the written bytes must differ from the loaded
    one in exactly that entry, so a wrong offset cannot pass unnoticed."""
    before = load_decomposition(str(path))[0].field.phi
    offset = _phi_offset(lat, m, row, col)
    raw = bytearray(path.read_bytes())
    value = np.frombuffer(bytes(raw[offset:offset + 16]), dtype="<c16")[0]
    raw[offset:offset + 16] = np.array([value + delta], dtype="<c16").tobytes()
    path.write_bytes(bytes(raw))
    after = np.frombuffer(bytes(raw), dtype="<c16", count=before.size,
                          offset=_phi_offset(lat, 0, 0, 0)).reshape(before.shape)
    assert np.argwhere(after != before).tolist() == [[m, row, col]]


def _hold_to(outdir, held: str) -> None:
    """With ``held == "closure"``, rewrite the persisted result with the
    closure of its seeds in their place."""
    if held == "closure":
        fshd = str(outdir / "decomposition.fshd")
        res, jm = load_decomposition(fshd)
        save_decomposition(DecompositionResult(res.field, res.ranks, res.diagnostics,
                                               shat_closure(list(res.seeds))), jm, fshd)
        assert len(load_decomposition(fshd)[0].seeds) > len(res.seeds)


@pytest.mark.parametrize("held", ["seeds", "closure"])
def test_cli_verify_catches_perturbed_symbol(tmp_path, held):
    """Moving the z^3 coefficient of phi_1 at fiber 0 by 1e-3 on disk makes
    the shifted copies of phi_1 overlap: the isometry defect reads it."""
    path = _write(tmp_path, CONSTANT_PROBLEM)
    outdir = tmp_path / "result"
    code, out = run_cli(["decompose", path, "--out", str(outdir)])
    assert code == 0
    assert _diagnostic(out, "isometry_defect") == 0.0
    _hold_to(outdir, held)
    lat = TruncationLattice(4, 8, 1)
    _nudge(outdir / "decomposition.fshd", lat, 0, 3, 0, 1e-3)
    code, vout = run_cli(["verify", str(outdir)])
    assert code == 2
    assert _diagnostic(vout, "isometry_defect") > 1e-8  # orth_tol


TWO_COORDINATE_PROBLEM = CONSTANT_PROBLEM.replace("k: 1", "k: 2")


def test_cli_verify_refuses_mass_past_the_rank(tmp_path, capsys):
    """The wandering rank is 1 with k = 2, so Phi's second column must vanish.
    A nonzero entry there is mass of F off the full Hardy space over the
    base, which no decomposition holds: the file is bad input."""
    path = _write(tmp_path, TWO_COORDINATE_PROBLEM)
    outdir = tmp_path / "result"
    code, out = run_cli(["decompose", path, "--out", str(outdir)])
    assert code == 0
    assert "partition: dimension 1 on 4 fibers" in out
    lat = TruncationLattice(4, 8, 2)
    fshd = outdir / "decomposition.fshd"
    _nudge(fshd, lat, 2, 0, 1, 1e-3)
    with pytest.raises(ParseError, match="nonzero past the wandering rank at fiber 2"):
        load_decomposition(str(fshd))
    capsys.readouterr()
    assert run_cli(["verify", str(outdir)]) == (3, "")
    assert "nonzero past the wandering rank" in capsys.readouterr().err


@pytest.mark.parametrize("row, col, delta", [
    (0, 1, np.nan),     # past the wandering rank
    (0, 0, np.nan),     # inside the rank: verify used to exit 2
    (0, 0, np.inf),
])
def test_cli_verify_refuses_non_finite_symbol(tmp_path, capsys, row, col, delta):
    """A non-finite entry of Phi on disk is bad input, wherever it sits."""
    path = _write(tmp_path, TWO_COORDINATE_PROBLEM)
    outdir = tmp_path / "result"
    assert run_cli(["decompose", path, "--out", str(outdir)])[0] == 0
    lat = TruncationLattice(4, 8, 2)
    _nudge(outdir / "decomposition.fshd", lat, 1, row, col, delta)
    capsys.readouterr()
    assert run_cli(["verify", str(outdir)]) == (3, "")
    assert "phi must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("held", ["seeds", "closure"])
def test_cli_verify_fails_an_overflowing_symbol(tmp_path, held):
    """A finite entry near 1e200 inside the wandering rank overflows the
    products of verification. The report shows the non-finite defects, the
    gates read them as failures, and numpy warns about nothing."""
    path = _write(tmp_path, TWO_COORDINATE_PROBLEM)
    outdir = tmp_path / "result"
    assert run_cli(["decompose", path, "--out", str(outdir)])[0] == 0
    _hold_to(outdir, held)
    lat = TruncationLattice(4, 8, 2)
    _nudge(outdir / "decomposition.fshd", lat, 1, 0, 0, 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(["verify", str(outdir)])
    assert code == 2
    for key in ("isometry_defect", "image_defect"):
        assert not np.isfinite(_diagnostic(out, key))


def test_cli_verify_refuses_a_non_orthonormal_target(tmp_path, capsys):
    """A target frame with one column scaled by 1 + 5e-6 is bad input."""
    path = _write(tmp_path, CONSTANT_PROBLEM)
    outdir = tmp_path / "result"
    assert run_cli(["decompose", path, "--out", str(outdir)])[0] == 0
    fshd = str(outdir / "decomposition.fshd")
    res, jm = load_decomposition(fshd)
    frames = [np.array(q) for q in jm.frames]
    frames[1][:, 0] *= 1 + 5e-6
    object.__setattr__(jm, "frames", tuple(frames))  # behind the check's back
    save_decomposition(res, jm, fshd)
    capsys.readouterr()
    assert run_cli(["verify", fshd]) == (3, "")
    assert f"ParseError: {fshd}: frame 1 is not orthonormal" in capsys.readouterr().err


def test_corrupted_range_frame_is_a_parse_error(tmp_path, capsys):
    """One float of the last range frame of a (2, 8, 2) file scaled by 2 on
    disk: ``load_decomposition`` raises the ParseError that names the path,
    as for every other corruption, so callers that catch ParseError see it,
    and verify exits 3."""
    path = _write(tmp_path, TWO_COORDINATE_PROBLEM.replace("n_lambda: 4", "n_lambda: 2"))
    outdir = tmp_path / "result"
    assert run_cli(["decompose", path, "--out", str(outdir)])[0] == 0
    fshd = outdir / "decomposition.fshd"
    _, jm = load_decomposition(str(fshd))
    assert jm.rank(1) > 0
    raw = bytearray(fshd.read_bytes())
    # the last frame closes the file; scale its last nonzero float by 2
    last = np.frombuffer(bytes(raw[-jm.frames[1].nbytes:]), dtype="<f8")
    offset = len(raw) - 8 * (last.size - int(np.flatnonzero(last)[-1]))
    value = np.frombuffer(bytes(raw[offset:offset + 8]), dtype="<f8")[0]
    raw[offset:offset + 8] = np.array([2.0 * value], dtype="<f8").tobytes()
    fshd.write_bytes(bytes(raw))
    with pytest.raises(ParseError, match=f"^{re.escape(str(fshd))}: frame 1 is not orthonormal"):
        load_decomposition(str(fshd))
    capsys.readouterr()
    assert run_cli(["verify", str(outdir)]) == (3, "")
    assert capsys.readouterr().err.startswith(f"ParseError: {fshd}: frame 1")


def _seed_offset(lat: TruncationLattice, i: int, m: int, degree: int, coord: int) -> int:
    """Byte offset of seed i's coefficient of z^degree e_(coord + 1) at
    fiber m in a ``.fshd`` file: the seeds follow Phi."""
    return (_phi_offset(lat, lat.n_lambda, 0, 0)
            + 16 * (((i * lat.n_lambda + m) * lat.n_z + degree) * lat.k + coord))


def _set_seed(path, lat: TruncationLattice, m: int, degree: int, coord: int,
              value: complex) -> None:
    """Set the first seed's coefficient of z^degree e_(coord + 1) at fiber m
    on disk; the seeds read back from the written bytes must differ from
    the loaded ones in exactly that entry."""
    before = load_decomposition(str(path))[0].seeds[0].data
    offset = _seed_offset(lat, 0, m, degree, coord)
    raw = bytearray(path.read_bytes())
    raw[offset:offset + 16] = np.array([value], dtype="<c16").tobytes()
    path.write_bytes(bytes(raw))
    after = np.frombuffer(bytes(raw), dtype="<c16", count=before.size,
                          offset=_seed_offset(lat, 0, 0, 0, 0)).reshape(before.shape)
    assert np.argwhere(after != before).tolist() == [[m, degree, coord]]


@pytest.mark.parametrize("held", ["seeds", "closure"])
def test_cli_verify_catches_a_seed_tilted_out_of_the_image(tmp_path, held):
    """The stored seed e_1 tilted by delta towards z^7 e_2, outside
    Phi H^2 = H^2 e_1, at one fiber: verify exits 2 and the image defect
    reads delta (the band cover it replaced never read degree 7)."""
    path = _write(tmp_path, TWO_COORDINATE_PROBLEM)
    outdir = tmp_path / "result"
    assert run_cli(["decompose", path, "--out", str(outdir)])[0] == 0
    _hold_to(outdir, held)
    lat = TruncationLattice(4, 8, 2)
    fshd = outdir / "decomposition.fshd"
    _set_seed(fshd, lat, 2, 7, 1, 1e-5)
    code, out = run_cli(["verify", str(outdir)])
    assert code == 2
    assert _diagnostic(out, "image_defect") == pytest.approx(1e-5, rel=1e-6)
    assert _diagnostic(out, "isometry_defect") == 0.0


@pytest.mark.parametrize("held", ["seeds", "closure"])
def test_cli_verify_fails_an_extra_symbol_column(tmp_path, held):
    """A file whose Phi gains the unit column e_2 at fiber 1, with that
    fiber's wandering rank raised to 2, is still rigid: the isometry defect
    stays 0. The seed e_1 does not generate e_2, so A_0 is singular and the
    image defect reads inf; verify exits 2, and numpy warns about nothing."""
    path = _write(tmp_path, TWO_COORDINATE_PROBLEM)
    outdir = tmp_path / "result"
    assert run_cli(["decompose", path, "--out", str(outdir)])[0] == 0
    _hold_to(outdir, held)
    lat = TruncationLattice(4, 8, 2)
    fshd = outdir / "decomposition.fshd"
    raw = bytearray(fshd.read_bytes())
    raw[_HEADER.size + 4:_HEADER.size + 8] = (2).to_bytes(4, "little")
    fshd.write_bytes(bytes(raw))
    _nudge(fshd, lat, 1, 1, 1, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(["verify", str(outdir)])
    assert code == 2
    assert "partition: dimension 2 on 1 fibers" in out
    assert _diagnostic(out, "isometry_defect") == 0.0
    assert _diagnostic(out, "image_defect") == np.inf


def test_cli_verify_refuses_a_non_finite_seed(tmp_path, capsys):
    """A NaN in the stored seeds is bad input."""
    path = _write(tmp_path, TWO_COORDINATE_PROBLEM)
    outdir = tmp_path / "result"
    assert run_cli(["decompose", path, "--out", str(outdir)])[0] == 0
    fshd = outdir / "decomposition.fshd"
    _set_seed(fshd, TruncationLattice(4, 8, 2), 3, 0, 0, complex(np.nan, 0.0))
    with pytest.raises(ParseError, match="seeds must be finite"):
        load_decomposition(str(fshd))
    capsys.readouterr()
    assert run_cli(["verify", str(outdir)]) == (3, "")
    assert "ParseError" in capsys.readouterr().err


# the header of layout versions 1 to 3, which had no seed count
_OLD_HEADER = struct.Struct("<4sIIIIdd")


def test_version_1_file_refused(tmp_path, capsys):
    """A file in the version 1 layout (four diagnostics, then the dense F)
    is refused as bad input."""
    lat = TruncationLattice(4, 8, 1)
    seeds = problem_fields(load_problem(_write(tmp_path, CONSTANT_PROBLEM)))
    jm = range_from_generators(shat_closure(seeds), lat)
    res = decompose_range(jm, seeds)
    dense = np.stack([res.field.op(m) for m in range(lat.n_lambda)])
    blob = b"".join([
        _OLD_HEADER.pack(b"FSHD", 1, lat.n_lambda, lat.n_z, lat.k,
                         lat.rank_tol, lat.orth_tol),
        np.array(res.ranks, dtype="<u4").tobytes(),
        np.array(jm.ranks(), dtype="<u4").tobytes(),
        np.zeros(4, dtype="<f8").tobytes(),
        dense.astype("<c16").tobytes(),
        *(q.astype("<c16").tobytes() for q in jm.frames)])
    path = tmp_path / "old.fshd"
    path.write_bytes(blob)
    with pytest.raises(ParseError, match="unsupported version 1"):
        load_decomposition(str(path))
    assert run_cli(["verify", str(path)]) == (3, "")
    assert "unsupported version 1" in capsys.readouterr().err


@pytest.mark.parametrize("version, n_diag", [(2, 3), (3, 2)])
def test_version_2_and_3_files_refused(tmp_path, capsys, version, n_diag):
    """A file in the version 2 layout (three diagnostics, then Phi and the
    frames) or the version 3 layout (two diagnostics, then Phi and the
    frames, no seeds) is refused as bad input, before its sizes are read."""
    lat = TruncationLattice(4, 8, 1)
    jm = z_e1_range(lat)
    res = decompose_range(jm, [z_e1_seed(lat)])
    blob = b"".join([
        _OLD_HEADER.pack(b"FSHD", version, lat.n_lambda, lat.n_z, lat.k,
                         lat.rank_tol, lat.orth_tol),
        np.array(res.ranks, dtype="<u4").tobytes(),
        np.array(jm.ranks(), dtype="<u4").tobytes(),
        np.zeros(n_diag, dtype="<f8").tobytes(),
        res.field.phi.astype("<c16").tobytes(),
        *(q.astype("<c16").tobytes() for q in jm.frames)])
    path = tmp_path / "old.fshd"
    path.write_bytes(blob)
    with pytest.raises(ParseError, match=f"unsupported version {version}"):
        load_decomposition(str(path))
    assert run_cli(["verify", str(path)]) == (3, "")
    assert f"unsupported version {version}" in capsys.readouterr().err


def test_version_4_file_refused(tmp_path, capsys):
    """A file in the version 4 layout (no inner_tol in the header, the rest
    as now) is refused as bad input."""
    lat = TruncationLattice(4, 8, 1)
    res = decompose_range(z_e1_range(lat), [z_e1_seed(lat)])
    path = tmp_path / "d.fshd"
    save_decomposition(res, z_e1_range(lat), str(path))
    raw = path.read_bytes()
    path.write_bytes(struct.pack("<4sIIIIddI", b"FSHD", 4, lat.n_lambda, lat.n_z, lat.k,
                                 lat.rank_tol, lat.orth_tol, 1) + raw[_HEADER.size:])
    with pytest.raises(ParseError, match="unsupported version 4"):
        load_decomposition(str(path))
    assert run_cli(["verify", str(path)]) == (3, "")
    assert "unsupported version 4" in capsys.readouterr().err


INNER_TOL_PROBLEM = CONSTANT_PROBLEM.replace("k: 1\n", "k: 1\ninner_tol: 1e-5\n")


def test_fshd_keeps_the_problems_inner_tol(tmp_path):
    """A decomposition persisted from a problem with inner_tol 1e-5 loads on
    the problem's own lattice: verify prints that inner_tol, and the loaded
    result connects to a fresh one without a lattice mismatch."""
    path = _write(tmp_path, INNER_TOL_PROBLEM)
    pf = load_problem(path)
    assert pf.lattice.inner_tol == 1e-5
    outdir = tmp_path / "out"
    assert run_cli(["decompose", path, "--out", str(outdir)])[0] == 0
    code, out = run_cli(["verify", str(outdir)])
    assert code == 0
    assert "tolerances: rank_tol=1e-09 orth_tol=1e-08 inner_tol=1e-05\n" in out
    loaded, _ = load_decomposition(str(outdir / "decomposition.fshd"))
    assert loaded.lattice == pf.lattice
    seeds = problem_fields(pf)
    _, defects = connecting_isometry(loaded, decompose(shat_closure(seeds), pf.lattice))
    assert max(defects.values()) <= 10 * pf.lattice.orth_tol


@pytest.mark.parametrize("flag", ["--rank-tol", "--orth-tol", "--inner-tol"])
@pytest.mark.parametrize("value", ["0", "1", "-1", "nan"])
def test_cli_tolerance_out_of_range_exits_3(tmp_path, capsys, flag, value):
    """A tolerance override outside (0, 1) fails the lattice's own check:
    bad input, one line on stderr naming the tolerance and its value, and
    nothing on stdout."""
    path = _write(tmp_path, CONSTANT_PROBLEM)
    capsys.readouterr()
    assert run_cli(["beurling", path, flag, value]) == (3, "")
    name = flag[2:].replace("-", "_")
    assert capsys.readouterr().err == (
        f"ValueError: {name} must lie in (0, 1), got {float(value)}\n")


def test_cli_verify_csv_has_one_row_per_fiber(tmp_path):
    """verify measures no range ranks: its CSV leaves rank_jm empty and
    carries each fiber's wandering rank."""
    lat = TruncationLattice(4, 8, 2)
    path = str(tmp_path / "p.txt")
    write_problem(path, lat, laurent_seeds(np.random.default_rng(5), lat, 2))
    outdir = tmp_path / "out"
    assert run_cli(["decompose", path, "--out", str(outdir)])[0] == 0
    res, _ = load_decomposition(str(outdir / "decomposition.fshd"))
    code, out = run_cli(["verify", str(outdir), "--format", "csv"])
    assert code == 0
    assert out.splitlines() == ["fiber,rank_jm,rank_jr,class,inner_defect"] + [
        f"{m},,{r},{r}," for m, r in enumerate(res.ranks)]


def test_cli_lapack_failure_exits_2(tmp_path, monkeypatch):
    """LinAlgError is a ValueError subclass but not bad input."""
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    monkeypatch.setattr(np.linalg, "eigh", fail)
    path = _write(tmp_path, CONSTANT_PROBLEM)
    code, out = run_cli(["decompose", path])
    assert code == 2
    assert out == ""


BLASCHKE_PROBLEM = """\
schema: fibershift-problem/1
n_lambda: 2
n_z: 64
k: 1
generator: blaschke
term: 0 0 1 -0.5 0.0
term: 0 1 1 1.0 0.0
"""


def test_cli_beurling_blaschke(tmp_path):
    path = _write(tmp_path, BLASCHKE_PROBLEM)
    code, out = run_cli(["beurling", path, "--format", "csv",
                         "--out", str(tmp_path / "b")])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "fiber,rank_jm,rank_jr,class,inner_defect"
    defects = [float(row.split(",")[4]) for row in lines[1:]]
    assert max(defects) < 1e-8
    assert (tmp_path / "b" / "report.csv").read_text() == out


def test_cli_exit_codes(tmp_path):
    code, _ = run_cli(["analyze", str(tmp_path / "missing.txt")])
    assert code == 3
    bad = _write(tmp_path, CONSTANT_PROBLEM.replace("term: 0 0 1", "term: 0 9 1"))
    code, _ = run_cli(["analyze", bad])
    assert code == 3
    # the constant problem decomposes with exactly zero diagnostics, so it
    # cannot trip any tolerance; the Blaschke one leaves rounding residue
    good = _write(tmp_path, BLASCHKE_PROBLEM, name="good.txt")
    code, _ = run_cli(["decompose", good, "--orth-tol", "1e-16"])
    assert code == 2


def test_cli_out_that_cannot_be_a_directory_is_bad_input(tmp_path, capsys):
    """An --out path that is a file, or lies under one, is refused before
    the command runs: exit 3, one line on stderr, no report, and the file
    is left alone."""
    path = _write(tmp_path, CONSTANT_PROBLEM)
    result = str(tmp_path / "result")
    assert run_cli(["decompose", path, "--out", result])[0] == 0
    blocker = tmp_path / "file"
    blocker.write_text("")
    capsys.readouterr()
    for out, error in ((blocker, "FileExistsError"), (blocker / "sub", "NotADirectoryError")):
        for argv in (["analyze", path], ["spectrum", path], ["decompose", path],
                     ["beurling", path], ["verify", result]):
            assert run_cli(argv + ["--out", str(out)]) == (3, ""), argv
            err = capsys.readouterr().err
            assert err.startswith(error + ":") and err.count("\n") == 1, argv
    assert blocker.read_text() == ""


@pytest.mark.parametrize("fmt, name", [("text", "report.txt"), ("csv", "report.csv")])
def test_cli_report_that_cannot_be_written_is_bad_input(tmp_path, capsys, fmt, name):
    """A directory where --out's report file goes: the report is written
    before it is printed, inside the error handling, so the command exits 3
    with one line on stderr and nothing on stdout."""
    path = _write(tmp_path, CONSTANT_PROBLEM)
    out = tmp_path / "o"
    (out / name).mkdir(parents=True)
    capsys.readouterr()
    for command in ("spectrum", "analyze"):
        argv = [command, path, "--out", str(out), "--format", fmt]
        assert run_cli(argv) == (3, ""), argv
        err = capsys.readouterr().err
        assert err.startswith("IsADirectoryError:") and err.count("\n") == 1, argv


@pytest.mark.parametrize("argv, code", [
    (["decompose", "problem.txt", "--threads", "8"], 3),
    ([], 3),
    (["--help"], 0),
    (["verify", "out", "--inner-tol", "1"], 3),
    # a persisted result carries its own tolerances: verify takes none
    (["verify", "out", "--orth-tol", "1e-300"], 3),
    (["verify", "out", "--rank-tol", "0.5"], 3),
    (["verify", "out", "--inner-tol", "0.5"], 3),
    (["verify", "out", "--seed", "9"], 3),
    (["spectrum", "problem.txt", "--seed", "7"], 3),
    # a tolerance a command decides nothing at would only change a printed number
    (["analyze", "p", "--inner-tol", "1e-3"], 3),
    (["decompose", "p", "--inner-tol", "1e-3"], 3),
    (["spectrum", "p", "--inner-tol", "1e-3"], 3),
    (["spectrum", "p", "--orth-tol", "1e-6"], 3),
], ids=["unknown-flag", "no-command", "help", "inner-tol-one", "verify-orth-tol",
        "verify-rank-tol", "verify-inner-tol", "verify-seed", "spectrum-seed",
        "analyze-inner-tol", "decompose-inner-tol", "spectrum-inner-tol", "spectrum-orth-tol"])
def test_cli_usage_exit_codes(argv, code):
    # argparse exits 2 on usage errors; 2 is reserved for failed invariants
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == code


def test_console_script(tmp_path):
    """The exit status of a real process: the installed console script when
    it is on PATH, else ``python -m fibershift.cli``."""
    exe = shutil.which("fibershift")
    env = dict(os.environ)
    if exe is None:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            os.path.join(root, "src"), env.get("PYTHONPATH")]))
    command = [exe] if exe else [sys.executable, "-m", "fibershift.cli"]

    def run(*argv):
        return subprocess.run(command + list(argv), capture_output=True,
                              text=True, env=env)

    proc = run("spectrum", _write(tmp_path, CONSTANT_PROBLEM))
    assert proc.returncode == 0
    assert "fibershift report (spectrum)" in proc.stdout
    proc = run("decompose", _write(tmp_path, BLASCHKE_PROBLEM, name="b.txt"),
               "--orth-tol", "1e-16")
    assert proc.returncode == 2
    proc = run("analyze", str(tmp_path / "missing.txt"))
    assert proc.returncode == 3
    assert proc.stdout == ""
