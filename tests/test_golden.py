"""Golden CLI reports on three fixed problem files.

Each problem under ``tests/golden/`` runs through ``analyze`` (text and
csv), ``spectrum``, ``decompose --out``, ``verify`` of what decompose wrote
and, for k = 1, ``beurling``. Reports and exit codes are compared with
``tests/golden/expected/``: tokens that are not numbers match exactly, and
two numbers match when both are at most 1e-12 in magnitude or agree to 1e-9
relative. The ``verify`` input digest must be the sha256 of the file this
run wrote, and the ``.fshd`` header and both rank arrays must match byte for
byte. Phi's bytes are not compared: at wandering rank >= 2 the kernel basis
is fixed only up to rotation, so they vary across BLAS builds. ``verify``
must print decompose's diagnostics bit for bit.

``python tests/golden/regen.py`` rewrites the expected files; any
regeneration goes with a CHANGES.md entry saying why the outputs moved.
"""

from __future__ import annotations

import hashlib
import importlib.util
import re
from pathlib import Path

import pytest

from fibershift import DIAGNOSTIC_KEYS
from fibershift.fileio import _HEADER

from helpers import run_cli

GOLDEN = Path(__file__).parent / "golden"
EXPECTED = GOLDEN / "expected"
PROBLEMS = ("k2_two_seeds", "k3_vanishing", "k1_blaschke")
FSHD_DIGEST = "input: sha256:<decomposition.fshd>"
_SEPARATORS = re.compile(r"([\s,=():]+)")


def cases(problem: str, out: Path) -> dict[str, list[str]]:
    """CLI argument lists by case name, in run order (verify reads ``out``)."""
    path = str(GOLDEN / f"{problem}.txt")
    argvs = {
        "analyze": ["analyze", path],
        "analyze-csv": ["analyze", path, "--format", "csv"],
        "spectrum": ["spectrum", path],
        "decompose": ["decompose", path, "--out", str(out)],
        "verify": ["verify", str(out)],
    }
    if problem.startswith("k1_"):
        argvs["beurling"] = ["beurling", path]
    return argvs


def run_problem(problem: str, out: Path) -> tuple[dict[str, str], str]:
    """Expected-file texts by case (``exit: N`` then stdout, with the verify
    digest replaced by a placeholder) and the hex of the ``.fshd`` header
    and rank arrays."""
    texts = {}
    for name, argv in cases(problem, out).items():
        code, stdout = run_cli(argv)
        if name == "verify":
            raw = (out / "decomposition.fshd").read_bytes()
            digest = f"input: sha256:{hashlib.sha256(raw).hexdigest()}"
            assert digest in stdout.splitlines(), "verify digest is not the file's"
            stdout = stdout.replace(digest, FSHD_DIGEST)
        texts[name] = f"exit: {code}\n{stdout}"
    raw = (out / "decomposition.fshd").read_bytes()
    n_lambda = _HEADER.unpack_from(raw)[2]
    return texts, raw[: _HEADER.size + 8 * n_lambda].hex()


def _tokens_match(a: str, b: str) -> bool:
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    if abs(x) <= 1e-12 and abs(y) <= 1e-12:
        return True
    return abs(x - y) <= 1e-9 * max(abs(x), abs(y))


def _mismatch(expected: str, actual: str) -> str | None:
    """First differing line, or None when the texts match token by token."""
    exp_lines, act_lines = expected.splitlines(), actual.splitlines()
    for e, a in zip(exp_lines, act_lines):
        te, ta = _SEPARATORS.split(e), _SEPARATORS.split(a)
        if len(te) != len(ta) or not all(map(_tokens_match, te, ta)):
            return f"expected {e!r}, got {a!r}"
    if len(exp_lines) != len(act_lines):
        return f"expected {len(exp_lines)} lines, got {len(act_lines)}"
    return None


def test_token_comparison_can_fail():
    assert _mismatch("leak 1e-15\n", "leak 3e-13\n") is None
    assert _mismatch("x 0.5\n", "x 0.5000000001\n") is None
    assert _mismatch("x 0.5\n", "x 0.50001\n") is not None
    assert _mismatch("x 1e-12\n", "x 2e-12\n") is not None
    assert _mismatch("rank_jr 2\n", "rank_jr 1\n") is not None
    assert _mismatch("x nan\n", "x 0.0\n") is not None
    assert _mismatch("exit: 0\n", "exit: 0\nextra\n") is not None


def _diagnostic_lines(text: str) -> list[str]:
    return [line for line in text.splitlines()
            if line.startswith("  ") and line.split()[0] in DIAGNOSTIC_KEYS]


@pytest.mark.parametrize("problem", PROBLEMS)
def test_golden_reports(problem, tmp_path):
    texts, head = run_problem(problem, tmp_path / "out")
    for name, text in texts.items():
        expected = (EXPECTED / f"{problem}.{name}.out").read_text()
        diff = _mismatch(expected, text)
        assert diff is None, f"{problem} {name}: {diff}"
    assert head == (EXPECTED / f"{problem}.fshd-head.hex").read_text().strip()
    # verify re-derives the defects from the stored Phi and seeds, bit for bit
    assert _diagnostic_lines(texts["verify"]) == _diagnostic_lines(texts["decompose"])
    assert len(_diagnostic_lines(texts["verify"])) == 2


def test_digest_listing_covers_every_output(tmp_path):
    """``golden/digests.py`` lists one sha256 per output of every command on
    every golden problem: 96 lines of problem, case, output and digest.
    Byte-identity claims between two checkouts rest on this listing."""
    spec = importlib.util.spec_from_file_location("digests", GOLDEN / "digests.py")
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    lines = []
    for problem in PROBLEMS:
        lines += digests.digest_problem(problem, str(GOLDEN / f"{problem}.txt"),
                                        tmp_path / problem)
    rows = [line.split("\t") for line in lines]
    assert len(rows) == 96 and all(len(row) == 4 for row in rows)
    assert len({tuple(row[:3]) for row in rows}) == 96
    assert all(re.fullmatch("[0-9a-f]{64}", row[3]) for row in rows)
    # every command exits 0, except beurling on the k > 1 problems (bad input)
    refused = {(problem, f"beurling-{fmt}") for problem in PROBLEMS if problem[:2] != "k1"
               for fmt in ("text", "csv")}
    exits = {(row[0], row[1]): row[3] for row in rows if row[2] == "exit"}
    assert len(exits) == 30
    assert all(sha == digests._sha("3" if key in refused else "0")
               for key, sha in exits.items())
