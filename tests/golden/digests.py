"""Print one sha256 per CLI output, to compare two checkouts byte for byte.

Run from the repository root with BLAS pinned to one thread, once per
checkout, and diff the two listings:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/golden/digests.py \\
        [problem.txt ...] > digests.txt

``PYTHONPATH`` picks the fibershift that runs, so the same script digests
another checkout with ``PYTHONPATH=<checkout>/src``. Every problem (the
golden problems next to this script, then the files named on the command
line) goes through every command in both report formats: ``analyze``,
``spectrum``, ``decompose --out``, ``verify`` of what decompose wrote, and
``beurling``, which exits 3 on problems with k > 1. Each run prints one
line per output, ``problem  case  output  sha256``, for its exit code,
stdout, stderr and, for decompose, the ``.fshd`` file. The output directory
is replaced by ``<out>`` before hashing, so listings of two runs compare.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from fibershift.cli import main

GOLDEN = Path(__file__).resolve().parent
PROBLEMS = ("k2_two_seeds", "k3_vanishing", "k1_blaschke")


def _sha(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def run(argv: list[str], out: str) -> dict[str, str]:
    """Digests of one CLI run's exit code, stdout and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:       # usage errors exit through argparse
            code = exc.code
    return {"exit": _sha(str(code)),
            "stdout": _sha(stdout.getvalue().replace(out, "<out>")),
            "stderr": _sha(stderr.getvalue().replace(out, "<out>"))}


def digest_problem(name: str, path: str, tmp: Path) -> list[str]:
    lines = []
    for fmt in ("text", "csv"):
        out = str(tmp / fmt)
        cases = {"analyze": ["analyze", path], "spectrum": ["spectrum", path],
                 "decompose": ["decompose", path, "--out", out],
                 "verify": ["verify", out], "beurling": ["beurling", path]}
        for case, argv in cases.items():
            digests = run(argv + ["--format", fmt], out)
            if case == "decompose":
                fshd = Path(out) / "decomposition.fshd"
                digests["fshd"] = _sha(fshd.read_bytes()) if fshd.exists() else "-"
            lines += [f"{name}\t{case}-{fmt}\t{kind}\t{sha}" for kind, sha in digests.items()]
    return lines


def main_digests(paths: list[str]) -> None:
    named = [(p, str(GOLDEN / f"{p}.txt")) for p in PROBLEMS]
    named += [(p, p) for p in paths]
    for name, path in named:
        with tempfile.TemporaryDirectory() as tmp:
            for line in digest_problem(name, path, Path(tmp)):
                print(line, flush=True)


if __name__ == "__main__":
    main_digests(sys.argv[1:])
