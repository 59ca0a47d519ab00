"""Print one sha256 per CLI output, to compare two checkouts byte for byte.

Run from the repository root with BLAS pinned to one thread, once per
checkout, and diff the two listings:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/golden/digests.py \\
        [problem.txt ...] [--bench SEED ...] > digests.txt

``PYTHONPATH`` picks the fibershift that runs, so the same script digests
another checkout with ``PYTHONPATH=<checkout>/src``. ``--bench 11 29``
adds the benchmark's problem files at those input seeds: for each seed and
workload, ``bench/workloads.generate`` writes them into a temporary
directory (it is imported without writing bytecode, so nothing is added
under ``bench/``). Every problem (the golden problems next to this script,
then the benchmark's, then the files named on the command line) goes
through every command in both report formats: ``analyze``,
``spectrum``, ``decompose --out``, ``verify`` of what decompose wrote, and
``beurling``, which exits 3 on problems with k > 1. Each run prints one
line per output, ``problem  case  output  sha256``, for its exit code,
stdout, stderr and, for decompose, the ``.fshd`` file. The output directory
is replaced by ``<out>`` before hashing, so listings of two runs compare.
With ``--bench 11 29`` the listing has 928 lines.
"""

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from fibershift.cli import main

GOLDEN = Path(__file__).resolve().parent
ROOT = GOLDEN.parents[1]
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


def bench_problems(seeds: list[int], workdir: Path) -> list[tuple[str, str]]:
    """(name, path) of every benchmark problem file at each input seed,
    written under ``workdir`` by ``bench/workloads.generate``."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "tests")]
    from workloads import WORKLOADS, generate

    named = []
    for seed in seeds:
        for workload in WORKLOADS:
            out = workdir / f"{workload}-{seed}"
            manifest = generate(workload, seed, "desk", str(out))
            named += [(f"{workload}/{seed}/{p['name']}", str(out / p["file"]))
                      for p in manifest["problems"]]
    return named


def main_digests(paths: list[str], bench_seeds: list[int]) -> None:
    with tempfile.TemporaryDirectory() as workdir:
        named = [(p, str(GOLDEN / f"{p}.txt")) for p in PROBLEMS]
        named += bench_problems(bench_seeds, Path(workdir))
        named += [(p, p) for p in paths]
        for name, path in named:
            with tempfile.TemporaryDirectory() as tmp:
                for line in digest_problem(name, path, Path(tmp)):
                    print(line, flush=True)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="*", help="more problem files")
    parser.add_argument("--bench", nargs="+", type=int, default=[], metavar="SEED",
                        help="add the benchmark's problem files at these input seeds")
    args = parser.parse_args()
    main_digests(args.paths, args.bench)
