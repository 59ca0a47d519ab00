"""Rewrite the golden CLI fixture under ``tests/golden/expected``.

Run from the repository root with BLAS pinned to one thread:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/golden/regen.py

The problem files next to this script are inputs and are never rewritten.
Every regeneration needs a CHANGES.md entry that says why the outputs moved.
"""

import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(TESTS))

from test_golden import EXPECTED, PROBLEMS, run_problem  # noqa: E402


def main() -> None:
    EXPECTED.mkdir(exist_ok=True)
    for problem in PROBLEMS:
        with tempfile.TemporaryDirectory() as tmp:
            texts, head = run_problem(problem, Path(tmp) / "out")
        for name, text in texts.items():
            (EXPECTED / f"{problem}.{name}.out").write_text(text)
        (EXPECTED / f"{problem}.fshd-head.hex").write_text(head + "\n")
        print(f"{problem}: {len(texts)} reports")


if __name__ == "__main__":
    main()
