"""Pins BLAS to one thread, and collects the acceptance gate verdicts and
prints them after the run.

The gates' time budgets are single-core budgets, and default BLAS threading
oversubscribes small machines. pytest imports this file before any test
module, so the thread variables are set before numpy loads; values already
set in the environment win. ``test_reports_reproducible`` strips them for
its threaded subprocess, so threaded BLAS stays covered.

File-descriptor capture swallows even direct writes to the original stdout,
so the gates record their PASS/FAIL lines here and a terminal-summary hook
emits them where every pytest invocation (captured or not) will show them.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "GOTO_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance gates")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)
