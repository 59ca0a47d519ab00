"""Command-line front end.

Subcommands: analyze, decompose, beurling, verify, spectrum. Problem files
follow the text format documented in fileio; decompose persists its result
in the binary layout and verify re-checks a persisted result against the
seeds stored with it. Each command returns the Report of what it measured.
Exit codes: 0 success, 2 a mathematical invariant failed
(``Report.exit_code`` or a refusal), 3 bad input.

Generator lists in problem files are seeds: the pipelines span them
together with their fiber shifts, so every analyzed subspace is shift
invariant by construction. Reports record that the closure was applied.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys

import numpy as np

from . import __version__
from .beurling import phi_range_frames, phi_representation
from .errors import BoundsError, FibershiftError, ParseError
from .factorization import decompose_range, verify_decomposition
from .fileio import (Report, load_decomposition, load_problem, problem_fields,
                     render_csv, render_text, save_decomposition)
from .ranges import closure_range, generator_frames, generator_ranks
from .shifts import closure_counts, is_S_invariant, shat_closure
from .subspaces import subspace_distance
from .wandering import wandering_ranks


def _problem_flags(sp: argparse.ArgumentParser, tols: tuple[str, ...]) -> None:
    """A command offers the overrides of the tolerances it decides at; any
    other is a usage error, since it would only change a printed number."""
    for tol, what in (("rank", "the rank cutoff from the problem file"),
                      ("orth", "the orthogonality tolerance"),
                      ("inner", "the inner-modulus tolerance")):
        if tol in tols:
            sp.add_argument(f"--{tol}-tol", type=float, default=None, help=f"override {what}")


def _output_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--format", choices=("text", "csv"), default="text",
                    help="report format (default text)")
    sp.add_argument("--out", default=None,
                    help="directory for the report and any persisted results")


class _Parser(argparse.ArgumentParser):
    """Usage errors are bad input and exit 3; argparse's own exit 2 would read
    as a failed invariant. Subcommand parsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="fibershift",
        description="shift-invariant subspace analysis on a truncation lattice")
    sub = p.add_subparsers(dest="command", required=True)
    for name, doc, tols in (
            ("analyze", "ranks, spectrum, invariance, wandering partition", ("rank", "orth")),
            ("decompose", "factor through a full Hardy space and persist", ("rank", "orth")),
            ("beurling", "scalar inner extraction (k = 1 problems)", ("rank", "orth", "inner")),
            ("spectrum", "fibers with nonzero range", ("rank",)),
    ):
        sp = sub.add_parser(name, help=doc)
        sp.add_argument("path", help="problem file")
        _problem_flags(sp, tols)
        _output_flags(sp)
    # a persisted result carries its own tolerances
    sp = sub.add_parser("verify", help="re-check a persisted decomposition")
    sp.add_argument("path", help="result directory or .fshd file")
    _output_flags(sp)
    return p


def _load(args) -> tuple:
    pf = load_problem(args.path)
    # an out-of-range override fails the lattice's own check: bad input
    overrides = {name: v for name in ("rank_tol", "orth_tol", "inner_tol")
                 if (v := getattr(args, name, None)) is not None}
    pf = dataclasses.replace(pf, lattice=dataclasses.replace(pf.lattice, **overrides))
    seeds = problem_fields(pf)
    notes = (f"shat-closure: applied ({len(seeds)} -> {sum(closure_counts(seeds))} "
             "generators)",)
    return pf, pf.lattice, seeds, notes


def _ranks(ranks) -> tuple[int, ...]:
    return tuple(int(r) for r in ranks)


def cmd_analyze(args) -> Report:
    pf, lat, seeds, notes = _load(args)
    # each closure frame goes to the wandering step as it is made, and is
    # dropped once its rank and leak are read
    ranks_jm, leak, ranks_jr = wandering_ranks(generator_frames(shat_closure(seeds), lat), lat)
    return Report(command="analyze", version=__version__, digest=pf.digest,
                  lattice=lat, notes=notes,
                  s_leak=leak, ranks_jm=_ranks(ranks_jm),
                  ranks_jr=None if ranks_jr is None else _ranks(ranks_jr))


def cmd_spectrum(args) -> Report:
    pf, lat, seeds, notes = _load(args)
    return Report(command="spectrum", version=__version__, digest=pf.digest,
                  lattice=lat, notes=notes,
                  ranks_jm=_ranks(generator_ranks(shat_closure(seeds), lat)))


def cmd_decompose(args) -> Report:
    pf, lat, seeds, notes = _load(args)
    jm = closure_range(seeds, lat)
    res = decompose_range(jm, seeds)
    if args.out:
        save_decomposition(res, jm, os.path.join(args.out, "decomposition.fshd"))
        notes += ("persisted: decomposition.fshd",)
    _, leak = is_S_invariant(jm)
    return Report(command="decompose", version=__version__, digest=pf.digest,
                  lattice=lat, notes=notes,
                  s_leak=leak, ranks_jm=_ranks(jm.ranks()),
                  ranks_jr=_ranks(res.ranks),
                  diagnostics=tuple(sorted(res.diagnostics.items())))


def cmd_beurling(args) -> Report:
    """Decompose a k = 1 problem and compare, fiber by fiber, the span of
    phi's n_z shifts with J's frame as that span is made: the range of phi
    (``range_of_phi``'s frames, bit for bit) is never held beside J."""
    pf, lat, seeds, notes = _load(args)
    if lat.k != 1:
        raise ValueError("beurling requires a k = 1 problem")
    jm = closure_range(seeds, lat)
    res = decompose_range(jm, seeds)
    phi = phi_representation(res)
    dist = max(subspace_distance(q, jm.frames[m])
               for m, q in enumerate(phi_range_frames(phi)))
    return Report(command="beurling", version=__version__, digest=pf.digest,
                  lattice=lat, notes=notes,
                  ranks_jm=_ranks(jm.ranks()), ranks_jr=_ranks(res.ranks),
                  diagnostics=(*sorted(res.diagnostics.items()),
                               ("phi_range_distance", dist)),
                  inner_defects=tuple(float(d) for d in phi.inner_defects()))


def cmd_verify(args) -> Report:
    path = args.path
    if os.path.isdir(path):
        path = os.path.join(path, "decomposition.fshd")
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            sha.update(chunk)
    digest = sha.hexdigest()
    # the file's range frames are not checked against its seeds, so verify
    # reports no range ranks
    res, _ = load_decomposition(path)
    diagnostics = verify_decomposition(res)
    return Report(command="verify", version=__version__, digest=digest,
                  lattice=res.lattice,
                  ranks_jr=_ranks(res.ranks),
                  diagnostics=tuple(sorted(diagnostics.items())))


_COMMANDS = {
    "analyze": cmd_analyze,
    "decompose": cmd_decompose,
    "beurling": cmd_beurling,
    "spectrum": cmd_spectrum,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # before the command runs, so an unusable directory prints no report
        if args.out:
            os.makedirs(args.out, exist_ok=True)
        report = _COMMANDS[args.command](args)
        rendered = render_csv(report) if args.format == "csv" else render_text(report)
        # before printing, so a report that cannot be written prints nothing
        if args.out:
            name = "report.csv" if args.format == "csv" else "report.txt"
            with open(os.path.join(args.out, name), "w") as fh:
                fh.write(rendered)
    except np.linalg.LinAlgError as exc:  # a ValueError, but not bad input
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ParseError, BoundsError, OSError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except FibershiftError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(rendered)
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
