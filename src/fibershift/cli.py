"""Command-line front end.

Subcommands: analyze, decompose, beurling, verify, spectrum. Problem files
follow the text format documented in fileio; decompose persists its result
in the binary layout and verify re-checks a persisted result. Exit codes:
0 success, 2 a mathematical invariant failed, 3 bad input.

Generator lists in problem files are seeds: the pipelines close them under
the fiber shift before building spans, so every analyzed subspace is shift
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
from .beurling import INNER_TOL_DEFAULT, phi_representation, range_of_phi
from .errors import BoundsError, FibershiftError, ParseError
from .factorization import decompose_range, verify_decomposition
from .fileio import (Report, load_decomposition, load_problem, problem_fields,
                     render_csv, render_text, save_decomposition)
from .ranges import (generator_ranks, range_from_generators, spectrum,
                     spectrum_from_ranks)
from .shifts import is_S_invariant, shat_closure
from .subspaces import subspace_distance
from .wandering import wandering_range


def _unit_interval(text: str) -> float:
    if not 0.0 < float(text) < 1.0:
        raise argparse.ArgumentTypeError(f"{text} does not lie in (0, 1)")
    return float(text)


def _problem_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--rank-tol", type=float, default=None,
                    help="override the rank cutoff from the problem file")
    sp.add_argument("--orth-tol", type=float, default=None,
                    help="override the orthogonality tolerance")
    sp.add_argument("--inner-tol", type=_unit_interval, default=None,
                    help="override the inner-modulus tolerance")
    sp.add_argument("--seed", type=int, default=None,
                    help="seed recorded in the report for fixture scripts")


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
    for name, doc in (
            ("analyze", "ranks, spectrum, invariance, wandering partition"),
            ("decompose", "factor through a full Hardy space and persist"),
            ("beurling", "scalar inner extraction (k = 1 problems)"),
            ("spectrum", "fibers with nonzero range"),
    ):
        sp = sub.add_parser(name, help=doc)
        sp.add_argument("path", help="problem file")
        _problem_flags(sp)
        _output_flags(sp)
    # a persisted result carries its own tolerances
    sp = sub.add_parser("verify", help="re-check a persisted decomposition")
    sp.add_argument("path", help="result directory or .fshd file")
    _output_flags(sp)
    return p


def _load(args) -> tuple:
    pf = load_problem(args.path)
    lat = pf.lattice
    overrides = {}
    if args.rank_tol is not None:
        overrides["rank_tol"] = args.rank_tol
    if args.orth_tol is not None:
        overrides["orth_tol"] = args.orth_tol
    if overrides:
        lat = dataclasses.replace(lat, **overrides)
        pf = dataclasses.replace(pf, lattice=lat)
    inner_tol = args.inner_tol if args.inner_tol is not None else pf.inner_tol
    seeds = problem_fields(pf)
    gens = shat_closure(seeds)
    notes = (f"shat-closure: applied ({len(seeds)} -> {len(gens)} generators)",)
    if args.seed is not None:
        notes += (f"seed: {args.seed}",)
    return pf, lat, inner_tol, gens, notes


def _ranks(ranks) -> tuple[int, ...]:
    return tuple(int(r) for r in ranks)


def _partition_counts(ranks) -> tuple[tuple[int, int], ...]:
    """(dimension, fiber count) for every wandering dimension that occurs."""
    return tuple((dim, int(n)) for dim, n in enumerate(np.bincount(ranks)) if n)


def cmd_analyze(args) -> tuple[Report, int]:
    pf, lat, inner_tol, gens, notes = _load(args)
    jm = range_from_generators(gens, lat)
    ok, leak = is_S_invariant(jm)
    base = dict(command="analyze", version=__version__, digest=pf.digest,
                lattice=lat, inner_tol=inner_tol, notes=notes,
                s_invariant=ok, s_leak=leak,
                spectrum=tuple(spectrum(jm)), ranks_jm=_ranks(jm.ranks()))
    if not ok:
        return Report(**base), 2
    ranks_jr = wandering_range(jm).ranks()
    report = Report(**base, ranks_jr=_ranks(ranks_jr),
                    partition=_partition_counts(ranks_jr))
    return report, 0


def cmd_spectrum(args) -> tuple[Report, int]:
    pf, lat, inner_tol, gens, notes = _load(args)
    ranks = _ranks(generator_ranks(gens, lat))
    report = Report(command="spectrum", version=__version__, digest=pf.digest,
                    lattice=lat, inner_tol=inner_tol, notes=notes,
                    spectrum=tuple(spectrum_from_ranks(ranks)),
                    ranks_jm=ranks)
    return report, 0


def cmd_decompose(args) -> tuple[Report, int]:
    pf, lat, inner_tol, gens, notes = _load(args)
    jm = range_from_generators(gens, lat)
    res = decompose_range(jm)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        save_decomposition(res, jm, os.path.join(args.out, "decomposition.fshd"))
        notes += ("persisted: decomposition.fshd",)
    ok, leak = is_S_invariant(jm)
    report = Report(command="decompose", version=__version__, digest=pf.digest,
                    lattice=lat, inner_tol=inner_tol, notes=notes,
                    s_invariant=ok, s_leak=leak,
                    spectrum=tuple(spectrum(jm)), ranks_jm=_ranks(jm.ranks()),
                    ranks_jr=_ranks(res.ranks),
                    partition=_partition_counts(res.ranks),
                    diagnostics=tuple(sorted(res.diagnostics.items())))
    bad = any(not v <= lat.orth_tol for _, v in report.diagnostics)
    return report, 2 if bad else 0


def cmd_beurling(args) -> tuple[Report, int]:
    pf, lat, inner_tol, gens, notes = _load(args)
    if lat.k != 1:
        raise ValueError("beurling requires a k = 1 problem")
    jm = range_from_generators(gens, lat)
    res = decompose_range(jm)
    phi = phi_representation(res, inner_tol)
    rphi = range_of_phi(phi)
    dist = max(subspace_distance(rphi.frames[m], jm.frames[m])
               for m in range(lat.n_lambda))
    diagnostics = tuple(sorted(res.diagnostics.items()))
    diagnostics += (("phi_range_distance", dist),)
    report = Report(command="beurling", version=__version__, digest=pf.digest,
                    lattice=lat, inner_tol=inner_tol, notes=notes,
                    spectrum=tuple(spectrum(jm)), ranks_jm=_ranks(jm.ranks()),
                    ranks_jr=_ranks(res.ranks),
                    partition=_partition_counts(res.ranks),
                    diagnostics=diagnostics,
                    inner_defects=tuple(float(d) for d in phi.inner_defects()))
    bad = (not dist <= 10.0 * lat.orth_tol
           or any(not v <= lat.orth_tol for key, v in diagnostics
                  if key != "phi_range_distance")
           or any(not d <= inner_tol for d in report.inner_defects))
    return report, 2 if bad else 0


def cmd_verify(args) -> tuple[Report, int]:
    path = args.path
    if os.path.isdir(path):
        path = os.path.join(path, "decomposition.fshd")
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    res, jm = load_decomposition(path)
    lat = res.lattice
    diagnostics = verify_decomposition(res, jm)
    report = Report(command="verify", version=__version__, digest=digest,
                    lattice=lat, inner_tol=INNER_TOL_DEFAULT,
                    ranks_jm=_ranks(jm.ranks()), ranks_jr=_ranks(res.ranks),
                    spectrum=tuple(spectrum(jm)),
                    partition=_partition_counts(res.ranks),
                    diagnostics=tuple(sorted(diagnostics.items())))
    bad = any(not v <= lat.orth_tol for _, v in report.diagnostics)
    return report, 2 if bad else 0


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
        report, code = _COMMANDS[args.command](args)
    except np.linalg.LinAlgError as exc:  # a ValueError, but not bad input
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ParseError, BoundsError, OSError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except FibershiftError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    rendered = render_csv(report) if args.format == "csv" else render_text(report)
    sys.stdout.write(rendered)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        name = "report.csv" if args.format == "csv" else "report.txt"
        with open(os.path.join(args.out, name), "w") as fh:
            fh.write(rendered)
    return code


if __name__ == "__main__":
    sys.exit(main())
