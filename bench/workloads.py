"""The benchmark's three workloads: inputs, operations and output checks.

Inputs come from the test suite's desk recipe (``laurent_seeds`` in
``tests/helpers.py``) and are drawn once from the seed, without rejection.
They are written to a work directory as problem files and ``.npy`` fields;
fibershift only ever sees those files and the fields loaded from them.

A workload is a fixed list of operations. Each operation is one CLI command
(``fibershift.cli.main`` in-process, stdout captured) or one library call,
tagged with a step name and the problem it belongs to. Its ``check`` runs
outside the timed region and returns the reasons it failed, if any. Checks
use independent oracles (pseudoinverse projectors and ranks of the raw
generator columns, closed-form Blaschke coefficients, projectors of the
drawn bases), never golden bytes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import fibershift as fs
from fibershift.errors import BaseNotConstant
from helpers import (blaschke_coeffs, brute_projector, haar_frame,
                     haar_unitary, laurent_seeds, run_cli, write_problem)

WORKLOADS = ("desk-decompose", "desk-analyze", "scalar-beurling")

# (n_lambda, n_z) and per-workload problem mixes. A problem is (k, seed
# count, with remix, vanish): the seed count is at most k (directions are
# orthonormal), and vanish = d > 0 gives the first seed the recipe's factor
# (lambda^(n_lambda/d) - 1)/2, which zeroes it on a subgroup of fibers. The
# recipe draws that factor at random; fixing it per slot keeps the amount of
# work from swinging with the seed. Bases and chains list k per full Hardy
# input.
SCALES = {
    "desk": dict(
        grid=(64, 64),
        decompose=[(2, 1, True, 0), (3, 1, False, 4), (4, 1, False, 0)],
        analyze=[(2, 2, False, 4), (3, 3, False, 0), (4, 1, False, 0)],
        bases=[3], chains=[3],
        beurling=[(1, 1, False, 0)] * 4 + [(1, 1, False, 4), (1, 1, False, 2)],
        quotient=[(1, 1, True, 0)], blaschke_inner=3, blaschke_outer=1),
    "tiny": dict(
        grid=(8, 8),
        decompose=[(2, 1, True, 4)],
        analyze=[(2, 2, False, 0)],
        bases=[2], chains=[2],
        beurling=[(1, 1, False, 4)],
        quotient=[(1, 1, True, 0)], blaschke_inner=1, blaschke_outer=1),
}
SHAPE_SEED = 0          # fixes the problem shapes; see ShapeFixedRng
BLASCHKE_NZ = 64        # closed form truncates at |a|^n_z, so always n_z = 64
ORACLE_FIBERS = 3       # fibers per problem checked against pinv oracles
PROJECTOR_TOL = 1e-6    # frame projector vs pinv projector, max entry
BASE_TOL = 1e-7         # recovered full Hardy base vs drawn base
BLASCHKE_TOL = 1e-8


# -- inputs -------------------------------------------------------------------

def evaluate(polys, n_lambda: int, n_z: int, k: int) -> np.ndarray:
    """Seed fields on the grid, (r, n_lambda, n_z, k), without fibershift."""
    out = np.zeros((len(polys), n_lambda, n_z, k), dtype=complex)
    m = np.arange(n_lambda)
    for g, poly in enumerate(polys):
        for (p, j, i, c) in poly.terms:
            out[g, :, j, i - 1] += c * np.exp(2j * np.pi * ((m * p) % n_lambda)
                                              / n_lambda)
    return out


class ShapeFixedRng:
    """Generator for ``laurent_seeds`` that draws shapes and values apart.

    Integer draws (degree shift, root counts, lambda exponents, ranks) come
    from a stream that is the same for every seed, so every seed runs the
    same problem shapes; continuous draws (root moduli and phases, direction
    unitaries) come from the seeded stream. LAPACK's run time depends on the
    shape (a monomial's shifts deflate at once), so this keeps the work per
    run from swinging with the seed while the values still vary.
    """

    def __init__(self, shapes: np.random.Generator, values: np.random.Generator):
        self.integers = shapes.integers
        self.choice = shapes.choice
        self.random = values.random
        self.standard_normal = values.standard_normal


def with_vanishing(poly, t: int):
    """The recipe's vanishing factor: poly * (lambda^t - 1) / 2."""
    terms: dict[tuple[int, int, int], complex] = {}
    for (m, j, i, c) in poly.terms:
        terms[(m + t, j, i)] = terms.get((m + t, j, i), 0.0) + 0.5 * c
        terms[(m, j, i)] = terms.get((m, j, i), 0.0) - 0.5 * c
    return fs.LaurentPolyField([(m, j, i, c) for (m, j, i), c in sorted(terms.items())])


def remix(seeds: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Span-preserving remix of seed fields: scaled unitary mix, permuted.

    The mix is invertible and commutes with the fiber shift, so the shift
    closure of the remixed seeds spans the same subspace.
    """
    r = seeds.shape[0]
    u = haar_unitary(rng, r) * (0.5 + 1.5 * rng.random(r))[None, :]
    mixed = np.einsum("gc,g...->c...", u, seeds)
    return mixed[rng.permutation(r)]


def generate(workload: str, seed: int, scale: str, workdir: str) -> dict:
    """Draw every input of a workload and write it under ``workdir``.

    Returns the manifest (also written as ``manifest.json``): file names,
    lattice sizes and the fibers each problem is checked on.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    cfg = SCALES[scale]
    n_lambda, n_z = cfg["grid"]
    salt = WORKLOADS.index(workload)
    rng = np.random.default_rng([seed, salt])
    shaped = ShapeFixedRng(np.random.default_rng([SHAPE_SEED, salt]), rng)
    os.makedirs(workdir, exist_ok=True)
    man = {"workload": workload, "seed": seed, "scale": scale,
           "grid": [n_lambda, n_z], "problems": [], "bases": [], "chains": [],
           "blaschke": []}

    def problem(prefix, idx, spec):
        k, r, with_remix, vanish = spec
        name = f"{prefix}{idx}-k{k}r{r}"
        lat = fs.TruncationLattice(n_lambda, n_z, k)
        polys = laurent_seeds(shaped, lat, r, vanish=False)
        if vanish:
            polys[0] = with_vanishing(polys[0], n_lambda // vanish)
        path = os.path.join(workdir, f"{name}.txt")
        write_problem(path, lat, polys)
        seeds = evaluate(polys, n_lambda, n_z, k)
        np.save(os.path.join(workdir, f"{name}.seeds.npy"), seeds)
        entry = {"name": name, "k": k, "r": r, "file": f"{name}.txt",
                 "seeds": f"{name}.seeds.npy",
                 "fibers": sorted(int(m) for m in rng.choice(
                     n_lambda, ORACLE_FIBERS, replace=False))}
        if with_remix:
            entry["remix"] = f"{name}.remix.npy"
            np.save(os.path.join(workdir, entry["remix"]), remix(seeds, rng))
        man["problems"].append(entry)

    if workload == "desk-decompose":
        for idx, spec in enumerate(cfg["decompose"]):
            problem("p", idx, spec)
    elif workload == "desk-analyze":
        for idx, spec in enumerate(cfg["analyze"]):
            problem("p", idx, spec)
        for idx, k in enumerate(cfg["bases"]):
            ranks = shaped.integers(0, k + 1, size=n_lambda)
            frames = np.zeros((n_lambda, k, k), dtype=complex)
            for m in range(n_lambda):
                frames[m, :, : ranks[m]] = haar_frame(rng, k, int(ranks[m]))
            name = f"base{idx}-k{k}"
            np.savez(os.path.join(workdir, f"{name}.npz"), frames=frames,
                     ranks=ranks)
            man["bases"].append({"name": name, "k": k, "file": f"{name}.npz"})
        for idx, k in enumerate(cfg["chains"]):
            s = int(shaped.integers(1, 3))
            v = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            data = np.zeros((n_lambda, n_z, k), dtype=complex)
            data[:, s, :] = v / np.linalg.norm(v)
            name = f"chain{idx}-k{k}"
            np.save(os.path.join(workdir, f"{name}.npy"), data)
            man["chains"].append({"name": name, "k": k, "file": f"{name}.npy"})
    else:
        for idx, spec in enumerate(cfg["beurling"]):
            problem("p", idx, spec)
        for idx, spec in enumerate(cfg["quotient"]):
            problem("q", idx, spec)
        for idx in range(cfg["blaschke_inner"] + cfg["blaschke_outer"]):
            lo, hi = (0.1, 0.6) if idx < cfg["blaschke_inner"] else (1.5, 3.0)
            a = (lo + (hi - lo) * rng.random()) * np.exp(2j * np.pi * rng.random())
            man["blaschke"].append({"name": f"blaschke{idx}",
                                    "a": [a.real, a.imag]})
    with open(os.path.join(workdir, "manifest.json"), "w") as fh:
        json.dump(man, fh, indent=1)
    return man


@dataclass
class Loaded:
    """Inputs as the program receives them."""

    problems: dict[str, Any] = field(default_factory=dict)   # ProblemFile
    fields: dict[str, list] = field(default_factory=dict)     # FiberedFields
    remixes: dict[str, list] = field(default_factory=dict)   # FiberedFields
    bases: dict[str, Any] = field(default_factory=dict)      # RangeFunctionK
    chains: dict[str, Any] = field(default_factory=dict)     # FiberedField
    blaschke: dict[str, Any] = field(default_factory=dict)   # ScalarH2


def load_inputs(man: dict, workdir: str) -> Loaded:
    """Parse every input the way a user of the package would load it.

    Problem files go through ``load_problem`` and ``problem_fields`` (what
    every CLI command does before touching a fiber); fields and bases are
    read from ``.npy``/``.npz``. This is the loading half of ``setup_s``.
    """
    n_lambda, n_z = man["grid"]
    out = Loaded()
    for p in man["problems"]:
        pf = fs.load_problem(os.path.join(workdir, p["file"]))
        out.problems[p["name"]] = pf
        out.fields[p["name"]] = fs.problem_fields(pf)
        if "remix" in p:
            lat = pf.lattice
            data = np.load(os.path.join(workdir, p["remix"]))
            out.remixes[p["name"]] = [fs.FiberedField(lat, d) for d in data]
    for b in man["bases"]:
        lat = fs.TruncationLattice(n_lambda, n_z, b["k"])
        with np.load(os.path.join(workdir, b["file"])) as z:
            frames = tuple(z["frames"][m][:, : z["ranks"][m]]
                           for m in range(n_lambda))
        out.bases[b["name"]] = fs.RangeFunctionK(lat, frames)
    for c in man["chains"]:
        lat = fs.TruncationLattice(n_lambda, n_z, c["k"])
        out.chains[c["name"]] = fs.FiberedField(
            lat, np.load(os.path.join(workdir, c["file"])))
    for b in man["blaschke"]:
        g = np.zeros(BLASCHKE_NZ, dtype=complex)
        g[0], g[1] = -complex(*b["a"]), 1.0
        out.blaschke[b["name"]] = fs.ScalarH2(g)
    return out


# -- oracles and report parsing -------------------------------------------------

def closure_columns(seeds: np.ndarray, m: int) -> np.ndarray:
    """Raw generator columns at fiber m: every shift of every seed."""
    _, _, n_z, k = seeds.shape
    cols = []
    for v in seeds[:, m]:
        for j in range(n_z):
            s = np.zeros_like(v)
            s[j:] = v[: n_z - j]
            cols.append(s.ravel())
    return np.array(cols).T


def numerical_rank(a: np.ndarray, rel_tol: float) -> int:
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.count_nonzero(s > rel_tol * s[0])) if s.size and s[0] > 0 else 0


def oracle_ranks(seeds: np.ndarray, m: int, rank_tol: float) -> tuple[int, int]:
    """(rank of J_M, wandering dimension) at fiber m from raw columns.

    J_M contains S J_M, so the wandering part J_M - S J_M has dimension
    rank(cols) - rank(S cols).
    """
    cols = closure_columns(seeds, m)
    k = seeds.shape[3]
    shifted = np.zeros_like(cols)
    shifted[k:] = cols[:-k]
    r = numerical_rank(cols, rank_tol)
    return r, r - numerical_rank(shifted, rank_tol)


def parse_report(text: str) -> dict:
    """The facts the checks read from a text report."""
    out = {"diagnostics": {}, "ranks_jm": [], "ranks_jr": [],
           "inner_defect": None, "spectrum": None}
    in_diag = False
    for line in text.splitlines():
        if line == "diagnostics:":
            in_diag = True
            continue
        if in_diag and line.startswith("  "):
            key, val = line.split()
            out["diagnostics"][key] = float(val)
            continue
        in_diag = False
        if line.startswith("spectrum: "):
            out["spectrum"] = int(line.split()[1])
        elif line.startswith("max inner defect: "):
            out["inner_defect"] = float(line.split(": ")[1])
        elif line.startswith("  fiber "):
            fields_ = dict(part.strip().split(" ")
                           for part in line.split(":", 1)[1].split(","))
            out["ranks_jm"].append(int(fields_["rank_jm"]))
            if "rank_jr" in fields_:
                out["ranks_jr"].append(int(fields_["rank_jr"]))
    return out


# -- operations -----------------------------------------------------------------

@dataclass
class Op:
    step: str                       # end-to-end step the time is summed into
    problem: str                    # input it belongs to; trace id of its spans
    root: str                       # root span name in the traced run
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]


def _cli(argv: list[str]) -> Callable[[], tuple[int, str]]:
    return lambda: run_cli(argv)


def _check_ranks(rep: dict, p: dict, seeds: np.ndarray, rank_tol: float,
                 want_jr: bool) -> list[str]:
    errs = []
    if len(rep["ranks_jm"]) != seeds.shape[1]:
        return [f"report lists {len(rep['ranks_jm'])} fibers"]
    for m in p["fibers"]:
        r, w = oracle_ranks(seeds, m, rank_tol)
        if rep["ranks_jm"][m] != r:
            errs.append(f"fiber {m}: rank_jm {rep['ranks_jm'][m]} != oracle {r}")
        if want_jr and rep["ranks_jr"][m] != w:
            errs.append(f"fiber {m}: rank_jr {rep['ranks_jr'][m]} != oracle {w}")
    if rep["spectrum"] != sum(1 for r in rep["ranks_jm"] if r > 0):
        errs.append("spectrum count disagrees with fiber ranks")
    return errs


def _exit_ok(out) -> list[str]:
    code, _ = out
    return [] if code == 0 else [f"exit code {code}"]


def _diag_errors(diags: dict, keys, tol: float) -> list[str]:
    missing = [key for key in keys if key not in diags]
    if missing:
        return [f"missing diagnostics {missing}"]
    return [f"{key} {diags[key]:.3e} > {tol:.0e}" for key in keys
            if not diags[key] <= tol]


def decompose_ops(p: dict, ld: Loaded, workdir: str) -> list[Op]:
    pf = ld.problems[p["name"]]
    lat = pf.lattice
    path = os.path.join(workdir, p["file"])
    outdir = os.path.join(workdir, p["name"] + ".out")
    fshd = os.path.join(outdir, "decomposition.fshd")
    seeds = np.load(os.path.join(workdir, p["seeds"]))
    state: dict = {}

    def check_decompose(out):
        errs = _exit_ok(out)
        rep = parse_report(out[1])
        state["diagnostics"] = rep["diagnostics"]
        errs += _diag_errors(rep["diagnostics"], fs.DIAGNOSTIC_KEYS, lat.orth_tol)
        errs += _check_ranks(rep, p, seeds, lat.rank_tol, want_jr=True)
        try:
            res, jm = fs.load_decomposition(fshd)
        except (OSError, fs.ParseError) as exc:
            return errs + [f"unreadable {fshd}: {exc}"]
        if res.diagnostics != rep["diagnostics"]:
            errs.append("persisted diagnostics differ from the report")
        if (jm.ranks().tolist() != rep["ranks_jm"]
                or res.base.ranks().tolist() != rep["ranks_jr"]):
            errs.append("persisted ranks differ from the report")
        for m in p["fibers"]:
            q = jm.frames[m]
            gap = np.abs(q @ q.conj().T - brute_projector(
                closure_columns(seeds, m), lat.rank_tol)).max()
            if not gap <= PROJECTOR_TOL:
                errs.append(f"fiber {m}: frame projector off by {gap:.2e}")
        return errs

    def check_verify(out):
        errs = _exit_ok(out)
        diags = parse_report(out[1])["diagnostics"]
        errs += _diag_errors(diags, fs.DIAGNOSTIC_KEYS, lat.orth_tol)
        before = state.get("diagnostics", {})
        for key in fs.DIAGNOSTIC_KEYS:
            if key in diags and key in before and not (
                    abs(diags[key] - before[key]) <= 0.01 * lat.orth_tol):
                errs.append(f"verify {key} {diags[key]:.3e} disagrees with "
                            f"decompose {before[key]:.3e}")
        return errs

    ops = [Op("decompose", p["name"], "cli.decompose",
              _cli(["decompose", path, "--out", outdir]), check_decompose),
           Op("verify", p["name"], "cli.verify", _cli(["verify", outdir]),
              check_verify)]
    if "remix" in p:
        gens = ld.remixes[p["name"]]

        def connect():
            res2 = fs.decompose(fs.shat_closure(gens), lat)
            res1, _ = fs.load_decomposition(fshd)
            return fs.connecting_isometry(res1, res2)[1]

        ops.append(Op("connect", p["name"], "bench.connect", connect,
                      lambda diag: _diag_errors(diag, fs.CONNECTING_KEYS,
                                                10.0 * lat.orth_tol)))
    return ops


def analyze_ops(p: dict, ld: Loaded, workdir: str) -> list[Op]:
    lat = ld.problems[p["name"]].lattice
    path = os.path.join(workdir, p["file"])
    seeds = np.load(os.path.join(workdir, p["seeds"]))
    state: dict = {}

    def check_analyze(out):
        rep = parse_report(out[1])
        state["ranks_jm"] = rep["ranks_jm"]
        return _exit_ok(out) + _check_ranks(rep, p, seeds, lat.rank_tol, True)

    def check_spectrum(out):
        rep = parse_report(out[1])
        errs = _exit_ok(out) + _check_ranks(rep, p, seeds, lat.rank_tol, False)
        if rep["ranks_jm"] != state.get("ranks_jm"):
            errs.append("spectrum ranks differ from analyze ranks")
        return errs

    return [Op("analyze", p["name"], "cli.analyze", _cli(["analyze", path]),
               check_analyze),
            Op("spectrum", p["name"], "cli.spectrum", _cli(["spectrum", path]),
               check_spectrum)]


def _recognize(jm) -> tuple[bool, Any]:
    try:
        return fs.is_full_hardy(jm)
    except BaseNotConstant:
        return False, None


def base_ops(name: str, base) -> list[Op]:
    state: dict = {}

    def embed():
        state["jm"] = fs.full_hardy_from_base(base)

    def recognize():
        return _recognize(state.pop("jm"))

    def check(out):
        ok, rec = out
        if not ok or rec is None:
            return ["full Hardy range not recognized"]
        worst = max(np.linalg.norm(a @ a.conj().T - b @ b.conj().T, 2)
                    if a.shape[1] + b.shape[1] else 0.0
                    for a, b in zip(rec.frames, base.frames))
        return [] if worst <= BASE_TOL else [f"base recovered to {worst:.2e}"]

    return [Op("embed", name, "bench.embed", embed, lambda out: []),
            Op("recognize", name, "bench.recognize", recognize, check)]


def chain_ops(name: str, chain) -> list[Op]:
    state: dict = {}

    def embed():
        state["jm"] = fs.range_from_generators(fs.shat_closure([chain]),
                                               chain.lattice)

    def recognize():
        return _recognize(state.pop("jm"))

    def check(out):
        return ["shifted chain accepted as full Hardy"] if out[0] else []

    return [Op("embed", name, "bench.embed", embed, lambda out: []),
            Op("recognize", name, "bench.recognize", recognize, check)]


def beurling_ops(p: dict, ld: Loaded, workdir: str) -> list[Op]:
    pf = ld.problems[p["name"]]
    lat = pf.lattice
    path = os.path.join(workdir, p["file"])
    seeds = np.load(os.path.join(workdir, p["seeds"]))

    def check(out):
        rep = parse_report(out[1])
        diags = dict(rep["diagnostics"])
        errs = _exit_ok(out)
        errs += _diag_errors(diags, ("phi_range_distance",), 10.0 * lat.orth_tol)
        errs += _diag_errors(diags, fs.DIAGNOSTIC_KEYS, lat.orth_tol)
        if rep["inner_defect"] is None or not rep["inner_defect"] <= pf.inner_tol:
            errs.append(f"inner defect {rep['inner_defect']}")
        return errs + _check_ranks(rep, p, seeds, lat.rank_tol, True)

    return [Op("beurling", p["name"], "cli.beurling", _cli(["beurling", path]),
               check)]


def quotient_ops(p: dict, ld: Loaded, workdir: str) -> list[Op]:
    pf = ld.problems[p["name"]]
    lat = pf.lattice
    gens1 = ld.fields[p["name"]]
    gens2 = ld.remixes[p["name"]]

    def quotient():
        phi1 = fs.phi_representation(fs.decompose(fs.shat_closure(gens1), lat))
        phi2 = fs.phi_representation(fs.decompose(fs.shat_closure(gens2), lat))
        return fs.inner_quotient(phi1, phi2), phi1, phi2

    def check(out):
        psi, phi1, phi2 = out
        errs = [] if phi1.support == phi2.support == psi.support else [
            "supports differ"]
        for m in sorted(phi1.support):
            c1, c2 = phi1.fibers[m].coeffs, phi2.fibers[m].coeffs
            c = np.vdot(c2, c1)
            q = psi.fibers[m].coeffs
            if not (abs(abs(c) - 1.0) <= pf.inner_tol and abs(q[0] - c) <= 1e-12
                    and not np.any(q[1:])
                    and np.abs(c1 - c * c2).max() <= lat.orth_tol):
                errs.append(f"fiber {m}: quotient {q[0]:.6f} vs {c:.6f}")
        return errs

    return [Op("quotient", p["name"], "bench.quotient", quotient, check)]


def blaschke_ops(name: str, a: complex, h2) -> list[Op]:
    def check(out):
        h, defect = out
        oracle = (blaschke_coeffs(a, BLASCHKE_NZ) if abs(a) < 1
                  else np.eye(1, BLASCHKE_NZ, dtype=complex)[0])
        phase = np.vdot(oracle, h.coeffs)
        err = float(np.abs(h.coeffs - phase / abs(phase) * oracle).max())
        errs = [] if err <= BLASCHKE_TOL else [f"coefficients off by {err:.2e}"]
        if not defect <= BLASCHKE_TOL:
            errs.append(f"inner defect {defect:.2e}")
        return errs

    return [Op("inner", name, "bench.inner",
               lambda: fs.inner_from_invariant([h2]), check)]


def build_ops(man: dict, ld: Loaded, workdir: str) -> list[Op]:
    """The workload's fixed operation list, in execution order."""
    ops: list[Op] = []
    wl = man["workload"]
    for p in man["problems"]:
        if wl == "desk-decompose":
            ops += decompose_ops(p, ld, workdir)
        elif wl == "desk-analyze":
            ops += analyze_ops(p, ld, workdir)
        elif p["name"].startswith("q"):
            ops += quotient_ops(p, ld, workdir)
        else:
            ops += beurling_ops(p, ld, workdir)
    for b in man["bases"]:
        ops += base_ops(b["name"], ld.bases[b["name"]])
    for c in man["chains"]:
        ops += chain_ops(c["name"], ld.chains[c["name"]])
    for b in man["blaschke"]:
        ops += blaschke_ops(b["name"], complex(*b["a"]), ld.blaschke[b["name"]])
    return ops
