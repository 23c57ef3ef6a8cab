"""Command-line front end: run manifests, JSON/CSV/OBJ emission, exit codes.

Commands: spectrum, closedform, maximize, sweep, surface verify, dbar demo,
export-obj.  Every run appends its manifest to runs.jsonl in the working
directory; every output file embeds the manifest hash so results can be traced
back to the exact invocation.  The parser is the manifest: its inputs are
every parsed flag of the command, defaults included, and the tolerances
(``cluster_tol``, ``solvability_tol``) sit under their own key.  Handlers only
compute; ``dispatch`` builds the manifest, writes the output and logs the run.
The parser is built once, on import, and every dispatch reuses it.
The hash covers the package version but not the source, so it identifies an
invocation of one code version.  Outputs are
deterministic: with the same code, the same manifest produces byte-identical
files on the same machine and BLAS library.  BLAS runs on one thread unless
OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS is set; the thread
count can move the last digits of eigenvalues, so the manifest hash records
it (``sweep --k 2,3 --budget 20 --out sweep.csv`` runs under hash
c70927d3373e263c with one thread and under 70ecb1c753ce440d with
OPENBLAS_NUM_THREADS=2, and it writes k=2 as 6.571530106711584 with one
thread and 6.5715301067115846 with two; ``spectrum --holes
"0.3,0,0.2;-0.4,0.1,0.15"`` writes sigma1_L 6.498655486332763 with one
thread and sigma1_L 6.498655486332763 with two, while its sigma_2 to sigma_6
move in the last digits).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from ._blas import blas_threads
from .basis import MAX_DEGREE
from .closedform import (
    annulus_spectrum,
    critical_parameter,
    critical_sigma1L,
    moebius_spectrum,
)
from .dbar import (
    SOLVABILITY_TOL,
    BoundarySystemSingular,
    Unsolvable,
    _is_pow2,
    cylinder_problem,
    dbar_residual,
    solve_dbar,
)
from .domain import BoundaryDensity, CircleDomain, DomainError, Hole
from .dtn import (
    CLUSTER_TOL,
    MassMatrixDegenerate,
    steklov_spectrum,
)
from .maximizer import (
    BudgetExhausted,
    EigensolveBudget,
    extremality_certificate,
    optimize_density,
    sweep_k,
)
from .surfaces import (
    SURFACES,
    area_length_report,
    export_obj,
    surface_by_name,
    verify_minimal_free_boundary,
)

RUN_LOG = "runs.jsonl"


class UnknownCommand(Exception):
    pass


class BadFlag(Exception):
    pass


class Unresolved(Exception):
    """A surface grid too coarse for the 2A = L identity of a shipped surface."""


# every shipped surface is free boundary minimal, so 2A = L holds exactly and
# |2A - L| above this fraction of L means the grid does not resolve it
TWO_AREA_TOL = 1e-8


class _Parser(argparse.ArgumentParser):
    """argparse that reports flag problems through BadFlag instead of exiting."""

    def error(self, message):
        raise BadFlag(message)


@dataclass
class RunManifest:
    """Reproducibility record for one CLI invocation.

    The hash covers command, inputs, version, tolerances and the effective
    BLAS thread count of numpy's OpenBLAS (None where the library is absent);
    timing is kept out of it so reruns of the same invocation hash
    identically.
    """

    command: str
    inputs: dict
    version: str = __version__
    tolerances: dict = field(default_factory=dict)
    blas_threads: dict = field(default_factory=blas_threads)
    timing: float = 0.0

    def reproducible(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "version": self.version,
            "tolerances": self.tolerances,
            "blas_threads": self.blas_threads,
        }

    @property
    def hash(self) -> str:
        blob = json.dumps(self.reproducible(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def record(self) -> dict:
        out = self.reproducible()
        out["timing"] = self.timing
        out["manifest_hash"] = self.hash
        return out


def _append_log(manifest: RunManifest) -> None:
    with open(RUN_LOG, "a") as fh:
        fh.write(json.dumps(manifest.record(), sort_keys=True) + "\n")


_ROUTING = ("command", "surface_command", "dbar_command")
_TOLERANCES = ("cluster_tol", "solvability_tol")


def _manifest(args) -> RunManifest:
    """The run's manifest: every parsed flag, tolerances under their own key."""
    flags = {k: v for k, v in vars(args).items() if k not in ("func", "needs_T")}
    command = " ".join(flags.pop(k) for k in _ROUTING if k in flags)
    tolerances = {k: flags.pop(k) for k in _TOLERANCES if k in flags}
    return RunManifest(command, flags, tolerances=tolerances)


def _write_json(fh, manifest_hash: str, payload: dict) -> None:
    json.dump({"manifest_hash": manifest_hash, **payload}, fh, indent=2, sort_keys=True)
    fh.write("\n")


def _write_csv(fh, manifest_hash: str, table: tuple) -> None:
    header, rows = table
    lines = [f"# manifest_hash={manifest_hash}", ",".join(header)]
    for row in rows:
        lines.append(",".join(repr(c) if isinstance(c, float) else str(c) for c in row))
    fh.write("\n".join(lines) + "\n")


def _write_obj(fh, manifest_hash: str, body: str) -> None:
    lines = body.splitlines()
    lines.insert(1, f"# manifest_hash={manifest_hash}")
    fh.write("\n".join(lines) + "\n")


_WRITERS = {"json": _write_json, "csv": _write_csv, "obj": _write_obj}


def _parse_holes(spec: str) -> CircleDomain:
    holes = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 3:
            raise BadFlag(f"hole {chunk!r} must be cx,cy,r")
        try:
            cx, cy, r = (float(p) for p in parts)
        except ValueError:
            raise BadFlag(f"hole {chunk!r} must be numeric cx,cy,r")
        holes.append(Hole(complex(cx, cy), r))
    return CircleDomain(tuple(holes))


# -- flag types: argparse turns their errors into exit code 64 -----------------


def _at_least(low, kind=int):
    def parse(text: str):
        value = kind(text)
        if not value >= low:  # nan too
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in "invalid int value"
    return parse


def _power_of_two(text: str) -> int:
    if not _is_pow2(int(text)):  # the grid rule DbarProblem enforces
        raise argparse.ArgumentTypeError(f"must be a power of two >= 2, got {text}")
    return int(text)


_power_of_two.__name__ = "int"


def _degree(text: str) -> int:
    if not 1 <= int(text) <= MAX_DEGREE:  # the degrees a basis is built for
        raise argparse.ArgumentTypeError(f"must be a degree in [1, {MAX_DEGREE}], got {text}")
    return int(text)


_degree.__name__ = "int"


class _NeedsT(argparse.Action):
    """Stores the value and lists the flag in ``args.needs_T``, which the manifest omits."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.needs_T += (option_string,)


def _int_list(text: str) -> list[int]:
    try:
        ks = [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a comma-separated integer list, got {text!r}")
    if not ks:
        raise argparse.ArgumentTypeError("must name at least one circle count")
    if min(ks) < 1:
        raise argparse.ArgumentTypeError(f"circle counts must be at least 1, got {text!r}")
    return ks


def _grid(text: str) -> tuple[int, int]:
    try:
        nt, ntheta = (int(s) for s in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be integer nt,ntheta, got {text!r}")
    if min(nt, ntheta) < 1:
        raise argparse.ArgumentTypeError(f"nt and ntheta must be at least 1, got {text!r}")
    return nt, ntheta


# -- command handlers: each returns (output kind, result) ---------------------


def _cmd_spectrum(args):
    domain = _parse_holes(args.holes)
    dens = BoundaryDensity.uniform(domain.k)
    sp = steklov_spectrum(domain, dens, args.modes, cluster_tol=args.cluster_tol)
    n = min(args.eigs, len(sp.eigenvalues))
    return "json", {
        "eigenvalues": [float(v) for v in sp.eigenvalues[:n]],
        "sigma1": sp.sigma1,
        "sigma1_L": sp.sigma1_L,
        "boundary_length": sp.boundary_length,
        "clusters": [c for c in sp.clusters if c[0] < n],
        "modes": args.modes,
    }


def _cmd_closedform(args):
    if args.needs_T and args.T is None:
        raise BadFlag(f"{args.needs_T[0]} needs --T")
    payload = {
        "topology": args.topology,
        "critical_T": critical_parameter(args.topology),
        "critical_sigma1_L": critical_sigma1L(args.topology),
    }
    if args.T is not None:
        fT = args.fT if args.fT is not None else 1.0
        builder = annulus_spectrum if args.topology == "annulus" else moebius_spectrum
        spec = builder(args.T, fT, args.n_max)
        payload["T"] = args.T
        payload["fT"] = fT
        payload["sigma1_L"] = spec.sigma1_L()
        payload["entries"] = [
            {
                "eigenvalue": e.eigenvalue,
                "n": e.n,
                "branch": e.branch,
                "multiplicity": e.multiplicity,
            }
            for e in spec.entries
        ]
    return "json", payload


def _cmd_maximize(args):
    domain = _parse_holes(args.holes)
    state = optimize_density(
        domain,
        BoundaryDensity.uniform(domain.k),
        max_iters=args.iters,
        M=args.modes,
        budget=EigensolveBudget(args.budget),
    )
    payload = {
        "value": state.value,
        "eps_final": state.eps,
        "stalled": state.stalled,
        "budget_exhausted": state.budget_exhausted,
        "eigensolves": state.eigensolves,
        "trace": [[int(i), float(e), float(v)] for i, e, v in state.trace],
    }
    if args.certificate:
        cert = extremality_certificate(
            domain, state.density, state.eigenspace, M=args.modes
        )
        payload["certificate"] = {
            "residual_boundary": cert.residual_boundary,
            "residual_conformal": cert.residual_conformal,
            "n": cert.n,
            "eigenspace_too_small": cert.eigenspace_too_small,
        }
    return "json", payload


def _cmd_sweep(args):
    rows = [
        [st.domain.k, float(st.value), ";".join(st.flags) or "ok"]
        for st in sweep_k(args.k, args.symmetry, args.budget)
    ]
    return "csv", (["k", "value", "flags"], rows)


def _cmd_surface_verify(args):
    surf = surface_by_name(args.which, args.grid)
    residuals = verify_minimal_free_boundary(surf)
    report = area_length_report(surf)
    gap = report.residuals["two_area_minus_length"]
    if not gap <= TWO_AREA_TOL * report.boundary_length:
        raise Unresolved(f"grid {args.grid[0]},{args.grid[1]} does not resolve {args.which}: "
                         f"|2A - L| = {gap:.3g} for L = {report.boundary_length:.6g}")
    return "json", {
        "which": args.which,
        "residuals": residuals,
        "area": report.area,
        "boundary_length": report.boundary_length,
        "energy": report.energy,
        "two_area_minus_length": gap,
        "sigma1_L": report.boundary_length,
    }


def _cmd_dbar_demo(args):
    if args.unsolvable:
        rhs = lambda t, th: np.ones_like(t, dtype=complex)
    else:
        m = args.mode
        if args.ntheta <= 2 * abs(m):  # m would alias or sit at the Nyquist mode
            raise BadFlag(f"--ntheta {args.ntheta} must exceed 2 |--mode| = {2 * abs(m)}")
        rhs = lambda t, th: (t / args.T) * np.exp(1j * m * th)
    problem = cylinder_problem(args.T, rhs, nt=args.nt, ntheta=args.ntheta)
    payload = {"T": args.T, "mode": args.mode, "unsolvable_requested": bool(args.unsolvable)}
    try:
        sol = solve_dbar(problem)
    except Unsolvable as exc:
        payload["solvable"] = False
        payload["reason"] = str(exc)
    else:
        payload["solvable"] = True
        payload["residual"] = dbar_residual(sol, problem)
        payload["solvability_residual"] = sol.solvability_residual
        payload["tail_truncation"] = sol.tail_truncation
        payload["conditioning"] = sol.conditioning
    return "json", payload


def _cmd_export_obj(args):
    surf = surface_by_name(args.which)
    return "obj", export_obj(surf, nt=args.nt, ntheta=args.ntheta)


# -- parser -------------------------------------------------------------------


def _domain_flags(parser) -> None:
    where = parser.add_mutually_exclusive_group()
    where.add_argument("--disk", action="store_true", help="unit disk, no holes")
    where.add_argument("--holes", default="", help="holes as cx,cy,r;cx,cy,r;...")


def build_parser() -> _Parser:
    p = _Parser(prog="steklov-lab", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command")

    sp = sub.add_parser("spectrum", help="Steklov spectrum of a circle domain")
    _domain_flags(sp)
    sp.add_argument("--modes", type=_degree, default=16)
    sp.add_argument("--eigs", type=_at_least(1), default=8)
    sp.add_argument("--cluster-tol", type=_at_least(0.0, float), default=CLUSTER_TOL)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_spectrum)

    cf = sub.add_parser("closedform", help="rotationally symmetric closed forms")
    cf.add_argument("--topology", choices=("annulus", "moebius"), default="annulus")
    cf.add_argument("--T", type=float)
    cf.add_argument("--fT", type=float, action=_NeedsT)
    cf.add_argument("--n-max", type=_at_least(1), default=8, action=_NeedsT)
    cf.add_argument("--out", required=True)
    cf.set_defaults(func=_cmd_closedform, needs_T=())

    mx = sub.add_parser("maximize", help="ascend the weighted first eigenvalue")
    _domain_flags(mx)
    mx.add_argument("--modes", type=_degree, default=16)
    mx.add_argument("--iters", type=_at_least(0), default=40)
    mx.add_argument("--budget", type=_at_least(1), default=10**6)
    mx.add_argument("--certificate", action="store_true")
    mx.add_argument("--out", required=True)
    mx.set_defaults(func=_cmd_maximize, cluster_tol=CLUSTER_TOL)

    sw = sub.add_parser("sweep", help="best value per boundary-circle count")
    sw.add_argument("--k", type=_int_list, required=True,
                    help="comma-separated circle counts")
    sw.add_argument("--symmetry", choices=("cyclic", "none"), default="cyclic")
    sw.add_argument("--budget", type=_at_least(1), default=6000)
    sw.add_argument("--out", required=True)
    sw.set_defaults(func=_cmd_sweep, cluster_tol=CLUSTER_TOL)

    su = sub.add_parser("surface", help="parametric surface tools")
    susub = su.add_subparsers(dest="surface_command")
    sv = susub.add_parser("verify", help="free boundary minimal surface residuals")
    sv.add_argument("--which", choices=tuple(SURFACES), required=True)
    sv.add_argument("--grid", type=_grid, default="64,256")
    sv.add_argument("--out", required=True)
    sv.set_defaults(func=_cmd_surface_verify)

    db = sub.add_parser("dbar", help="first-order boundary system tools")
    dbsub = db.add_subparsers(dest="dbar_command")
    dd = dbsub.add_parser("demo", help="solve a sample right-hand side")
    dd.add_argument("--T", type=float, default=1.0)
    dd.add_argument("--mode", type=int, default=2)
    dd.add_argument("--nt", type=_power_of_two, default=64)
    dd.add_argument("--ntheta", type=_power_of_two, default=64)
    dd.add_argument("--unsolvable", action="store_true")
    dd.add_argument("--out", required=True)
    dd.set_defaults(func=_cmd_dbar_demo, solvability_tol=SOLVABILITY_TOL)

    eo = sub.add_parser("export-obj", help="write a surface mesh")
    eo.add_argument("--which", choices=tuple(SURFACES), required=True)
    eo.add_argument("--nt", type=_at_least(2), default=48)
    eo.add_argument("--ntheta", type=_at_least(3), default=96)
    eo.add_argument("--out", required=True)
    eo.set_defaults(func=_cmd_export_obj)

    return p


# built once per process; a parse keeps no state in the parser
_PARSER = build_parser()


def dispatch(argv) -> int:
    try:
        args = _PARSER.parse_args(argv)
        if getattr(args, "command", None) is None:
            raise UnknownCommand("no command given; see --help")
        if not hasattr(args, "func"):
            sub = args.command
            raise UnknownCommand(f"{sub} needs a subcommand; see {sub} --help")
        start = time.perf_counter()
        man = _manifest(args)
        # by name, so the handler is the module's at dispatch time, not at the build
        kind, result = globals()[args.func.__name__](args)
        with open(args.out, "w") as fh:
            _WRITERS[kind](fh, man.hash, result)
        man.timing = time.perf_counter() - start
        _append_log(man)
        return 0
    except (UnknownCommand, BadFlag) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 64
    except (
        MassMatrixDegenerate,
        BudgetExhausted,
        Unsolvable,
        BoundarySystemSingular,
        np.linalg.LinAlgError,
        FloatingPointError,
        Unresolved,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (DomainError, ValueError, TypeError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
