"""Command-line front end: run manifests, JSON/CSV/OBJ emission, exit codes.

Commands: spectrum, closedform, maximize, sweep, surface verify, dbar demo,
export-obj.  Every run appends its manifest to runs.jsonl in the working
directory; every output file embeds the manifest hash so results can be traced
back to the exact invocation.  Outputs are deterministic: the same manifest
produces byte-identical files on the same machine and BLAS library.  BLAS
runs on one thread unless OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or
OMP_NUM_THREADS is set; the thread count can move the last digits of
eigenvalues, so the manifest hash records it (k=2 of ``sweep --k 2,3
--budget 20`` is 6.571530106711561 with one thread, 6.571530106711559 with
OPENBLAS_NUM_THREADS=2, under different hashes).
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


class _Parser(argparse.ArgumentParser):
    """argparse that reports flag problems through BadFlag instead of exiting."""

    def error(self, message):
        raise BadFlag(message)


@dataclass
class RunManifest:
    """Reproducibility record for one CLI invocation.

    The hash covers command, inputs, version, tolerances and the effective
    BLAS thread count of numpy's and scipy's OpenBLAS (None where a library is
    absent); timing is kept out of it so reruns of the same invocation hash
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


def _write_json(path: str, manifest: RunManifest, payload: dict) -> None:
    doc = {"manifest_hash": manifest.hash}
    doc.update(payload)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: str, manifest: RunManifest, header: list, rows: list) -> None:
    lines = [f"# manifest_hash={manifest.hash}", ",".join(header)]
    for row in rows:
        lines.append(",".join(repr(c) if isinstance(c, float) else str(c) for c in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_obj(path: str, manifest: RunManifest, body: str) -> None:
    lines = body.splitlines()
    lines.insert(1, f"# manifest_hash={manifest.hash}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


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


def _domain_from(args) -> CircleDomain:
    if getattr(args, "holes", None):
        return _parse_holes(args.holes)
    return CircleDomain()


# -- command handlers ---------------------------------------------------------


def _cmd_spectrum(args) -> tuple[RunManifest, None]:
    if args.eigs < 1:
        raise BadFlag(f"--eigs must be at least 1, got {args.eigs}")
    man = RunManifest(
        "spectrum",
        {
            "disk": bool(args.disk),
            "holes": args.holes or "",
            "modes": args.modes,
            "eigs": args.eigs,
            "out": args.out,
        },
        tolerances={"cluster_tol": args.cluster_tol},
    )
    domain = _domain_from(args)
    dens = BoundaryDensity.uniform(domain.k)
    sp = steklov_spectrum(domain, dens, args.modes, cluster_tol=args.cluster_tol)
    n = min(args.eigs, len(sp.eigenvalues))
    payload = {
        "eigenvalues": [float(v) for v in sp.eigenvalues[:n]],
        "sigma1": sp.sigma1,
        "sigma1_L": sp.sigma1_L,
        "boundary_length": sp.boundary_length,
        "clusters": [c for c in sp.clusters if c[0] < n],
        "modes": args.modes,
    }
    _write_json(args.out, man, payload)
    return man, None


def _cmd_closedform(args) -> tuple[RunManifest, None]:
    man = RunManifest(
        "closedform",
        {
            "topology": args.topology,
            "T": args.T,
            "fT": args.fT,
            "n_max": args.n_max,
            "out": args.out,
        },
    )
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
    _write_json(args.out, man, payload)
    return man, None


def _cmd_maximize(args) -> tuple[RunManifest, None]:
    man = RunManifest(
        "maximize",
        {
            "disk": bool(args.disk),
            "holes": args.holes or "",
            "modes": args.modes,
            "iters": args.iters,
            "budget": args.budget,
            "certificate": bool(args.certificate),
            "out": args.out,
        },
        tolerances={"cluster_tol": CLUSTER_TOL},
    )
    domain = _domain_from(args)
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
    _write_json(args.out, man, payload)
    return man, None


def _cmd_sweep(args) -> tuple[RunManifest, None]:
    try:
        ks = [int(s) for s in args.k.split(",") if s.strip()]
    except ValueError:
        raise BadFlag(f"--k must be a comma-separated integer list, got {args.k!r}")
    if not ks:
        raise BadFlag("--k must name at least one circle count")
    man = RunManifest(
        "sweep",
        {
            "k": ks,
            "symmetry": args.symmetry,
            "budget": args.budget,
            "out": args.out,
        },
        tolerances={"cluster_tol": CLUSTER_TOL},
    )
    entries = sweep_k(ks, args.symmetry, args.budget)
    rows = [
        [e.k, float(e.value), ";".join(e.flags) if e.flags else "ok"]
        for e in entries
    ]
    _write_csv(args.out, man, ["k", "value", "flags"], rows)
    return man, None


def _cmd_surface_verify(args) -> tuple[RunManifest, None]:
    grid = _parse_grid(args.grid)
    man = RunManifest(
        "surface verify",
        {"which": args.which, "grid": list(grid), "out": args.out},
    )
    surf = surface_by_name(args.which, grid)
    residuals = verify_minimal_free_boundary(surf)
    report = area_length_report(surf)
    payload = {
        "which": args.which,
        "residuals": residuals,
        "area": report.area,
        "boundary_length": report.boundary_length,
        "energy": report.energy,
        "two_area_minus_length": report.residuals["two_area_minus_length"],
        "sigma1_L": report.boundary_length,
    }
    _write_json(args.out, man, payload)
    return man, None


def _parse_grid(spec: str) -> tuple[int, int]:
    parts = spec.split(",")
    if len(parts) != 2:
        raise BadFlag(f"--grid must be nt,ntheta, got {spec!r}")
    try:
        nt, ntheta = int(parts[0]), int(parts[1])
    except ValueError:
        raise BadFlag(f"--grid must be integer nt,ntheta, got {spec!r}")
    return nt, ntheta


def _cmd_dbar_demo(args) -> tuple[RunManifest, None]:
    man = RunManifest(
        "dbar demo",
        {
            "T": args.T,
            "mode": args.mode,
            "nt": args.nt,
            "ntheta": args.ntheta,
            "unsolvable": bool(args.unsolvable),
            "out": args.out,
        },
        tolerances={"solvability_tol": SOLVABILITY_TOL},
    )
    if args.unsolvable:
        rhs = lambda t, th: np.ones_like(t, dtype=complex)
    else:
        m = args.mode
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
    _write_json(args.out, man, payload)
    return man, None


def _cmd_export_obj(args) -> tuple[RunManifest, None]:
    if args.nt < 2 or args.ntheta < 3:
        raise BadFlag(f"--nt must be at least 2 and --ntheta at least 3, "
                      f"got {args.nt} and {args.ntheta}")
    man = RunManifest(
        "export-obj",
        {"which": args.which, "nt": args.nt, "ntheta": args.ntheta, "out": args.out},
    )
    surf = surface_by_name(args.which)
    body = export_obj(surf, nt=args.nt, ntheta=args.ntheta)
    _write_obj(args.out, man, body)
    return man, None


# -- parser -------------------------------------------------------------------


def build_parser() -> _Parser:
    p = _Parser(prog="steklov-lab", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command")

    sp = sub.add_parser("spectrum", help="Steklov spectrum of a circle domain")
    sp.add_argument("--disk", action="store_true", help="unit disk, no holes")
    sp.add_argument("--holes", help="holes as cx,cy,r;cx,cy,r;...")
    sp.add_argument("--modes", type=int, default=16)
    sp.add_argument("--eigs", type=int, default=8)
    sp.add_argument("--cluster-tol", type=float, default=CLUSTER_TOL)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_spectrum)

    cf = sub.add_parser("closedform", help="rotationally symmetric closed forms")
    cf.add_argument("--topology", choices=("annulus", "moebius"), default="annulus")
    cf.add_argument("--T", type=float)
    cf.add_argument("--fT", type=float)
    cf.add_argument("--n-max", type=int, default=8)
    cf.add_argument("--out", required=True)
    cf.set_defaults(func=_cmd_closedform)

    mx = sub.add_parser("maximize", help="ascend the weighted first eigenvalue")
    mx.add_argument("--disk", action="store_true")
    mx.add_argument("--holes", help="holes as cx,cy,r;...")
    mx.add_argument("--modes", type=int, default=16)
    mx.add_argument("--iters", type=int, default=40)
    mx.add_argument("--budget", type=int, default=10**6)
    mx.add_argument("--certificate", action="store_true")
    mx.add_argument("--out", required=True)
    mx.set_defaults(func=_cmd_maximize)

    sw = sub.add_parser("sweep", help="best value per boundary-circle count")
    sw.add_argument("--k", required=True, help="comma-separated circle counts")
    sw.add_argument("--symmetry", choices=("cyclic", "none"), default="cyclic")
    sw.add_argument("--budget", type=int, default=6000)
    sw.add_argument("--out", required=True)
    sw.set_defaults(func=_cmd_sweep)

    su = sub.add_parser("surface", help="parametric surface tools")
    susub = su.add_subparsers(dest="surface_command")
    sv = susub.add_parser("verify", help="free boundary minimal surface residuals")
    sv.add_argument(
        "--which",
        choices=("critical-catenoid", "critical-moebius", "flat-disk"),
        required=True,
    )
    sv.add_argument("--grid", default="64,256")
    sv.add_argument("--out", required=True)
    sv.set_defaults(func=_cmd_surface_verify)

    db = sub.add_parser("dbar", help="first-order boundary system tools")
    dbsub = db.add_subparsers(dest="dbar_command")
    dd = dbsub.add_parser("demo", help="solve a sample right-hand side")
    dd.add_argument("--T", type=float, default=1.0)
    dd.add_argument("--mode", type=int, default=2)
    dd.add_argument("--nt", type=int, default=64)
    dd.add_argument("--ntheta", type=int, default=64)
    dd.add_argument("--unsolvable", action="store_true")
    dd.add_argument("--out", required=True)
    dd.set_defaults(func=_cmd_dbar_demo)

    eo = sub.add_parser("export-obj", help="write a surface mesh")
    eo.add_argument(
        "--which",
        choices=("critical-catenoid", "critical-moebius", "flat-disk"),
        required=True,
    )
    eo.add_argument("--nt", type=int, default=48)
    eo.add_argument("--ntheta", type=int, default=96)
    eo.add_argument("--out", required=True)
    eo.set_defaults(func=_cmd_export_obj)

    return p


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            raise UnknownCommand("no command given; see --help")
        if not hasattr(args, "func"):
            sub = args.command
            raise UnknownCommand(f"{sub} needs a subcommand; see {sub} --help")
        start = time.perf_counter()
        man, _ = args.func(args)
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
