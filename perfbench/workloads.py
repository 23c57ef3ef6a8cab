"""The benchmark's workloads: seeded request rounds and the checks on their outputs.

A workload is a closed loop with one client: ``round(rng, r)`` returns the
requests of round ``r`` as (label, callable) pairs, each callable runs one
request through the public API and raises ``CheckFailed`` when an output is
wrong.  Inputs are drawn from ``rng`` before the round is timed.  A request
that ends in an expected refusal (``Unsolvable`` on an unsolvable right-hand
side, a flagged budget exhaustion) is a success.

Every call into steklov_lab goes through a module attribute looked up at call
time, so the tracer's hooks see the benchmark's own calls too.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from steklov_lab import basis, cli, closedform, dbar, dtn, maximizer, surfaces
from steklov_lab.domain import BoundaryDensity, BoundaryMeasureSamples, CircleDomain, Hole


class CheckFailed(AssertionError):
    pass


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# Closed-form references; ``perturb`` shifts them so the smoke test can show
# that the checks fail on a wrong answer.
DISK_SPECTRUM = (0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0)


class References:
    def __init__(self, perturb: float = 0.0):
        self.perturb = perturb

    def disk(self) -> np.ndarray:
        return np.array(DISK_SPECTRUM) + self.perturb

    def annulus(self, T: float, fT: float, n: int) -> np.ndarray:
        exact = closedform.annulus_spectrum(T, fT, n).eigenvalues[:n]
        return np.array(exact) * (1.0 + self.perturb)


# -- sweep --------------------------------------------------------------------

# Budget per k of one measured sweep.  At this budget each k runs its first
# one or two Nelder-Mead probes on degree-12 bases, so a dispatch is mostly
# small eigensolves on fixed domains with a changing weight, and one dispatch
# takes about a second on two cores.  Short dispatches give many samples per
# run: with the default BLAS threads a dispatch takes one of two durations
# about 2x apart, and only a run-long average of many dispatches is steady.
SWEEP_BUDGET = {"full": 20, "tiny": 6}
SWEEP_KS = (2, 3)
ALLOWED_FLAGS = {"ok", "stalled", "budget_exhausted"}
# sigma_1 * L reported at SWEEP_BUDGET["full"] by the commit the benchmark was
# defined on.  A later program may report more, never less than this by more
# than SWEEP_FLOOR_RTOL (relative), which absorbs last-bit drift across BLAS
# thread counts (6.571530106711559 vs ...558 for k=2 here).
SWEEP_REFERENCE = {2: 6.571530106711559, 3: 6.734877475338958}
SWEEP_FLOOR_RTOL = 1e-6


class Sweep:
    name = "sweep"

    def __init__(self, size: str, refs: References):
        self.budget = SWEEP_BUDGET[size]
        self.size = size
        self.refs = refs
        self.values: list[dict] = []

    def _dispatch(self, budget: int) -> dict:
        out = "sweep.csv"
        argv = ["sweep", "--k", ",".join(map(str, SWEEP_KS)), "--budget", str(budget),
                "--out", out]
        rc = cli.dispatch(argv)
        check(rc == 0, f"sweep exit code {rc}")
        with open(out) as fh:
            lines = fh.read().splitlines()
        check(lines[0].startswith("# manifest_hash="), "sweep CSV lacks manifest line")
        rows = list(csv.DictReader(lines[1:]))
        check([int(r["k"]) for r in rows] == list(SWEEP_KS), f"sweep rows {rows}")
        bound_k2 = 4.0 * math.pi / closedform.critical_parameter("annulus") + 1e-3
        values = {}
        for row in rows:
            k, v = int(row["k"]), float(row["value"])
            flags = set(row["flags"].split(";"))
            check(flags <= ALLOWED_FLAGS, f"k={k} flags {flags}")
            check(math.isfinite(v) and 0.0 < v <= dtn.coarse_bound(0, k),
                  f"k={k} value {v} outside (0, coarse bound]")
            values[k] = v
        check(values[2] <= bound_k2, f"k=2 value {values[2]} above 4pi/T0 + 1e-3")
        return values

    def warmup(self) -> None:
        self._dispatch(SWEEP_BUDGET["tiny"])

    def round(self, rng, r):
        def run():
            values = self._dispatch(self.budget)
            self.values.append(values)
            if self.size == "full":
                for k, ref in SWEEP_REFERENCE.items():
                    ref = ref * (1.0 + self.refs.perturb)
                    check(values[k] >= ref * (1.0 - SWEEP_FLOOR_RTOL),
                          f"k={k} value {values[k]!r} below reference {ref!r}")

        return [("sweep", run)]

    def summary(self) -> dict:
        last = self.values[-1] if self.values else {}
        return {f"sigma1L_k{k}": v for k, v in last.items()}


# -- spectrum -----------------------------------------------------------------

SPECTRUM_KS = (2, 3, 4, 5)
SPECTRUM_MS = {"full": (24, 48), "tiny": (8, 12)}
REFERENCE_M = {"full": 24, "tiny": 12}
NEAR_WIDTH = 1e-2


def random_holes(rng, n_holes: int) -> tuple[Hole, ...]:
    """Disjoint holes inside the disk, by rejection with a 0.04 clearance."""
    while True:
        holes = []
        for _ in range(n_holes):
            r = rng.uniform(0.06, 0.18)
            rad = rng.uniform(0.0, 0.92 - r)
            c = rad * np.exp(2j * math.pi * rng.uniform())
            holes.append(Hole(complex(c), float(r)))
        ok = all(
            abs(a.center - b.center) >= a.radius + b.radius + 0.04
            for i, a in enumerate(holes) for b in holes[i + 1:]
        )
        if ok:
            return tuple(holes)


def random_log_density(rng, k: int, amp: float = 0.3, mmax: int = 3) -> BoundaryDensity:
    coeffs = []
    for _ in range(k):
        c = [0.0]
        for m in range(1, mmax + 1):
            c += [rng.normal(0.0, amp / m), rng.normal(0.0, amp / m)]
        coeffs.append(tuple(c))
    return BoundaryDensity(tuple(coeffs))


def matched_annulus(T: float, fT: float, n: int = 256):
    rho = math.exp(-2.0 * T)
    dom = CircleDomain((Hole(0.0, rho),))
    samples = BoundaryMeasureSamples((np.full(n, fT), np.full(n, fT)), (1.0, rho))
    return dom, samples


def near_cluster(spec, width: float = NEAR_WIDTH) -> np.ndarray:
    vals = spec.eigenvalues
    idx = [i for i in range(1, len(vals)) if vals[i] - vals[1] <= width * max(1.0, vals[1])]
    return spec.eigenvectors[:, idx]


def check_spectrum(spec, k: int) -> None:
    vals = spec.eigenvalues
    check(bool(np.all(np.isfinite(vals))), "non-finite eigenvalue")
    check(vals[0] == 0.0, f"sigma_0 = {vals[0]!r}")
    check(bool(np.all(np.diff(vals) >= 0.0)), "eigenvalues not nondecreasing")
    check(spec.sigma1_L <= dtn.coarse_bound(0, k),
          f"sigma1*L {spec.sigma1_L} above coarse bound for k={k}")


class Spectrum:
    name = "spectrum"
    REFERENCE_SLOTS = (4, 9)  # positions in a round of ten that are closed-form requests

    def __init__(self, size: str, refs: References):
        self.Ms = SPECTRUM_MS[size]
        self.ref_M = REFERENCE_M[size]
        self.refs = refs

    def _analyse(self, domain, dens, M):
        b = basis.build_basis(domain, M)
        spec = dtn.steklov_spectrum(domain, dens, M, basis=b)
        check_spectrum(spec, domain.k)
        cert = maximizer.extremality_certificate(domain, dens, near_cluster(spec), M=M, basis=b)
        check(math.isfinite(cert.residual_boundary), "certificate residual not finite")

    def _disk(self):
        spec = dtn.steklov_spectrum(CircleDomain(), BoundaryDensity.uniform(1), self.ref_M, n_eigs=7)
        dev = float(np.max(np.abs(spec.eigenvalues - self.refs.disk())))
        check(dev <= 1e-8, f"disk spectrum deviation {dev:.2e}")

    def _annulus(self, T, fT):
        dom, samples = matched_annulus(T, fT)
        spec = dtn.steklov_spectrum(dom, samples, self.ref_M, n_eigs=8)
        check_spectrum(spec, 2)
        dev = float(np.max(np.abs(spec.eigenvalues - self.refs.annulus(T, fT, 8))))
        check(dev <= 1e-6, f"annulus T={T:.4f} fT={fT:.4f} deviation {dev:.2e}")
        return dom, samples, spec

    def _critical(self):
        T0 = closedform.critical_parameter("annulus")
        dom, samples, spec = self._annulus(T0, 1.0)
        cert = maximizer.extremality_certificate(dom, samples, near_cluster(spec), M=self.ref_M)
        min_eig = float(np.linalg.eigvalsh(cert.coefficients)[0])
        check(cert.residual_boundary <= 1e-3 and cert.residual_conformal <= 1e-3,
              f"critical annulus certificate residuals {cert.residual_boundary:.2e}/"
              f"{cert.residual_conformal:.2e}")
        check(cert.n >= 2 and not cert.eigenspace_too_small and min_eig >= -1e-10,
              f"critical annulus certificate n={cert.n} min eig {min_eig:.2e}")

    def warmup(self) -> None:
        dom = CircleDomain((Hole(0.3 + 0.1j, 0.15),))
        self._analyse(dom, BoundaryDensity.uniform(2), 8)

    def round(self, rng, r):
        combos = [(k, M) for k in SPECTRUM_KS for M in self.Ms]
        order = rng.permutation(len(combos))
        generic = []
        for i in order:
            k, M = combos[i]
            dom = CircleDomain(random_holes(rng, k - 1))
            dens = random_log_density(rng, k)
            generic.append((f"k{k}_M{M}", lambda d=dom, w=dens, M=M: self._analyse(d, w, M)))
        refs = []
        for slot in range(len(self.REFERENCE_SLOTS)):
            kind = (2 * r + slot) % 3
            if kind == 0:
                refs.append(("disk", self._disk))
            elif kind == 1:
                T, fT = rng.uniform(0.4, 2.0), rng.uniform(0.6, 1.5)
                refs.append(("annulus", lambda T=T, fT=fT: self._annulus(T, fT)))
            else:
                refs.append(("critical_annulus", self._critical))
        requests = []
        for pos in range(len(generic) + len(refs)):
            source = refs if pos in self.REFERENCE_SLOTS else generic
            requests.append(source.pop(0))
        return requests

    def summary(self) -> dict:
        return {}


# -- surfaces -----------------------------------------------------------------

DBAR_GRIDS = {"full": ((32, 16), (64, 16), (64, 32)), "tiny": ((16, 8),)}
SURFACE_GRIDS = {"full": ((32, 128), (64, 256)), "tiny": ((16, 64),)}
SURFACE_NAMES = ("critical-catenoid", "critical-moebius", "flat-disk")


def dbar_rhs(rng, T, nt, ntheta):
    """A smooth right-hand side made solvable by removing its Re-mean."""
    c = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))

    def raw(t, theta):
        out = np.zeros(np.broadcast(np.asarray(t), np.asarray(theta)).shape, dtype=complex)
        for n in range(3):
            poly = sum(c[n, m] * np.asarray(t) ** m for m in range(5))
            out = out + poly * np.exp(1j * n * np.asarray(theta))
        return out

    prob = dbar.cylinder_problem(T, raw, nt=nt, ntheta=ntheta)
    mean = 2 * math.pi * float(prob.t_weights @ np.mean(prob.rhs.real, axis=1))
    return dbar.DbarProblem(T=T, rhs=prob.rhs - mean / (4 * math.pi * T),
                            t_nodes=prob.t_nodes, t_weights=prob.t_weights)


class Surfaces:
    name = "surfaces"

    def __init__(self, size: str, refs: References):
        self.dbar_grids = DBAR_GRIDS[size]
        self.surface_grids = SURFACE_GRIDS[size]
        self.refs = refs

    def _solvable(self, prob):
        sol = dbar.solve_dbar(prob)
        res = dbar.dbar_residual(sol, prob)
        check(res < 1e-8, f"d-bar residual {res:.2e}")

    def _unsolvable(self, prob):
        try:
            dbar.solve_dbar(prob)
        except dbar.Unsolvable:
            return
        raise CheckFailed("unsolvable right-hand side was solved")

    def _variation(self, coeffs):
        cat = surfaces.critical_catenoid()
        cfs = dbar.conformal_field_space(cat)
        check(cfs.dim_C1 == len(coeffs), f"conformal field space dim {cfs.dim_C1}")
        psis = cfs.kernel_psis()

        def psi(t, theta):
            return sum(c * p(t, theta) for c, p in zip(coeffs, psis))

        var = dbar.build_conformal_variation(cat, psi)
        conf = max(var.residual_diag, var.residual_offdiag)
        check(conf <= 1e-6, f"conformal variation residual {conf:.2e}")
        rep = dbar.verify_area_energy(cat, psi, var.Y)
        check(rep.residual <= 1e-5, f"Q vs S residual {rep.residual:.2e}")

    def _index(self, v):
        cat = surfaces.critical_catenoid()
        W = surfaces.normal_part(cat, v)
        S = surfaces.index_form_S(cat, W)
        nn = surfaces.field_norm_sq_integral(cat, W)
        ident = abs(S + 2.0 * nn) / nn
        bdy = abs(S - surfaces.index_form_boundary(cat, v))
        check(ident <= 1e-6 and bdy <= 1e-6,
              f"index identity {ident:.2e}, boundary formula {bdy:.2e}")

    def _energy(self, a):
        cat = surfaces.critical_catenoid()
        Tc = cat.T
        X = surfaces.VariationField(lambda t, h: cat.phi_theta(t, h), kind="tangent_sphere")

        def Yfun(t, h):
            t = np.asarray(t, dtype=float)
            h = np.asarray(h, dtype=float)
            f = a[0] + a[1] * np.cos(h) + a[2] * np.sin(h) + a[3] * (t / Tc)
            g = (1.0 - (t / Tc) ** 2) * (a[4] + a[5] * np.cos(h))
            return f[..., None] * cat.phi_theta(t, h) + g[..., None] * cat.phi_t(t, h)

        Y = surfaces.VariationField(Yfun, kind="tangent_sphere")
        scale = math.sqrt(surfaces.field_norm_sq_integral(cat, X)
                          * surfaces.field_norm_sq_integral(cat, Y))
        q = abs(surfaces.energy_form_Q(cat, X, Y)) / scale
        check(q <= 1e-7, f"|Q(rotation, Y)| / scale {q:.2e}")

    def _verify(self, name, grid):
        surf = surfaces.surface_by_name(name, grid)
        res = surfaces.verify_minimal_free_boundary(surf)
        worst = max(res.values())
        check(worst < 1e-10, f"{name} {grid} residual {worst:.2e}")

    def warmup(self) -> None:
        self._index(np.array([0.0, 0.0, 1.0]))

    def round(self, rng, r):
        T = rng.uniform(0.6, 1.2)
        nt, ntheta = self.dbar_grids[rng.integers(len(self.dbar_grids))]
        prob = dbar_rhs(rng, T, nt, ntheta)
        bad = dbar.DbarProblem(T=T, rhs=prob.rhs + 0.1, t_nodes=prob.t_nodes,
                               t_weights=prob.t_weights)
        coeffs = rng.normal(size=3)
        coeffs /= np.linalg.norm(coeffs)
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        a = rng.normal(size=6)
        name = SURFACE_NAMES[r % len(SURFACE_NAMES)]
        grid = self.surface_grids[rng.integers(len(self.surface_grids))]
        return [
            ("dbar_solvable", lambda: self._solvable(prob)),
            ("dbar_unsolvable", lambda: self._unsolvable(bad)),
            ("conformal_variation", lambda: self._variation(coeffs)),
            ("index_identity", lambda: self._index(v)),
            ("energy_null", lambda: self._energy(a)),
            ("verify_minimal", lambda: self._verify(name, tuple(grid))),
        ]

    def summary(self) -> dict:
        return {}


WORKLOADS = {"sweep": Sweep, "spectrum": Spectrum, "surfaces": Surfaces}
