"""Ascent machinery for the normalized first Steklov eigenvalue.

The objective is the scale invariant product sigma_1 * L of the first
nonzero eigenvalue with the weighted boundary length.  Two nested searches
are provided: a monotone ascent over boundary weights on a fixed domain
(heat-kernel smoothing at a decreasing scale, multiplicative steps in the
weight, safeguarded where eigenvalues cross), and a derivative-free simplex
search over hole configurations that runs the weight ascent at every probe.
A quadratic certificate measures how close a candidate eigenspace comes to
the extremality conditions: squared eigenfunctions summing to a constant on
the boundary and a vanishing Hopf differential inside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .basis import HarmonicBasis, build_basis, dirichlet_matrix
from .domain import (
    HOLE_MARGIN,
    BoundaryDensity,
    BoundaryMeasureSamples,
    CircleDomain,
    Hole,
    as_samples,
    heat_smooth,
    normalize,
)
from .dtn import SteklovSpectrum, steklov_spectrum

EPS_SCHEDULE = (1e-1, 1e-2, 1e-3, 1e-4)
REL_IMPROVE_TOL = 1e-9
# sup-norm threshold on the averaged ascent direction: below it the trace of
# the eigenvalue derivative vanishes for every weight perturbation, so the
# smallest cluster member cannot be raised to first order
GRAD_TOL = 1e-9
# relative width of the band above sigma_1 whose eigenvectors are lifted
# jointly by the ascent and fitted jointly by the phase residual
NEAR_WIDTH = 1e-2
# ascent solves ask for a band of sigma_0 and the next BAND - 1 eigenvalues;
# a band whose top value lies within 1.5 NEAR_WIDTH of sigma_1 may have cut
# the near cluster, and the solve falls back to the full spectrum.  The first
# BAND eigenvector columns of the current state also span the Ritz screen of
# its trial weights
BAND = 9
# a trial weight whose Ritz bound of sigma_1 * L lies below the current
# value by more than this relative margin is rejected without a solve; the
# bound has never been seen below the solved value by more than 4.1e-15
SCREEN_MARGIN = 1e-10
# configuration search: each probe is a short ascent at degree PROBE_M over
# PROBE_SCHEDULE; the simplex stops after NM_ITERS steps or once its values
# agree to NM_FTOL (relative) or its vertices to NM_XTOL
PROBE_M = 12
PROBE_SCHEDULE = (3e-2, 1e-3)
PROBE_ITERS = 8
PROBE_REL_TOL = 1e-7
NM_ITERS = 60
NM_FTOL = 1e-7
NM_XTOL = 1e-5


class BudgetExhausted(RuntimeError):
    """The shared eigensolve allowance ran out."""


class EigensolveBudget:
    """Counter shared between nested searches; take() enforces the limit.

    fallbacks counts the band solves redone in full; a redo takes no unit.
    screened counts the trials rejected by their Ritz bound; each takes one
    unit in place of its solve.
    """

    def __init__(self, limit: int = 10**9):
        if limit < 1:
            raise ValueError("budget must allow at least one eigensolve")
        self.limit = int(limit)
        self.used = 0
        self.fallbacks = 0
        self.screened = 0

    def take(self) -> None:
        if self.used >= self.limit:
            raise BudgetExhausted(f"eigensolve budget {self.limit} exhausted")
        self.used += 1

    @property
    def exhausted(self) -> bool:
        return self.used >= self.limit


@dataclass
class AscentState:
    """Outcome of a weight ascent, and of every search built on one.

    spectrum is the spectrum of density, the weight at smoothing level eps;
    value and eigenspace are read from it, the eigenspace being every
    eigenvector within NEAR_WIDTH of sigma_1.  trace holds (iteration, eps,
    value) rows; within one smoothing level the values are nondecreasing
    because steps are only accepted on improvement.  phase_residuals records
    the boundary certificate residual at the end of each smoothing level.
    fallbacks counts the solves whose band was redone in full.  eigensolves
    counts budget units: every solved trial and every screened one, a trial
    that its Ritz bound rejected without a solve; screened counts the
    latter.  A configuration search returns its winning ascent with
    eigensolves, fallbacks, screened and budget_exhausted counted over the
    whole search.
    """

    domain: CircleDomain
    density: BoundaryMeasureSamples
    eps: float
    spectrum: SteklovSpectrum
    trace: list = field(default_factory=list)
    stalled: bool = False
    budget_exhausted: bool = False
    eigensolves: int = 0
    fallbacks: int = 0
    screened: int = 0
    phase_residuals: list = field(default_factory=list)

    @property
    def value(self) -> float:
        return self.spectrum.sigma1_L

    @property
    def eigenspace(self) -> np.ndarray:
        return _near_cluster(self.spectrum, NEAR_WIDTH)

    @property
    def flags(self) -> list:
        return [name for name in ("stalled", "budget_exhausted") if getattr(self, name)]


@dataclass
class Certificate:
    """Least-squares extremality certificate over a candidate eigenspace."""

    coefficients: np.ndarray
    residual_boundary: float
    residual_conformal: float
    n: int
    eigenspace_too_small: bool = False


# -- weight handling ----------------------------------------------------------


def _weight_gradient(samples: BoundaryMeasureSamples, sq, sigma: float, L: float):
    """Mean-zero first variation of sigma from a (k, n) table of u^2.

    ``sq`` holds the squared traces of a unit-norm eigenfunction u, or their
    average over a cluster; the result is -sigma (u^2 - avg), avg the mean of
    u^2 against the weighted measure of total mass L, so it has mean zero.
    """
    avg = np.sum(2.0 * math.pi * np.mean(sq * samples.values, axis=-1)) / L
    return -sigma * (sq - avg)


def _boundary_traces(basis: HarmonicBasis, cols: np.ndarray) -> np.ndarray:
    """Traces of the coefficient columns on every circle, (ncols, k, n_quad)."""
    return np.tensordot(cols, basis.traces(), axes=(0, 0))


# -- inner ascent -------------------------------------------------------------


def _cluster_directions(basis, samples, spec):
    """Candidate ascent directions at sigma_1, sup-normalized; at most two.

    Averaging the squared eigenfunctions over a group of eigenvalues gives a
    direction independent of the basis chosen inside it; it is built twice,
    once over every eigenvalue within NEAR_WIDTH of sigma_1 (so branches
    about to cross are lifted jointly) and once over the strict cluster.
    Empty return means stationary.  With a strict cluster of size > 1 a
    negligible averaged direction already implies stationarity: the trace of
    the eigenvalue derivative then vanishes for every weight perturbation,
    so its smallest branch cannot rise to first order.
    """
    sigma = spec.sigma1
    L = samples.total_mass()
    tiny = GRAD_TOL * (1.0 + sigma)

    def averaged(cols):
        sq = np.mean(_boundary_traces(basis, cols) ** 2, axis=0)
        g = _weight_gradient(samples, sq, sigma, L)
        sup = float(np.max(np.abs(g)))
        return g / sup if sup > tiny else None

    strict = spec.eigenvectors[:, spec.cluster_of(1)]
    d_strict = averaged(strict)
    if strict.shape[1] > 1 and d_strict is None:
        return []
    near = _near_cluster(spec, NEAR_WIDTH)
    dirs = [averaged(near)] if near.shape[1] > strict.shape[1] else []
    return [d for d in dirs + [d_strict] if d is not None]


def _step_candidate(samples, direction, s, eps):
    """Multiplicative step of size s, then smoothing and unit total mass."""
    cand = BoundaryMeasureSamples(samples.values * np.exp(s * direction), samples.radii)
    return normalize(heat_smooth(cand, eps))


def _ritz_screen(basis, spec):
    """Ritz values times weighted length for trial weights, from spec's band.

    V holds the first BAND eigenvector columns of spec, the constant among
    them.  For a weight table the returned function gives the eigenvalues of
    the pencil (V^T A V, V^T B(w) V), ascending and multiplied by the weight's
    total mass, or None when V^T B(w) V is not positive definite.  Element 0
    is 0 up to rounding (the constant), and element 1 bounds the weight's
    sigma_1 * L from above by the Poincare separation.  V^T B(w) V is
    (U w) U^T with the traces U = V^T P formed once here.
    """
    V = spec.eigenvectors[:, :BAND]
    AV = V.T @ dirichlet_matrix(basis) @ V
    U = V.T @ basis.traces().reshape(basis.size, -1)
    scale = 2.0 * math.pi / basis.n_quad

    def ritz_values(samples):
        w = samples.values.reshape(-1) * scale
        try:
            R = np.linalg.cholesky((U * w) @ U.T)
        except np.linalg.LinAlgError:
            return None
        Ri = np.linalg.inv(R)
        return np.linalg.eigvalsh(Ri @ AV @ Ri.T) * np.sum(w)

    return ritz_values


def _near_cluster(spec: SteklovSpectrum, tol: float) -> np.ndarray:
    """Eigenvector columns within tol of sigma_1 (always including it)."""
    rest = spec.eigenvalues[1:]
    keep = 1 + np.flatnonzero(rest - rest[:1] <= tol * np.maximum(1.0, rest[:1]))
    return spec.eigenvectors[:, keep]


def _boundary_fit(basis, samples, cols, dzu=None):
    """Best symmetric C with sum_ab C_ab u_a u_b = 1 on the boundary.

    Weighted least squares against the boundary measure.  The boundary data
    alone can leave C underdetermined (on a rotationally symmetric optimum
    every squared-eigenfunction combination is constant per circle), so when
    interior derivative samples are supplied the leftover null directions
    are fixed by minimizing the Hopf sum as a secondary objective.  C is
    then projected to the positive semidefinite cone.  Returns the clipped
    matrix, the sup-norm boundary residual, and the number of independent
    directions.
    """
    m = cols.shape[1]
    pa, pb = np.triu_indices(m)
    fac = np.where(pa == pb, 1.0, 2.0)[:, None]
    U = _boundary_traces(basis, cols).reshape(m, -1)
    y = np.sqrt(samples.values.reshape(-1) * (2.0 * math.pi / samples.n))
    X = (fac * U[pa] * U[pb]).T * y[:, None]
    Um, sv, Vt = np.linalg.svd(X, full_matrices=False)
    # the cut sits well above eigensolver roundoff: a weight that has been
    # ascended to an optimum carries O(1e-7) noise wiggles which would
    # otherwise promote a symmetry null direction to rank and leave the
    # interior tie-break with nothing to decide
    rank = int(np.sum(sv > 1e-5 * sv[0])) if sv.size else 0
    c = Vt[:rank].T @ ((Um[:, :rank].T @ y) / sv[:rank])
    if dzu is not None and rank < pa.size:
        null = Vt[rank:].T
        Z = (fac * dzu[pa] * dzu[pb]).T
        ZN = Z @ null
        zc = Z @ c
        A2 = np.vstack([ZN.real, ZN.imag])
        b2 = -np.concatenate([zc.real, zc.imag])
        coef, *_ = np.linalg.lstsq(A2, b2, rcond=None)
        c = c + null @ coef
    C = np.zeros((m, m))
    C[pa, pb] = C[pb, pa] = c
    w, V = np.linalg.eigh(C)
    wc = np.clip(w, 0.0, None)
    C = (V * wc) @ V.T
    n_indep = int(np.sum(wc > 1e-8 * max(1.0, float(wc[-1]))))
    pred = np.einsum("ab,ax,bx->x", C, U, U)
    return C, float(np.max(np.abs(pred - 1.0))), n_indep


def optimize_density(domain, init_density, eps_schedule=EPS_SCHEDULE,
                     max_iters: int = 40, *, M: int = 16,
                     budget: EigensolveBudget | None = None, halvings: int = 24,
                     rel_tol: float = REL_IMPROVE_TOL) -> AscentState:
    """Monotone ascent of sigma_1 * L over boundary weights on a fixed domain.

    For each smoothing level eps, the current weight is smoothed once and
    then improved by accepted steps only: a candidate multiplies the weight
    by exp(s * direction), is smoothed at the same eps, renormalized to unit
    mass, and kept when its recomputed sigma_1 * L strictly increases, with
    s halved on rejection.  The step size is warm-started from the last
    accepted one, since near an eigenvalue crossing the useful window can
    sit several orders of magnitude below 1.  A level ends on stationarity,
    on relative gains below rel_tol, on max_iters, or when no candidate
    direction improves (stalled).  Each solve asks for the band of BAND
    eigenvalues and is redone on the full spectrum when the band may have
    cut the near cluster.  Before its solve a candidate is screened: on the
    span of the current state's first BAND eigenvectors, the constant among
    them, the second Ritz value of its pencil bounds its sigma_1 * L from
    above, and a bound below value * (1 - SCREEN_MARGIN) rejects it without
    a solve.  A screened candidate takes one budget unit and halves s as a
    solved rejection does, so the search and every returned value are those
    of the unscreened ascent.  The budget, when given, is shared with
    the caller and the best state so far is returned once it runs out; a
    level whose first solve does not fit leaves the previous level's state.
    """
    eps_schedule = tuple(float(e) for e in eps_schedule)
    if not eps_schedule or any(e <= 0.0 for e in eps_schedule):
        raise ValueError("eps_schedule must be positive")
    if any(b > a for a, b in zip(eps_schedule, eps_schedule[1:])):
        raise ValueError("eps_schedule must be nonincreasing")
    basis = build_basis(domain, M)
    if budget is None:
        budget = EigensolveBudget()
    used0, fallbacks0, screened0 = budget.used, budget.fallbacks, budget.screened

    def solve(d):
        budget.take()
        spec = steklov_spectrum(domain, d, M, BAND, basis=basis)
        vals = spec.eigenvalues
        if spec.metadata["solve"] == "band" and (
            vals.size < BAND or vals[-1] - vals[1] <= 1.5 * NEAR_WIDTH * max(1.0, vals[1])
        ):
            budget.fallbacks += 1
            spec = steklov_spectrum(domain, d, M, basis=basis)
        return spec

    dens = normalize(as_samples(domain, init_density, basis.n_quad))
    trace = []
    phase_residuals = []
    spec = None
    stalled = False
    exhausted = False
    try:
        for eps in eps_schedule:
            smoothed = normalize(heat_smooth(dens, eps))
            spec = solve(smoothed)
            dens = smoothed
            value = spec.sigma1_L
            trace.append((len(trace), eps, value))
            phase_stalled = False
            accepted_any = False
            s0 = 1.0
            for _ in range(max_iters):
                dirs = _cluster_directions(basis, dens, spec)
                if not dirs:
                    break
                accepted = None
                ritz = _ritz_screen(basis, spec)
                floor = value * (1.0 - SCREEN_MARGIN)
                for d in dirs:
                    s = s0
                    for _h in range(halvings):
                        cand = _step_candidate(dens, d, s, eps)
                        bound = ritz(cand)
                        if bound is not None and bound[1] < floor:
                            budget.take()
                            budget.screened += 1
                        else:
                            cspec = solve(cand)
                            cval = cspec.sigma1_L
                            if cval > value:
                                accepted = (cand, cspec, cval)
                                break
                        s *= 0.5
                        if s < 1e-9:
                            break
                    if accepted is not None:
                        s0 = min(1.0, 8.0 * s)
                        break
                if accepted is None:
                    # only a phase that never moved counts as stalled; running
                    # out of ascent after accepted steps is ordinary convergence
                    phase_stalled = not accepted_any
                    break
                accepted_any = True
                gain = (accepted[2] - value) / max(abs(value), 1.0)
                dens, spec, value = accepted
                trace.append((len(trace), eps, value))
                if gain < rel_tol:
                    break
            stalled = phase_stalled
            cols = _near_cluster(spec, NEAR_WIDTH)
            phase_residuals.append((eps, _boundary_fit(basis, dens, cols)[1]))
    except BudgetExhausted:
        exhausted = True
        if spec is None:
            raise
    return AscentState(
        domain=domain,
        density=dens,
        eps=trace[-1][1],
        spectrum=spec,
        trace=trace,
        stalled=stalled,
        budget_exhausted=exhausted,
        eigensolves=budget.used - used0,
        fallbacks=budget.fallbacks - fallbacks0,
        screened=budget.screened - screened0,
        phase_residuals=phase_residuals,
    )


# -- extremality certificate --------------------------------------------------


def extremality_certificate(domain, density, eigenspace, *, M: int = 16,
                            basis: HarmonicBasis | None = None) -> Certificate:
    """Certificate of extremality for a candidate sigma_1 eigenspace.

    Fits the best positive semidefinite quadratic form making the squared
    eigenfunctions sum to one against the boundary measure, breaking any
    boundary-data tie by the interior conformality defect, then reports the
    boundary sup residual and the largest Hopf differential magnitude
    2 |sum_ab C_ab df_a/dz df_b/dz| over an interior polar grid (64 radii by
    64 angles, points within 1e-3 of a hole dropped).  A space of
    dimension < 2 cannot certify anything; this is flagged, not raised.  A
    given basis must be built on domain.
    """
    if basis is None:
        basis = build_basis(domain, M)
    elif basis.domain != domain:
        raise ValueError("basis was built on another domain")
    samples = as_samples(domain, density, basis.n_quad)
    cols = np.asarray(eigenspace, dtype=float)
    if cols.ndim == 1:
        cols = cols[:, None]
    too_small = cols.shape[1] < 2

    r = (np.arange(64) + 0.5) / 64
    th = 2.0 * math.pi * np.arange(64) / 64
    z = np.ravel(r[:, None] * np.exp(1j * th)[None, :])
    z = z[domain.contains(z, 1e-3)]
    dzu = basis.dz_at(z, cols) if z.size else None
    C, res_b, n_indep = _boundary_fit(basis, samples, cols, dzu=dzu)
    if dzu is not None:
        hopf = np.einsum("ab,ax,bx->x", C, dzu, dzu)
        res_c = 2.0 * float(np.max(np.abs(hopf)))
    else:
        res_c = math.nan
    return Certificate(
        coefficients=C,
        residual_boundary=res_b,
        residual_conformal=res_c,
        n=n_indep,
        eigenspace_too_small=too_small,
    )


# -- configuration search -----------------------------------------------------


def _holes_for(sym: str, k: int, p) -> list:
    """Raw (center, radius) list for a parameter vector, reflected positive."""
    if sym == "cyclic":
        ring, hr = abs(p[0]), abs(p[1])
        return [
            (ring * np.exp(2j * math.pi * j / (k - 1)), hr)
            for j in range(k - 1)
        ]
    holes = [(complex(abs(p[0]), 0.0), abs(p[1]))]
    i = 2
    for _ in range(k - 2):
        holes.append((complex(p[i], p[i + 1]), abs(p[i + 2])))
        i += 3
    return holes


def _violation(holes) -> float:
    """How far a hole layout is from admissible; zero means buildable."""
    gap = 2.0 * HOLE_MARGIN
    v = 0.0
    for c, r in holes:
        v += max(0.0, abs(c) + r - (1.0 - gap)) + max(0.0, 1e-4 - r)
    for i in range(len(holes)):
        for j in range(i + 1, len(holes)):
            need = holes[i][1] + holes[j][1] + gap
            v += max(0.0, need - abs(holes[i][0] - holes[j][0]))
    return v


def _nelder_mead_max(f, x0, steps, max_iters: int) -> None:
    """Plain simplex maximization; f may raise BudgetExhausted to stop it.

    Nothing is returned: f is expected to record the best point it sees.
    """
    x0 = np.asarray(x0, dtype=float)
    dim = len(x0)
    pts = [x0.copy()]
    for i in range(dim):
        q = x0.copy()
        q[i] += steps[i]
        pts.append(q)
    vals = [f(p) for p in pts]
    for _ in range(max_iters):
        order = sorted(range(dim + 1), key=lambda i: -vals[i])
        pts = [pts[i] for i in order]
        vals = [vals[i] for i in order]
        if vals[0] - vals[-1] <= NM_FTOL * (1.0 + abs(vals[0])):
            break
        if max(np.max(np.abs(p - pts[0])) for p in pts[1:]) <= NM_XTOL:
            break
        centroid = np.mean(pts[:-1], axis=0)
        xr = centroid + (centroid - pts[-1])
        fr = f(xr)
        if fr > vals[0]:
            xe = centroid + 2.0 * (centroid - pts[-1])
            fe = f(xe)
            if fe > fr:
                pts[-1], vals[-1] = xe, fe
            else:
                pts[-1], vals[-1] = xr, fr
        elif fr > vals[-2]:
            pts[-1], vals[-1] = xr, fr
        else:
            xc = centroid + 0.5 * (pts[-1] - centroid)
            fc = f(xc)
            if fc > vals[-1]:
                pts[-1], vals[-1] = xc, fc
            else:
                for i in range(1, dim + 1):
                    pts[i] = pts[0] + 0.5 * (pts[i] - pts[0])
                    vals[i] = f(pts[i])


def optimize_configuration(k: int, symmetry: str = "cyclic", budget: int = 6000) -> AscentState:
    """Search hole layouts for the largest sigma_1 * L with k boundary circles.

    Under cyclic symmetry the k - 1 holes sit on a concentric ring at equal
    angles, leaving two parameters; without symmetry the first hole is
    rotated onto the positive axis and every center and radius is free.
    Each probe runs a cheap weight ascent; the winner is polished by the
    default ascent of optimize_density.  The winning ascent is returned,
    with eigensolves, fallbacks, screened and budget_exhausted counted over
    the whole search.
    Its value is the Rayleigh-Ritz sigma_1 * L of the returned weight at the
    degree it was computed with (PROBE_M when the polish does not beat the
    best probe, else 16).  Ritz values bound the true eigenvalue from above,
    so it is an upper estimate for the returned weight, not a certified lower
    bound for the supremum.
    """
    if k < 2:
        raise ValueError("configuration search needs k >= 2")
    if symmetry not in ("none", "cyclic"):
        raise ValueError(f"unknown symmetry {symmetry!r}")
    bud = EigensolveBudget(budget)
    x0 = [0.55, 0.25 / k]
    steps = [-0.2, -0.04]
    if symmetry == "none":
        for j in range(1, k - 1):
            ang = 2.0 * math.pi * j / (k - 1)
            x0 += [0.55 * math.cos(ang), 0.55 * math.sin(ang), 0.25 / k]
            steps += [-0.1, -0.1, -0.04]
    best = None

    def probe(p):
        nonlocal best
        holes = _holes_for(symmetry, k, p)
        v = _violation(holes)
        if v > 0.0:
            return -10.0 - 100.0 * v
        dom = CircleDomain(tuple(Hole(c, r) for c, r in holes))
        st = optimize_density(
            dom, BoundaryDensity.uniform(dom.k), PROBE_SCHEDULE, PROBE_ITERS,
            M=PROBE_M, budget=bud, halvings=6, rel_tol=PROBE_REL_TOL,
        )
        if best is None or st.value > best.value:
            best = st
        return st.value

    try:
        _nelder_mead_max(probe, x0, steps, NM_ITERS)
    except BudgetExhausted:
        pass
    if best is None:
        raise BudgetExhausted("budget spent before any admissible probe")

    if not bud.exhausted:
        try:
            polished = optimize_density(
                best.domain, BoundaryDensity.uniform(best.domain.k), budget=bud,
            )
            if polished.value > best.value:
                best = polished
        except BudgetExhausted:
            pass
    return replace(best, eigensolves=bud.used, fallbacks=bud.fallbacks,
                   screened=bud.screened, budget_exhausted=bud.exhausted)


def sweep_k(k_list, symmetry: str = "cyclic", budget: int = 6000) -> list:
    """Best ascent per boundary-circle count, one AscentState each.

    k = 1 is the plain disk and only the weight is optimized; every other
    entry runs the configuration search with a fresh budget.  Stalls and
    budget exhaustion show in each state's flags instead of raising.
    """
    out = []
    for k in k_list:
        k = int(k)
        if k < 1:
            raise ValueError("boundary circle counts must be >= 1")
        if k == 1:
            out.append(optimize_density(CircleDomain(), BoundaryDensity.uniform(1),
                                        budget=EigensolveBudget(budget)))
        else:
            out.append(optimize_configuration(k, symmetry, budget))
    return out
