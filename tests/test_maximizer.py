import math

import numpy as np
import pytest

from steklov_lab import maximizer
from steklov_lab.basis import build_basis
from steklov_lab.closedform import critical_parameter, critical_sigma1L
from steklov_lab.domain import (
    BoundaryDensity,
    BoundaryMeasureSamples,
    CircleDomain,
    Hole,
    as_samples,
    normalize,
)
from steklov_lab.dtn import SteklovSpectrum, steklov_spectrum
from steklov_lab.maximizer import (
    AscentState,
    BudgetExhausted,
    Certificate,
    EigensolveBudget,
    _boundary_fit,
    _boundary_traces,
    _cluster_directions,
    _near_cluster,
    _weight_gradient,
    extremality_certificate,
    optimize_configuration,
    optimize_density,
    sweep_k,
)

DISK = CircleDomain()
T0 = critical_parameter("annulus")
RHO_STAR = math.exp(-2.0 * T0)
ANNULUS_STAR = CircleDomain((Hole(0.0, RHO_STAR),))
STAR_VALUE = critical_sigma1L("annulus")


def matched_samples(rho, n=256, inner_factor=1.0):
    return BoundaryMeasureSamples(
        (np.full(n, 1.0), np.full(n, inner_factor)), (1.0, rho)
    )


def _near_cluster_loop(spec, tol):
    """Reference: one pass over the eigenvalues above sigma_0."""
    vals = spec.eigenvalues
    keep = [i for i in range(1, len(vals)) if vals[i] - vals[1] <= tol * max(1.0, vals[1])]
    return spec.eigenvectors[:, keep]


def test_near_cluster_matches_loop():
    t = 2.0 ** -7
    cases = [
        [], [0.0], [0.0, 2.0],
        [0.0, 1.0, 1.0, 1.0, 2.0],  # exact ties
        [0.0, 0.5, 0.5 + t, np.nextafter(0.5 + t, np.inf), 0.75],  # gap exactly tol, then wider
        [0.0, 4.0, 4.0 + 4 * t, np.nextafter(4.0 + 4 * t, np.inf)],  # tol * sigma_1 when sigma_1 > 1
    ]
    rng = np.random.default_rng(3)
    cases += [[0.0] + sorted(rng.choice([1.0, 1.005, 1.01, 1.02, 3.0], size=6)) for _ in range(30)]
    for vals in cases:
        n = len(vals)
        spec = SteklovSpectrum(np.array(vals, dtype=float), np.arange(n, dtype=float)[None, :],
                               [], 1.0)
        for tol in (t, 1e-2, 0.0):
            got, ref = _near_cluster(spec, tol), _near_cluster_loop(spec, tol)
            assert got.shape == ref.shape and np.array_equal(got, ref)
    spec = SteklovSpectrum(np.array([0.0, 0.5, 0.5 + t, np.nextafter(0.5 + t, np.inf)]),
                           np.arange(4.0)[None, :], [], 1.0)
    assert _near_cluster(spec, t).tolist() == [[1.0, 2.0]]


@pytest.fixture(scope="module")
def disk_state():
    return optimize_density(DISK, BoundaryDensity(((0.0, 0.4, 0.0),)))


@pytest.fixture(scope="module")
def annulus_state():
    # symmetric seed with the inner circle overweighted; the ascent restores
    # the mass balance and lands on the exact rotationally symmetric optimum
    return optimize_density(ANNULUS_STAR, matched_samples(RHO_STAR, inner_factor=1.3))


# -- gradient -----------------------------------------------------------------


def test_gradient_matches_directional_derivative():
    # the symmetric annulus with a constant weight is stationary (derivative
    # zero), so an off-center hole with a smooth weight checks a nonzero one
    T, fT = 1.3, 0.8
    rho = math.exp(-2 * T)
    off = CircleDomain((Hole(0.3 + 0.1j, 0.2),))
    cases = [
        (CircleDomain((Hole(0.0, rho),)),
         BoundaryMeasureSamples((np.full(256, fT), np.full(256, fT)), (1.0, rho))),
        (off, as_samples(off, BoundaryDensity(((0.0, 0.3, -0.1), (0.0, 0.2, 0.1))), 256)),
    ]
    for dom, samples in cases:
        basis = build_basis(dom, 16)
        spec = steklov_spectrum(dom, samples, basis=basis)
        assert spec.cluster_of(1) == [1]  # simple, so the derivative is classical
        x = spec.eigenvectors[:, 1]  # B-orthonormal: unit weighted boundary norm
        L = samples.total_mass()
        g = _weight_gradient(samples, _boundary_traces(basis, x) ** 2, spec.sigma1, L)
        assert g.shape == (2, basis.n_quad)

        # zero mean against the weighted measure
        mean = sum(2 * math.pi * np.mean(gj * vj) for gj, vj in zip(g, samples.values))
        assert abs(mean) < 1e-10

        # analytic derivative of sigma_1 * L along g
        u = [x @ basis.traces()[:, j] for j in range(2)]
        q4 = sum(2 * math.pi * np.mean(uj**4 * vj) for uj, vj in zip(u, samples.values))
        sigma = spec.sigma1
        analytic = sigma**2 * L * (q4 - 1.0 / L)

        def value(t):
            pert = BoundaryMeasureSamples(
                tuple(v * np.exp(t * gj) for v, gj in zip(samples.values, g)),
                samples.radii,
            )
            return steklov_spectrum(dom, pert, M=16).sigma1_L

        h = 1e-5
        fd = (value(h) - value(-h)) / (2 * h)
        assert abs(fd - analytic) < 1e-4 * max(1.0, abs(analytic))
        assert analytic >= -1e-12  # ascent direction never points downhill
    assert analytic > 0.1  # the off-center case


def test_gradient_sign_invariance():
    basis = build_basis(DISK, 10)
    samples = as_samples(DISK, BoundaryDensity.uniform(1), basis.n_quad)
    spec = steklov_spectrum(DISK, samples, basis=basis)
    x = spec.eigenvectors[:, 1]
    L = samples.total_mass()
    g1 = _weight_gradient(samples, _boundary_traces(basis, x) ** 2, spec.sigma1, L)
    g2 = _weight_gradient(samples, _boundary_traces(basis, -x) ** 2, spec.sigma1, L)
    assert np.max(np.abs(g1[0] - g2[0])) < 1e-14


# -- per-circle references for the stacked boundary table ---------------------


def _weight_gradient_loop(samples, sq, sigma, L):
    def mu(funcs):
        return sum(2 * math.pi * float(np.mean(f * v)) for f, v in zip(funcs, samples.values))

    avg = mu(sq) / L
    g = [-sigma * (q - avg) for q in sq]
    shift = mu(g) / L
    return [gj - shift for gj in g]


def _cluster_directions_loop(basis, samples, spec, near_width=1e-2):
    """Reference: one trace product and one gradient per circle."""
    sigma, L, k = spec.sigma1, samples.total_mass(), samples.k
    tiny = 1e-9 * (1.0 + sigma)

    def unit(g):
        s = max(float(np.max(np.abs(gj))) for gj in g)
        return (np.array(g) / s if s > tiny else None), s

    def averaged(cols):
        us = [cols.T @ basis.traces()[:, j] for j in range(k)]
        return unit(_weight_gradient_loop(samples, [np.mean(u**2, axis=0) for u in us], sigma, L))

    strict = spec.eigenvectors[:, spec.cluster_of(1)]
    d_strict, _ = averaged(strict)
    if strict.shape[1] > 1 and d_strict is None:
        return []
    near = _near_cluster(spec, near_width)
    dirs = [averaged(near)[0]] if near.shape[1] > strict.shape[1] else []
    dirs.append(d_strict)
    return [d for d in dirs if d is not None]


def _boundary_fit_loop(basis, samples, cols, dzu):
    """Reference: the pair and circle loops behind the certificate fit."""
    m = cols.shape[1]
    pairs = [(a, b) for a in range(m) for b in range(a, m)]
    fac = [1.0 if a == b else 2.0 for a, b in pairs]
    rows, rhs, tr = [], [], []
    for j in range(samples.k):
        U = cols.T @ basis.traces()[:, j]
        tr.append(U)
        sw = np.sqrt(samples.values[j] * (2.0 * math.pi / samples.n))
        rows.append(np.stack([f * U[a] * U[b] for f, (a, b) in zip(fac, pairs)], axis=1) * sw[:, None])
        rhs.append(sw)
    X, y = np.vstack(rows), np.concatenate(rhs)
    Um, sv, Vt = np.linalg.svd(X, full_matrices=False)
    rank = int(np.sum(sv > 1e-5 * sv[0]))
    c = Vt[:rank].T @ ((Um[:, :rank].T @ y) / sv[:rank])
    if rank < len(pairs):
        null = Vt[rank:].T
        Z = np.stack([f * dzu[a] * dzu[b] for f, (a, b) in zip(fac, pairs)], axis=1)
        ZN, zc = Z @ null, Z @ c
        coef = np.linalg.lstsq(np.vstack([ZN.real, ZN.imag]),
                               -np.concatenate([zc.real, zc.imag]), rcond=None)[0]
        c = c + null @ coef
    C = np.zeros((m, m))
    for p, (a, b) in enumerate(pairs):
        C[a, b] = C[b, a] = c[p]
    w, V = np.linalg.eigh(C)
    C = (V * np.clip(w, 0.0, None)) @ V.T
    resid = max(float(np.max(np.abs(np.einsum("ab,ax,bx->x", C, U, U) - 1.0))) for U in tr)
    return C, resid


TRIPLE = CircleDomain(tuple(Hole(0.5 * np.exp(2j * math.pi * j / 3), 0.12) for j in range(3)))


@pytest.mark.parametrize("dom, dens", [
    (DISK, BoundaryDensity(((0.0, 0.4, 0.0),))),
    (ANNULUS_STAR, BoundaryDensity(((0.1, 0.0, 0.2), (0.0, 0.3, 0.0)))),
    (TRIPLE, BoundaryDensity.uniform(4)),  # symmetric: sigma_1 is double
    (TRIPLE, BoundaryDensity(((0.0, 0.1, 0.0),) + ((0.2,),) * 3)),
], ids=["disk", "annulus", "triple-symmetric", "triple"])
def test_stacked_directions_and_fit_match_per_circle_loops(dom, dens):
    basis = build_basis(dom, 12)
    samples = normalize(as_samples(dom, dens, basis.n_quad))
    spec = steklov_spectrum(dom, samples, basis=basis)
    got = _cluster_directions(basis, samples, spec)
    ref = _cluster_directions_loop(basis, samples, spec)
    assert 2 >= len(got) == len(ref) > 0
    for g, r in zip(got, ref):
        assert g.shape == (dom.k, basis.n_quad)
        assert np.max(np.abs(g - r)) < 1e-13
    cols = _near_cluster(spec, 1e-2)
    r = (np.arange(16) + 0.5) / 16
    z = np.ravel(r[:, None] * np.exp(2j * math.pi * np.arange(32) / 32)[None, :])
    dzu = basis.dz_at(z[dom.contains(z, 1e-3)], cols)
    C, resid, _ = _boundary_fit(basis, samples, cols, dzu=dzu)
    C_ref, resid_ref = _boundary_fit_loop(basis, samples, cols, dzu)
    assert np.max(np.abs(C - C_ref)) <= 1e-12 * np.max(np.abs(C_ref))
    assert abs(resid - resid_ref) <= 1e-10 * max(resid_ref, 1e-3)


def test_directions_do_not_depend_on_the_basis_inside_a_cluster():
    # sigma_1 of the symmetric triple is double; LAPACK's choice of basis in
    # the cluster is arbitrary, so a rotated basis must give the same steps
    basis = build_basis(TRIPLE, 12)
    samples = normalize(as_samples(TRIPLE, BoundaryDensity.uniform(4), basis.n_quad))
    spec = steklov_spectrum(TRIPLE, samples, basis=basis)
    c = spec.cluster_of(1)
    assert len(c) == 2
    a = 0.7
    vecs = spec.eigenvectors.copy()
    vecs[:, c] = vecs[:, c] @ np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
    rotated = SteklovSpectrum(spec.eigenvalues, vecs, spec.clusters, spec.boundary_length)
    got = _cluster_directions(basis, samples, rotated)
    ref = _cluster_directions(basis, samples, spec)
    assert 2 >= len(got) == len(ref) > 0
    for g, r in zip(got, ref):
        assert np.max(np.abs(g - r)) < 1e-12


# -- ascent on the disk -------------------------------------------------------


def test_disk_ascent_reaches_weinstock(disk_state):
    st = disk_state
    assert isinstance(st, AscentState)
    assert st.value >= 2 * math.pi - 1e-5
    assert st.value <= 2 * math.pi + 1e-6
    assert not st.stalled
    assert not st.budget_exhausted


def test_disk_trace_monotone_within_phase(disk_state):
    rows = disk_state.trace
    for (_, e1, v1), (_, e2, v2) in zip(rows, rows[1:]):
        if e1 == e2:
            assert v2 >= v1 - 1e-12


def test_disk_converges_to_poisson_orbit(disk_state):
    # maximizing weights on the disk form the Moebius orbit of the uniform
    # one; their densities are Poisson kernels, so Fourier coefficients decay
    # geometrically and the profile is pinned by (c0, c1) alone
    v = disk_state.density.values[0]
    c = np.fft.rfft(v) / len(v)
    rho = abs(c[1]) / c[0].real
    assert rho < 0.5
    assert abs(c[2] * c[0] - c[1] ** 2) < 0.05 * abs(c[1]) ** 2
    n = len(v)
    th = 2 * np.pi * np.arange(n) / n
    a = rho * np.exp(-1j * np.angle(c[1]))
    pois = c[0].real * (1 - rho**2) / np.abs(np.exp(1j * th) - np.conj(a)) ** 2
    assert np.max(np.abs(v - pois)) < 0.01 * c[0].real


def test_uniform_disk_is_stationary():
    st = optimize_density(DISK, BoundaryDensity.uniform(1))
    assert abs(st.value - 2 * math.pi) < 1e-10
    # one eigensolve per smoothing level, no stepping
    assert st.eigensolves == 4
    assert not st.stalled


# -- ascent on the critical annulus ------------------------------------------


def test_annulus_ascent_value(annulus_state):
    assert abs(annulus_state.value - STAR_VALUE) < 1e-9
    assert annulus_state.eigenspace.shape[1] == 3


def test_fixed_point_squares_constant(annulus_state):
    # at an attained fixed point the optimal eigenspace combination has
    # squared eigenfunctions summing to a constant on the boundary
    eps, res = annulus_state.phase_residuals[-1]
    assert res <= 1e-4


def test_phase_residuals_nonincreasing(annulus_state):
    rs = [r for _, r in annulus_state.phase_residuals]
    for a, b in zip(rs, rs[1:]):
        assert b <= 1.1 * a + 1e-10


def test_reevaluation_drift(annulus_state):
    st = annulus_state
    again = steklov_spectrum(st.domain, st.density, M=24)
    assert abs(again.sigma1_L - st.value) < 1e-4


# -- certificates -------------------------------------------------------------


def test_certificate_at_critical_annulus():
    samples = matched_samples(RHO_STAR)
    spec = steklov_spectrum(ANNULUS_STAR, samples, M=16)
    cols = spec.eigenvectors[:, spec.cluster_of(1)]
    cert = extremality_certificate(ANNULUS_STAR, samples, cols)
    assert isinstance(cert, Certificate)
    assert cert.residual_boundary < 1e-10
    assert cert.residual_conformal < 1e-10
    assert cert.n == 3
    assert not cert.eigenspace_too_small
    evals = np.linalg.eigvalsh(cert.coefficients)
    assert evals.min() > -1e-12


def test_certificate_after_ascent(annulus_state):
    cert = extremality_certificate(
        ANNULUS_STAR, annulus_state.density, annulus_state.eigenspace
    )
    assert cert.residual_boundary < 1e-5
    assert cert.residual_conformal < 1e-8


def test_certificate_rejects_non_maximizer():
    dom = CircleDomain((Hole(0.0, 0.4),))
    spec = steklov_spectrum(dom, BoundaryDensity.uniform(2), M=16)
    cols = spec.eigenvectors[:, spec.cluster_of(1)]
    cert = extremality_certificate(dom, BoundaryDensity.uniform(2), cols)
    assert cert.residual_boundary > 1e-2


def test_certificate_flags_small_eigenspace():
    T, fT = 1.3, 0.8
    rho = math.exp(-2 * T)
    dom = CircleDomain((Hole(0.0, rho),))
    samples = BoundaryMeasureSamples(
        (np.full(256, fT), np.full(256, fT)), (1.0, rho)
    )
    spec = steklov_spectrum(dom, samples, M=16)
    cols = spec.eigenvectors[:, spec.cluster_of(1)]
    cert = extremality_certificate(dom, samples, cols)
    assert cert.eigenspace_too_small


def test_certificate_of_an_ascent_spans_its_split_optimum():
    # the k = 2 optimum of the configuration search: the ascent leaves the
    # critical catenoid's triple sigma_1 split by about 1e-4 relative, so
    # the strict cluster holds one function and the near band all three
    dom = CircleDomain((Hole(0.026730006243610015, 0.09070473280223669),))
    st = optimize_density(dom, BoundaryDensity.uniform(2))
    assert len(st.spectrum.cluster_of(1)) == 1
    cert = extremality_certificate(dom, st.density, st.eigenspace)
    assert cert.n == 3
    assert not cert.eigenspace_too_small
    assert cert.residual_boundary <= 1e-3


def test_disk_certificate():
    spec = steklov_spectrum(DISK, BoundaryDensity.uniform(1), M=16)
    cert = extremality_certificate(
        DISK, BoundaryDensity.uniform(1), spec.eigenvectors[:, spec.cluster_of(1)]
    )
    assert cert.residual_boundary < 1e-12
    assert cert.residual_conformal < 1e-12
    assert cert.n == 2


# -- budgets ------------------------------------------------------------------


def test_budget_validation():
    with pytest.raises(ValueError):
        EigensolveBudget(0)


def test_budget_exhaustion_returns_best_state():
    b = EigensolveBudget(3)
    st = optimize_density(DISK, BoundaryDensity(((0.0, 0.4, 0.0),)), budget=b)
    assert st.budget_exhausted
    assert st.eigensolves == 3
    assert b.exhausted
    assert np.isfinite(st.value)


@pytest.mark.parametrize("limit", [101, 160])
def test_budget_out_on_level_start_keeps_attained_state(limit):
    # the budget runs out on the first solve of a smoothing level: the
    # returned weight, eps and value are those of the last solved state,
    # recomputed by the ascent's own band request
    st = optimize_density(DISK, BoundaryDensity(((0.0, 0.4, 0.0),)),
                          budget=EigensolveBudget(limit))
    assert st.budget_exhausted and st.fallbacks == 0
    assert steklov_spectrum(DISK, st.density, 16, maximizer.BAND).sigma1_L == st.value
    assert st.eps == st.trace[-1][1]


def test_cut_band_falls_back_to_the_full_solve(monkeypatch):
    # a band of sigma_0 and sigma_1 alone ends inside the near band (and on
    # the disk sigma_1 is double, so it cuts a cluster): every solve is
    # redone in full (a screened trial runs none), the redo takes no budget
    # unit, and the ascent is the one the full path gives
    seed = BoundaryDensity(((0.0, 0.4, 0.0),))
    schedule = (1e-1, 1e-2)
    monkeypatch.setattr(maximizer, "BAND", 2)
    cut = optimize_density(DISK, seed, schedule, 6)
    monkeypatch.undo()
    monkeypatch.setattr(maximizer, "steklov_spectrum",
                        lambda dom, d, M, n_eigs=None, **kw: steklov_spectrum(dom, d, M, **kw))
    full = optimize_density(DISK, seed, schedule, 6)
    assert cut.fallbacks == cut.eigensolves - cut.screened > 0 and full.fallbacks == 0
    assert cut.spectrum.metadata["solve"] == full.spectrum.metadata["solve"] == "full"
    assert cut.value == full.value and cut.trace == full.trace
    assert cut.eigensolves == full.eigensolves
    assert np.array_equal(cut.density.values, full.density.values)
    assert np.array_equal(cut.spectrum.eigenvalues, full.spectrum.eigenvalues)
    assert np.array_equal(cut.spectrum.eigenvectors, full.spectrum.eigenvectors)
    assert cut.phase_residuals == full.phase_residuals


def test_band_ascent_keeps_its_band(disk_state):
    assert disk_state.fallbacks == 0
    assert disk_state.spectrum.metadata["solve"] == "band"
    assert disk_state.spectrum.eigenvalues.size == maximizer.BAND


def test_budget_take_raises_when_spent():
    b = EigensolveBudget(2)
    b.take()
    b.take()
    with pytest.raises(BudgetExhausted):
        b.take()
    assert b.exhausted and b.used == 2


# -- Ritz screen of trial weights ---------------------------------------------


def _seeded_state(seed):
    """A seeded cyclic layout (k = 1 .. 4) and log-density, solved as the ascent does."""
    rng = np.random.default_rng(seed)
    k = 1 + seed % 4
    while True:
        holes = maximizer._holes_for("cyclic", k, rng.uniform([0.3, 0.05], [0.7, 0.25]))
        if maximizer._violation(holes) == 0.0:
            break
    dom = CircleDomain(tuple(Hole(c, r) for c, r in holes))
    dens = BoundaryDensity(tuple(
        (0.0,) + tuple(rng.normal(0.0, 0.3 / (1 + i // 2)) for i in range(6))
        for _ in range(k)
    ))
    basis = build_basis(dom, 12)
    samples = normalize(as_samples(dom, dens, basis.n_quad))
    return basis, samples, steklov_spectrum(dom, samples, basis=basis, n_eigs=maximizer.BAND)


def test_ritz_bound_lies_above_the_solved_value():
    below = 0
    for seed in range(12):
        basis, samples, spec = _seeded_state(seed)
        ritz = maximizer._ritz_screen(basis, spec)
        rng = np.random.default_rng(100 + seed)
        for d in _cluster_directions(basis, samples, spec):
            for s in (1.0, 2.0 ** -3, 2.0 ** -8):
                cand = maximizer._step_candidate(samples, d, s, rng.choice([1e-1, 1e-2, 1e-3]))
                vals = ritz(cand)
                solved = steklov_spectrum(basis.domain, cand, basis=basis,
                                          n_eigs=maximizer.BAND).sigma1_L
                assert vals.shape == (spec.eigenvalues.size,)
                assert abs(vals[0]) <= 1e-12 * vals[1]  # the constant
                assert vals[1] >= solved * (1.0 - 1e-13)
                below += vals[1] < spec.sigma1_L
    assert below > 0  # trials that the screen rejects are among them


@pytest.mark.parametrize("dom, seed, schedule, iters, M", [
    (DISK, BoundaryDensity(((0.0, 0.4, 0.0),)), maximizer.EPS_SCHEDULE, 40, 16),
    (TRIPLE, BoundaryDensity(((0.0, 0.1, 0.0),) + ((0.2,),) * 3), (3e-2, 1e-3), 8, 12),
], ids=["disk", "k3"])
def test_screened_ascent_is_the_unscreened_one(monkeypatch, dom, seed, schedule, iters, M):
    screened = optimize_density(dom, seed, schedule, iters, M=M)
    monkeypatch.setattr(maximizer, "_ritz_screen", lambda basis, spec: lambda samples: None)
    solved = optimize_density(dom, seed, schedule, iters, M=M)
    assert 0 < screened.screened < screened.eigensolves and solved.screened == 0
    assert screened.value == solved.value and screened.trace == solved.trace
    assert screened.eigensolves == solved.eigensolves
    assert np.array_equal(screened.density.values, solved.density.values)
    assert np.array_equal(screened.spectrum.eigenvalues, solved.spectrum.eigenvalues)
    assert np.array_equal(screened.spectrum.eigenvectors, solved.spectrum.eigenvectors)
    assert screened.phase_residuals == solved.phase_residuals


# -- schedules and input handling --------------------------------------------


def test_eps_schedule_validation():
    seed = BoundaryDensity.uniform(1)
    with pytest.raises(ValueError):
        optimize_density(DISK, seed, eps_schedule=())
    with pytest.raises(ValueError):
        optimize_density(DISK, seed, eps_schedule=(1e-2, -1.0))
    with pytest.raises(ValueError):
        optimize_density(DISK, seed, eps_schedule=(1e-3, 1e-2))


def test_samples_are_regridded():
    n = 128
    seed = BoundaryMeasureSamples((np.full(n, 0.5),), (1.0,))
    st = optimize_density(DISK, seed, eps_schedule=(1e-2,), max_iters=2)
    assert len(st.density.values[0]) == 256


# -- configuration search and sweep -------------------------------------------


def test_configuration_validation():
    with pytest.raises(ValueError):
        optimize_configuration(1)
    with pytest.raises(ValueError):
        optimize_configuration(2, symmetry="spiral")


def test_configuration_search_k2(monkeypatch):
    monkeypatch.setattr(maximizer, "NM_ITERS", 25)
    res = optimize_configuration(2, budget=1500)
    assert isinstance(res, AscentState)
    assert res.domain.k == 2
    assert res.value >= 0.99 * STAR_VALUE
    assert res.eigensolves == 1500
    assert res.budget_exhausted
    # the reported value is attained by the returned weight
    again = steklov_spectrum(res.domain, res.density, M=24)
    assert abs(again.sigma1_L - res.value) < 1e-4


def test_configuration_search_counts_fallbacks(monkeypatch):
    monkeypatch.setattr(maximizer, "BAND", 2)
    res = optimize_configuration(2, budget=30)
    assert res.fallbacks == res.eigensolves == 30


def test_sweep_disk_only():
    entries = sweep_k([1])
    assert len(entries) == 1
    e = entries[0]
    assert isinstance(e, AscentState)
    assert e.domain.k == 1
    assert abs(e.value - 2 * math.pi) < 1e-8
    assert e.flags == []


def test_sweep_validates_counts():
    with pytest.raises(ValueError):
        sweep_k([0])
