import math

import numpy as np
import pytest
import scipy.linalg as sla

from steklov_lab import basis as basis_module
from steklov_lab import dtn
from steklov_lab.basis import boundary_matrices, build_basis, dirichlet_matrix
from steklov_lab.closedform import annulus_spectrum
from steklov_lab.domain import (
    BoundaryDensity,
    BoundaryMeasureSamples,
    CircleDomain,
    Hole,
    as_samples,
)
from steklov_lab.dtn import (
    CLUSTER_TOL,
    IndexOutOfRange,
    MassMatrixDegenerate,
    SteklovSpectrum,
    _cluster,
    coarse_bound,
    multiplicity_bound,
    multiplicity_check,
    solve_eigensystem,
    steklov_spectrum,
)
from steklov_lab.maximizer import extremality_certificate

DISK = CircleDomain()
UNIFORM1 = BoundaryDensity.uniform(1)


def test_disk_spectrum():
    spec = steklov_spectrum(DISK, UNIFORM1, M=16, n_eigs=9)
    expect = [0, 1, 1, 2, 2, 3, 3, 4, 4]
    assert np.max(np.abs(spec.eigenvalues - np.array(expect, dtype=float))) < 1e-10
    assert abs(spec.sigma1_L - 2 * math.pi) < 1e-9
    assert abs(spec.boundary_length - 2 * math.pi) < 1e-12


def test_disk_clusters():
    spec = steklov_spectrum(DISK, UNIFORM1, M=12, n_eigs=7)
    assert spec.clusters[:4] == [[0], [1, 2], [3, 4], [5, 6]]
    assert spec.multiplicity(1) == 2
    assert spec.cluster_of(2) == [1, 2]
    with pytest.raises(IndexOutOfRange):
        spec.cluster_of(99)


def _cluster_loop(vals, tol):
    """Reference: one pass over the sorted eigenvalues."""
    clusters = [[0]] if len(vals) else []
    for i in range(1, len(vals)):
        gap = vals[i] - vals[i - 1]
        if gap <= tol * max(1.0, abs(vals[i])):
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters


def test_cluster_matches_loop():
    tol = CLUSTER_TOL
    edge = 3.0 + tol * 3.0  # gap to 3.0 near tol * max(1, |sigma|)
    cases = [
        [], [0.0], [2.5],
        [0.0, 1.0, 1.0, 2.0, 2.0, 2.0],  # exact ties
        [0.0, 0.5, 0.5 + tol, 0.5 + 2 * tol],
        [0.0, 3.0, edge, np.nextafter(edge, np.inf), edge + 4 * tol * edge],
        [-1.0, -1.0 + tol, 0.0],
    ]
    rng = np.random.default_rng(7)
    for _ in range(50):
        v = np.sort(rng.choice([0.0, 1.0, 1.0 + 1e-7, 1.0 + 1e-6, 2.0, 4.0], size=rng.integers(0, 12)))
        cases.append(list(v) + list(np.cumsum(rng.exponential(3e-6, 6)) + 5.0))
    for vals in cases:
        vals = np.array(vals, dtype=float)
        for t in (tol, 1e-2, 0.0):
            assert _cluster(vals, t) == _cluster_loop(vals, t)
    # a gap exactly at the threshold joins, one ulp wider splits (exact in binary)
    t = 2.0 ** -20
    for top in (1.0, 4.0):
        at = top - t * top
        wider = np.nextafter(at, -np.inf)
        assert _cluster(np.array([at, top]), t) == _cluster_loop([at, top], t) == [[0, 1]]
        assert _cluster(np.array([wider, top]), t) == _cluster_loop([wider, top], t) == [[0], [1]]


def test_eigenvectors_b_orthonormal():
    dom = CircleDomain((Hole(0.2, 0.25),))
    dens = BoundaryDensity.uniform(2)
    basis = build_basis(dom, 12)
    mats = boundary_matrices(basis, as_samples(dom, dens, basis.n_quad))
    spec = steklov_spectrum(dom, dens, M=12, basis=basis)
    V = spec.eigenvectors
    G = V.T @ mats.B @ V
    assert np.max(np.abs(G - np.eye(G.shape[0]))) < 1e-8
    # nonconstant eigenvectors have zero weighted boundary mean
    assert np.max(np.abs(mats.m @ V[:, 1:])) < 1e-8


def test_matched_annulus_agrees_with_closed_form():
    # cylinder [-T, T] x S^1 with constant boundary weight fT, pushed to the
    # concentric annulus rho = exp(-2T): the measure density per angle is the
    # same constant fT on both circles
    T, fT = 0.9, 0.7
    rho = math.exp(-2 * T)
    dom = CircleDomain((Hole(0.0, rho),))
    n = 256
    samples = BoundaryMeasureSamples(
        (np.full(n, fT), np.full(n, fT)), (1.0, rho)
    )
    spec = steklov_spectrum(dom, samples, M=16, n_eigs=8)
    exact = annulus_spectrum(T, fT, 8).eigenvalues[:8]
    assert np.max(np.abs(spec.eigenvalues - np.array(exact))) < 1e-9
    assert abs(spec.boundary_length - 4 * math.pi * fT) < 1e-10
    assert abs(spec.boundary_length - samples.total_mass()) < 1e-10


def _seeded_weighted_domain(seed, k):
    """Disjoint random holes and a random smooth log-density, from one seed."""
    rng = np.random.default_rng(seed)
    while True:
        holes = []
        for _ in range(k - 1):
            r = rng.uniform(0.06, 0.18)
            c = rng.uniform(0.0, 0.92 - r) * np.exp(2j * math.pi * rng.uniform())
            holes.append(Hole(complex(c), float(r)))
        if all(
            abs(a.center - b.center) >= a.radius + b.radius + 0.04
            for i, a in enumerate(holes) for b in holes[i + 1:]
        ):
            break
    coeffs = tuple(
        (0.0,) + tuple(rng.normal(0.0, 0.3 / (1 + i // 2)) for i in range(6))
        for _ in range(k)
    )
    return CircleDomain(tuple(holes)), BoundaryDensity(coeffs)


def test_matches_dense_generalized_reference():
    # the weighted-mean deflation against scipy's generalized solver on the
    # same non-constant block
    dom, dens = _seeded_weighted_domain(4, 4)
    basis = build_basis(dom, 24)
    mats = boundary_matrices(basis, as_samples(dom, dens, basis.n_quad))
    A, B, m = mats.A, mats.B, mats.m
    ref = sla.eigh(
        A[1:, 1:], B[1:, 1:] - np.outer(m[1:], m[1:]) / m[0], eigvals_only=True
    )
    spec = steklov_spectrum(dom, dens, basis=basis, n_eigs=11)
    assert spec.metadata["dropped"] == 0
    assert np.max(np.abs(spec.eigenvalues[1:] / ref[:10] - 1.0)) < 1e-9
    assert abs(spec.boundary_length - as_samples(dom, dens).total_mass()) < 1e-10


def _cholesky_reference(A, B, m):
    """The explicit path: Cholesky of A', whitening, QR-iteration eigh, back-substitution.

    Returns (eigenvalues with sigma_0 = 0, eigenvectors in full basis
    coordinates, number of dropped directions).
    """
    n = A.shape[0]
    L = float(m[0])
    mp = m[1:]
    R = sla.cholesky(A[1:, 1:])
    S = B[1:, 1:] - np.outer(mp, mp) / L
    Ci = sla.solve_triangular(R, S, trans="T")
    C = sla.solve_triangular(R, Ci.T, trans="T").T
    mu, Y = sla.eigh(0.5 * (C + C.T), driver="ev")
    mu, Y = mu[::-1], Y[:, ::-1]
    kept = int(np.count_nonzero(mu > (n - 1) * np.finfo(float).eps * abs(mu[0])))
    mu = mu[:kept]
    X = sla.solve_triangular(R, Y[:, :kept]) / np.sqrt(mu)
    vecs = np.zeros((n, kept + 1))
    vecs[0, 0] = 1.0 / np.sqrt(L)
    vecs[0, 1:] = -(mp @ X) / L
    vecs[1:, 1:] = X
    return np.concatenate(([0.0], 1.0 / mu)), vecs, n - 1 - kept


def test_matches_cholesky_reference_on_seeded_domains():
    for i in range(40):
        k, M = 2 + i % 4, (12, 24, 48)[(i // 4) % 3]
        dom, dens = _seeded_weighted_domain(100 + i, k)
        basis = build_basis(dom, M)
        mats = boundary_matrices(basis, as_samples(dom, dens, basis.n_quad))
        A, B, m = mats.A, mats.B, mats.m
        ref_vals, ref_vecs, ref_dropped = _cholesky_reference(A, B, m)
        spec = solve_eigensystem(A, B, m)
        vals, V = spec.eigenvalues, spec.eigenvectors
        # the solve runs the steps of LAPACK sygvd with an explicit inverse of
        # the factor; its values lie within 3.62e-14 (relative) of sygvd's over
        # these 40 domains, so the bound is ten times that
        mu = sla.eigh(B[1:, 1:] - np.outer(m[1:], m[1:]) / m[0], A[1:, 1:], driver="gvd")[0]
        assert np.max(np.abs(vals[1:] * mu[::-1][: vals.size - 1] - 1.0)) < 3.62e-13
        assert spec.metadata["dropped"] == ref_dropped
        assert spec.metadata["rank"] == ref_vals.size == vals.size
        assert vals[0] == 0.0
        assert np.max(np.abs(vals[1:] / ref_vals[1:] - 1.0)) < 1e-10
        assert np.max(np.abs(V.T @ B @ V - np.eye(vals.size))) < 1e-10
        assert np.max(np.abs(V.T @ A @ V - np.diag(vals))) < 1e-10 * vals[-1]
        # degenerate clusters may come back in another basis, so compare each
        # cluster's span: the B-norm of what the reference span misses.  The
        # highest Ritz pairs (mu = 1 / sigma far below mu_max) are resolved
        # only to about eps * mu_max / gap, some 1e-9.
        for c in spec.clusters:
            W = ref_vecs[:, c]
            E = V[:, c] - W @ (W.T @ B @ V[:, c])
            assert np.sqrt(np.max(np.abs(np.diag(E.T @ B @ E)))) < 1e-8


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129, 484])
def test_blocked_inverse_of_the_dirichlet_factor(n):
    # the leading n x n block of a Cholesky factor is the factor of the
    # leading block of A', on either side of the base size INV_BLOCK = 64
    assert basis_module.INV_BLOCK == 64
    for seed in (7, 8, 9):
        dom, _ = _seeded_weighted_domain(seed, 5)
        G = np.linalg.cholesky(dirichlet_matrix(build_basis(dom, 48))[1:, 1:])[:n, :n]
        Li = basis_module._lower_inverse(G)
        assert Li.shape == (n, n)
        assert np.all(np.triu(Li, 1) == 0.0)
        assert np.max(np.abs(Li @ G - np.eye(n))) <= 1e-13


def test_n_eigs_truncates_the_full_solve_on_seeded_domains():
    for i in range(40):
        k, M = 2 + i % 4, (12, 24, 48)[(i // 4) % 3]
        dom, dens = _seeded_weighted_domain(100 + i, k)
        basis = build_basis(dom, M)
        full = steklov_spectrum(dom, dens, basis=basis)
        for p in (2, 9):
            part = steklov_spectrum(dom, dens, basis=basis, n_eigs=p)
            assert part.metadata == full.metadata
            assert np.array_equal(part.eigenvalues, full.eigenvalues[:p])
            assert np.array_equal(part.eigenvectors, full.eigenvectors[:, :p])
            assert part.clusters == [[j for j in c if j < p] for c in full.clusters if c[0] < p]


def test_band_counts_dropped_columns_on_the_band():
    # weight on 10 of 256 nodes: the deflated mass block has rank 9, so of
    # the 24 values the solve finds, 15 carry no mass; a request for the
    # first 13 counts them over the whole solve and returns the 10 kept
    values = np.zeros(256)
    values[::26] = 1.0
    samples = BoundaryMeasureSamples((values,), (1.0,))
    full = steklov_spectrum(DISK, samples, 12)
    part = steklov_spectrum(DISK, samples, 12, n_eigs=13)
    assert full.metadata["rank"] == part.metadata["rank"] == 10
    assert full.metadata["dropped"] == part.metadata["dropped"] == 15
    assert part.eigenvalues.size == 10
    assert np.array_equal(part.eigenvalues, full.eigenvalues)


@pytest.mark.parametrize(
    "bad, n_eigs",  # a request for the first 9 values, then the full one
    [(np.inf, 9), (np.nan, 9), (np.inf, None), (np.nan, None)],
    ids=["inf", "nan", "inf-full", "nan-full"],
)
def test_band_non_finite_weight_raises(bad, n_eigs):
    values = np.ones(256)
    values[7] = bad
    with pytest.raises(ValueError, match="non-finite"):
        steklov_spectrum(DISK, BoundaryMeasureSamples((values,), (1.0,)), 12, n_eigs=n_eigs)


@pytest.mark.parametrize("n_eigs", [9, None], ids=["band", "full"])
def test_negative_weight_raises(n_eigs):
    # a signed table is not a measure, even when its total mass is positive
    values = np.ones(256)
    values[128:] = -0.5
    with pytest.raises(ValueError, match="negative"):
        steklov_spectrum(DISK, BoundaryMeasureSamples((values,), (1.0,)), 12, n_eigs=n_eigs)


def test_zero_padded_table_with_a_dip_raises():
    # zero padding a positive 8-point table to 256 points dips below zero
    values = np.full(8, 1e-3)
    values[0] = 1.0
    padded = as_samples(DISK, BoundaryMeasureSamples((values,), (1.0,)), 256)
    assert padded.values.min() < 0.0 < values.min()
    with pytest.raises(ValueError, match="negative"):
        steklov_spectrum(DISK, padded, 12)


def test_band_nonpositive_length_raises():
    samples = BoundaryMeasureSamples((np.zeros(256),), (1.0,))
    with pytest.raises(MassMatrixDegenerate):
        steklov_spectrum(DISK, samples, 12, n_eigs=5)


@pytest.mark.parametrize("n_eigs", [0, -1])
def test_n_eigs_below_one_raises(n_eigs, monkeypatch):
    mats = boundary_matrices(build_basis(DISK, 4), as_samples(DISK, UNIFORM1, 256))
    with pytest.raises(ValueError, match="n_eigs"):
        solve_eigensystem(mats.A, mats.B, mats.m, n_eigs)
    # refused before a basis is built
    monkeypatch.setattr(dtn, "build_basis", lambda *a: pytest.fail("basis built"))
    with pytest.raises(ValueError, match="n_eigs"):
        steklov_spectrum(DISK, UNIFORM1, 4, n_eigs)


def test_one_eigenvalue_is_sigma0():
    spec = steklov_spectrum(DISK, UNIFORM1, 4, 1)
    assert spec.eigenvalues.tolist() == [0.0] and spec.eigenvectors.shape == (9, 1)


@pytest.mark.parametrize("where", ["A", "B"])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_input_raises(where, bad):
    mats = {"A": np.diag([0.0, 2.0, 3.0]), "B": np.eye(3)}
    mats[where][1, 2] = mats[where][2, 1] = bad
    with pytest.raises(ValueError):
        solve_eigensystem(mats["A"], mats["B"], np.array([1.0, 0.0, 0.0]))


def _circumcircle(a, b, c):
    """Center and radius of the circle through three complex points."""
    center = (
        abs(a) ** 2 * (b - c) + abs(b) ** 2 * (c - a) + abs(c) ** 2 * (a - b)
    ) / (a.conjugate() * (b - c) + b.conjugate() * (c - a) + c.conjugate() * (a - b))
    return center, abs(a - center)


def _center(dom, j):
    return 0j if j == 0 else dom.holes[j - 1].center


def test_sigma1_L_is_moebius_invariant():
    # a disk automorphism maps the circle domain to another one; with the
    # boundary measure pushed forward, the Dirichlet energy and the measure
    # are unchanged, so sigma_1 * L is too
    dom = CircleDomain((
        Hole(0.35 + 0.2j, 0.15), Hole(-0.4 - 0.1j, 0.12), Hole(0.05 - 0.5j, 0.1),
    ))
    rng = np.random.default_rng(11)
    dens = BoundaryDensity(tuple(
        (0.0,) + tuple(rng.normal(0.0, 0.3 / (1 + i // 2)) for i in range(6))
        for _ in range(dom.k)
    ))
    a = 0.3 - 0.2j

    def phi(z):
        return (z - a) / (1 - a.conjugate() * z)

    def phi_inv(w):
        return (w + a) / (1 + a.conjugate() * w)

    image = CircleDomain(tuple(
        Hole(*_circumcircle(*(phi(h.center + h.radius * u) for u in (1, 1j, -1))))
        for h in dom.holes
    ))
    M = 24
    n = build_basis(image, M).n_quad
    th = 2 * math.pi * np.arange(n) / n
    values = []
    for j in range(image.k):
        rho = image.component_radius(j)
        z = phi_inv(_center(image, j) + rho * np.exp(1j * th))
        lam = dens.values(j, np.angle(z - _center(dom, j)))
        dphi = (1 - abs(a) ** 2) / (1 - a.conjugate() * z) ** 2
        values.append(lam / np.abs(dphi) * rho)
    pushed = BoundaryMeasureSamples(tuple(values), tuple(image.radii()))
    ref = steklov_spectrum(dom, dens, M=M, n_eigs=2)
    mapped = steklov_spectrum(image, pushed, M=M, n_eigs=2)
    assert abs(mapped.boundary_length / ref.boundary_length - 1) < 1e-13
    assert abs(mapped.sigma1_L / ref.sigma1_L - 1) < 1e-9


def test_inputs_of_another_domain_are_rejected():
    # a basis or a samples table of b used on a would give b's sigma_1 * L
    # against a's boundary (7.1405 here; a has 6.4807 and b 6.6711)
    a = CircleDomain((Hole(0.3, 0.2),))
    b = CircleDomain((Hole(-0.1 + 0.2j, 0.1),))
    uniform = BoundaryDensity.uniform(2)
    assert abs(steklov_spectrum(a, uniform).sigma1_L - 6.480740458928641) < 1e-9
    assert abs(steklov_spectrum(b, uniform).sigma1_L - 6.671069611073525) < 1e-9
    basis_b = build_basis(b, 16)
    for n_eigs in (None, 9):  # the full request and the first 9 values
        with pytest.raises(ValueError, match="another domain"):
            steklov_spectrum(a, uniform, 16, n_eigs, basis=basis_b)
    with pytest.raises(ValueError, match="another domain"):
        extremality_certificate(a, uniform, np.eye(basis_b.size)[:, 1:3], basis=basis_b)
    with pytest.raises(ValueError, match="radii"):
        steklov_spectrum(b, as_samples(a, uniform))


def test_ritz_values_decrease_with_degree():
    dom = CircleDomain((Hole(0.35, 0.2),))
    dens = BoundaryDensity((
        (0.0, 0.3, -0.1), (0.0, 0.2, 0.0),
    ))
    lo = steklov_spectrum(dom, dens, M=6, n_eigs=6).eigenvalues
    hi = steklov_spectrum(dom, dens, M=14, n_eigs=6).eigenvalues
    assert np.all(hi <= lo + 1e-12)


def test_residuals_and_metadata():
    spec = steklov_spectrum(DISK, UNIFORM1, M=10, n_eigs=5)
    # rank and dropped count over the whole solve, not the 5 values returned
    assert spec.metadata == {"M": 10, "n_quad": 256, "dropped": 0, "rank": 21}
    assert spec.eigenvalues.size == 5
    # relative residual |A v - sigma B v| / |B v| of each returned pair
    basis = build_basis(DISK, 10)
    sys_ = boundary_matrices(basis, as_samples(DISK, UNIFORM1, basis.n_quad))
    Bv = sys_.B @ spec.eigenvectors
    res = np.linalg.norm(sys_.A @ spec.eigenvectors - Bv * spec.eigenvalues, axis=0)
    assert np.max(res / np.linalg.norm(Bv, axis=0)) < 1e-8


def test_degenerate_mass_matrix():
    with pytest.raises(MassMatrixDegenerate):
        solve_eigensystem(np.eye(3), np.zeros((3, 3)), np.zeros(3))


def test_indefinite_dirichlet_block_raises():
    A = np.diag([0.0, 1.0, -1.0])
    with pytest.raises(np.linalg.LinAlgError, match="Dirichlet block is not positive definite"):
        solve_eigensystem(A, np.eye(3), np.array([1.0, 0.0, 0.0]))


def test_one_factorization_per_basis(monkeypatch):
    # N solves on one basis factor its Dirichlet block once, on the first
    # solve; a basis used only for the certificate's traces never does
    calls = []
    cholesky, lower_inverse = np.linalg.cholesky, basis_module._lower_inverse

    def counted_cholesky(a):
        calls.append("potrf")
        return cholesky(a)

    def counted_inverse(L):
        # the blocked inverse calls itself on the halves of a factor
        if L.shape[0] == basis.size - 1:
            calls.append("inverse")
        return lower_inverse(L)

    monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
    monkeypatch.setattr(basis_module, "_lower_inverse", counted_inverse)
    dom, _ = _seeded_weighted_domain(3, 5)
    basis = build_basis(dom, 8)
    rng = np.random.default_rng(3)
    weights = [BoundaryDensity(tuple((0.0, *rng.normal(0.0, 0.3, 4)) for _ in range(dom.k)))
               for _ in range(4)]
    specs = [steklov_spectrum(dom, w, basis=basis) for w in weights]
    assert calls == ["potrf", "inverse"]
    assert basis.inverse_factor() is basis.inverse_factor()
    # each solve is the one that factors its own A, bitwise
    for w, spec in zip(weights, specs):
        mats = boundary_matrices(basis, as_samples(dom, w, basis.n_quad))
        ref = solve_eigensystem(mats.A, mats.B, mats.m, metadata=spec.metadata)
        assert np.array_equal(ref.eigenvalues, spec.eigenvalues)
        assert np.array_equal(ref.eigenvectors, spec.eigenvectors)
    calls.clear()
    fresh = build_basis(dom, 8)
    extremality_certificate(dom, weights[0], specs[0].eigenvectors[:, 1:3], basis=fresh)
    assert calls == [] and fresh._inverse_factor is None


def test_rank_deficient_mass_drops_columns():
    A = np.array([[0.0, 0.0, 0.0], [0.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
    B = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
    spec = solve_eigensystem(A, B, np.array([1.0, 0.0, 0.0]))
    assert isinstance(spec, SteklovSpectrum)
    assert spec.metadata["dropped"] == 1
    assert spec.eigenvalues[0] == 0.0
    # the massless direction (0, 1, -1) is dropped, not a basis column, so the
    # exact generalized eigenvalue on span(e1, e2) survives
    assert np.max(np.abs(spec.eigenvalues - [0.0, 1.5])) < 1e-14


def test_coarse_bound_values():
    assert abs(coarse_bound(0, 1) - 2 * math.pi) < 1e-15
    assert abs(coarse_bound(0, 3) - 6 * math.pi) < 1e-15
    assert abs(coarse_bound(0, 10) - 8 * math.pi) < 1e-15
    assert abs(coarse_bound(1, 1) - 4 * math.pi) < 1e-15
    with pytest.raises(ValueError):
        coarse_bound(-1, 1)
    with pytest.raises(ValueError):
        coarse_bound(0, 0)


def test_multiplicity_bound_values():
    assert multiplicity_bound(1, 0) == 3
    assert multiplicity_bound(2, 0) == 5
    assert multiplicity_bound(1, 1) == 7
    assert multiplicity_bound(1, 0, orientable=False) == 7
    with pytest.raises(ValueError):
        multiplicity_bound(0, 0)


def test_multiplicity_check_inputs():
    spec = steklov_spectrum(DISK, UNIFORM1, M=10, n_eigs=5)
    mult, bound, ok = multiplicity_check(spec, 1, 0)
    assert (mult, bound, ok) == (2, 3, True)
    mult, bound, ok = multiplicity_check([0.0, 1.0, 1.0, 1.0, 2.0], 1, 0)
    assert (mult, bound, ok) == (3, 3, True)
    cf = annulus_spectrum(1.3, 0.8, 4)
    mult, bound, ok = multiplicity_check(cf, 1, 0)
    assert (mult, bound, ok) == (1, 3, True)
