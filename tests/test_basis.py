import math

import numpy as np
import pytest

from steklov_lab.basis import (
    DegreeTooLarge,
    EigenSystemMatrices,
    HarmonicBasis,
    boundary_matrices,
    build_basis,
    dirichlet_matrix,
)
from steklov_lab.domain import (
    BoundaryDensity,
    BoundaryMeasureSamples,
    CircleDomain,
    Hole,
    as_samples,
)

RHO = 0.35
ANNULUS = CircleDomain((Hole(0.0, RHO),))


def _elements(b):
    """(kind, j, m, part) per element in the order HarmonicBasis documents.

    kind is const, outer, hole_log or hole; j the hole index (-1 for the
    outer circle); part 0 takes the real part of w^m, 1 the imaginary part.
    """
    out = [("const", -1, 0, 0)]
    for m in range(1, b.M + 1):
        out += [("outer", -1, m, 0), ("outer", -1, m, 1)]
    for j in range(len(b.domain.holes)):
        out.append(("hole_log", j, 0, 0))
        for m in range(1, b.M + 1):
            out += [("hole", j, m, 0), ("hole", j, m, 1)]
    return out


def test_size_and_layout():
    z = np.array([0.3 + 0.2j])
    b = build_basis(CircleDomain(), 4)
    assert b.size == 9 == len(_elements(b))
    v = b.values_at(z)[:, 0]
    assert v[0] == 1.0
    assert abs(v[1] - z[0].real) < 1e-15 and abs(v[2] - z[0].imag) < 1e-15
    b2 = build_basis(ANNULUS, 3)
    assert b2.size == (1 + 6) + (1 + 6) == len(_elements(b2))
    assert abs(b2.values_at(z)[7, 0] - math.log(abs(z[0]))) < 1e-15


def test_degree_bounds():
    with pytest.raises(DegreeTooLarge):
        build_basis(CircleDomain(), 0)
    with pytest.raises(DegreeTooLarge):
        build_basis(CircleDomain(), 65)


def test_quadrature_size():
    assert build_basis(CircleDomain(), 16).n_quad == 256
    assert build_basis(CircleDomain(), 33).n_quad == 512
    assert build_basis(CircleDomain(), 64).n_quad == 512


def test_disk_dirichlet_matrix_is_exact():
    # energy of Re z^m and Im z^m over the unit disk is pi*m, cross terms vanish
    M = 6
    b = build_basis(CircleDomain(), M)
    A = dirichlet_matrix(b)
    expect = np.zeros(b.size)
    for i, (kind, _, m, _) in enumerate(_elements(b)):
        if kind == "outer":
            expect[i] = math.pi * m
    assert np.max(np.abs(A - np.diag(expect))) < 1e-11


def test_annulus_dirichlet_matrix_closed_form():
    # diagonal by angular orthogonality: pi*m*(1 - rho**(2m)) for the four
    # degree-m elements, 2*pi*log(1/rho) for the flux carrier, zero otherwise
    M = 5
    b = build_basis(ANNULUS, M)
    A = dirichlet_matrix(b)
    expect = np.zeros(b.size)
    for i, (kind, _, m, _) in enumerate(_elements(b)):
        if kind in ("outer", "hole"):
            expect[i] = math.pi * m * (1.0 - RHO ** (2 * m))
        elif kind == "hole_log":
            expect[i] = 2.0 * math.pi * math.log(1.0 / RHO)
    assert np.max(np.abs(A - np.diag(expect))) < 1e-10


def _uniform(b):
    """The uniform weight as samples on the basis quadrature grid."""
    return as_samples(b.domain, BoundaryDensity.uniform(b.domain.k), b.n_quad)


def test_mass_matrix_on_disk():
    M = 4
    b = build_basis(CircleDomain(), M)
    mats = boundary_matrices(b, _uniform(b))
    assert isinstance(mats, EigenSystemMatrices)
    expect = np.diag([2 * math.pi] + [math.pi] * (2 * M))
    assert np.max(np.abs(mats.B - expect)) < 1e-12
    mexp = np.zeros(b.size)
    mexp[0] = 2 * math.pi
    assert np.max(np.abs(mats.m - mexp)) < 1e-12


def test_mass_matrix_annulus_entries():
    M = 3
    b = build_basis(ANNULUS, M)
    mats = boundary_matrices(b, _uniform(b))
    idx = {e: i for i, e in enumerate(_elements(b))}
    for m in range(1, M + 1):
        i_out = idx[("outer", -1, m, 0)]
        i_hol = idx[("hole", 0, m, 0)]
        assert abs(mats.B[i_out, i_out] - math.pi * (1 + RHO ** (2 * m + 1))) < 1e-12
        assert abs(mats.B[i_out, i_hol] - math.pi * RHO**m * (1 + RHO)) < 1e-12
    i_log = idx[("hole_log", 0, 0, 0)]
    assert abs(mats.m[0] - 2 * math.pi * (1 + RHO)) < 1e-12
    assert abs(mats.m[i_log] - 2 * math.pi * RHO * math.log(RHO)) < 1e-12
    assert abs(mats.m[idx[("outer", -1, 1, 0)]]) < 1e-12


def test_matrices_symmetric_psd():
    dom = CircleDomain((Hole(0.3 + 0.1j, 0.2), Hole(-0.4j, 0.15)))
    b = build_basis(dom, 8)
    mats = boundary_matrices(b, _uniform(b))
    assert np.array_equal(mats.A, mats.A.T)
    assert np.array_equal(mats.B, mats.B.T)
    assert np.linalg.eigvalsh(mats.A).min() > -1e-9
    assert np.linalg.eigvalsh(mats.B).min() > -1e-12
    # the constant has no energy, and every element has zero net flux
    assert np.max(np.abs(mats.A[0])) < 1e-10


def test_gradients_match_finite_differences():
    dom = CircleDomain((Hole(0.25, 0.2),))
    b = build_basis(dom, 3)
    z0 = -0.3 + 0.45j
    h = 1e-6
    dz = b.dz_at(np.array([z0]), np.eye(b.size))
    gx, gy = 2.0 * dz.real, -2.0 * dz.imag
    fx = (b.values_at(np.array([z0 + h])) - b.values_at(np.array([z0 - h]))) / (2 * h)
    fy = (b.values_at(np.array([z0 + 1j * h])) - b.values_at(np.array([z0 - 1j * h]))) / (2 * h)
    assert np.max(np.abs(gx[:, 0] - fx[:, 0])) < 1e-7
    assert np.max(np.abs(gy[:, 0] - fy[:, 0])) < 1e-7


def _reference_parts(b, z):
    """Per-element evaluation loop: the definition the power tables must match."""
    z = np.asarray(z, dtype=complex)
    vals = np.empty((b.size, z.size))
    dz = np.empty((b.size, z.size), dtype=complex)
    zf = z.ravel()
    for i, (kind, j, m, part) in enumerate(_elements(b)):
        if kind == "const":
            vals[i] = 1.0
            dz[i] = 0.0
            continue
        if kind == "outer":
            F = zf**m
            dF = m * zf ** (m - 1)
        elif kind == "hole_log":
            h = b.domain.holes[j]
            F = np.log(np.abs(zf - h.center)) + 0j
            dF = 1.0 / (zf - h.center)
            # F here holds the real value; imaginary part unused
            vals[i] = F.real
            dz[i] = dF / 2.0
            continue
        else:  # hole
            h = b.domain.holes[j]
            w = h.radius / (zf - h.center)
            F = w**m
            dF = -(m / h.radius) * w ** (m + 1)
        if part == 0:
            vals[i] = F.real
            dz[i] = dF / 2.0
        else:
            vals[i] = F.imag
            dz[i] = -1j * dF / 2.0
    return vals, dz


THREE_HOLES = CircleDomain(
    (Hole(0.3 + 0.1j, 0.15), Hole(-0.4 - 0.2j, 0.1), Hole(0.05 + 0.55j, 0.12))
)


def _row_scale(b, a):
    """Max modulus of each row, shared by the Re and Im rows of one power.

    On a symmetric grid one row of a pair can vanish exactly (Im z^32 at the
    64th roots of unity) and then holds rounding only.
    """
    s = np.max(np.abs(a), axis=1)
    for i, (_, _, _, part) in enumerate(_elements(b)):
        if part == 1:
            s[i - 1] = s[i] = max(s[i - 1], s[i])
    return s[:, None]


@pytest.mark.parametrize("M", [1, 2, 12, 48, 64])
@pytest.mark.parametrize("dom", [CircleDomain(), THREE_HOLES], ids=["disk", "3holes"])
def test_power_tables_match_per_element_loop(dom, M):
    b = build_basis(dom, M)
    r = (np.arange(24) + 0.5) / 24
    grid = np.ravel(r[:, None] * np.exp(2j * math.pi * np.arange(64) / 64)[None, :])
    points = [b.circle_points()[j] for j in range(dom.k)] + [grid[dom.contains(grid, 0.01)]]
    rng = np.random.default_rng(5)
    for z in points:
        eta = np.exp(2j * math.pi * rng.uniform(size=z.size))
        vals, dn = b._holomorphic_parts(z, eta)
        rvals, rdz = _reference_parts(b, z)
        assert b.values_at(z).tobytes() == vals.tobytes()
        assert np.all(np.abs(vals - rvals) <= 1e-13 * _row_scale(b, rvals))
        # |d/d(eta)| <= 2 |d/dz|, so the d/dz row scale bounds it
        rdn = 2.0 * (rdz * eta).real
        assert np.all(np.abs(dn - rdn) <= 2e-13 * _row_scale(b, rdz))


@pytest.mark.parametrize("dom", [CircleDomain(), THREE_HOLES], ids=["disk", "3holes"])
def test_dz_at_matches_contracted_table(dom):
    # the Horner sums per circle equal the element table contracted with cols
    rng = np.random.default_rng(11)
    r = (np.arange(24) + 0.5) / 24
    grid = np.ravel(r[:, None] * np.exp(2j * math.pi * np.arange(64) / 64)[None, :])
    for M in (1, 2, 12, 48, 64):
        b = build_basis(dom, M)
        points = [b.circle_points()[j] for j in range(dom.k)] + [grid[dom.contains(grid, 0.01)]]
        for ncols in (1, 3):
            cols = rng.normal(size=(b.size, ncols))
            for z in points:
                got = b.dz_at(z, cols)
                ref = cols.T @ _reference_parts(b, z)[1]
                assert got.shape == (ncols, z.size)
                scale = np.max(np.abs(ref), axis=1, keepdims=True)
                assert np.all(np.abs(got - ref) <= 1e-13 * scale)
            assert b.dz_at(np.array([], dtype=complex), cols).shape == (ncols, 0)
        with pytest.raises(ValueError):
            b.dz_at(grid[:3], cols[1:])


def test_each_circle_evaluated_once(monkeypatch):
    calls = []
    parts = HarmonicBasis._holomorphic_parts

    def counted(self, z, eta=None):
        calls.append(z)
        return parts(self, z, eta)

    monkeypatch.setattr(HarmonicBasis, "_holomorphic_parts", counted)
    dom = CircleDomain((Hole(0.3 + 0.1j, 0.2), Hole(-0.4j, 0.15)))
    for first in (dirichlet_matrix, HarmonicBasis.traces,
                  lambda b: boundary_matrices(b, _uniform(b))):
        calls.clear()
        b = build_basis(dom, 8)
        first(b)
        dirichlet_matrix(b)
        boundary_matrices(b, _uniform(b))
        b.traces()
        assert len(calls) == 1
        assert calls[0].shape == (dom.k, b.n_quad)


def test_basis_keeps_only_the_trace_table_and_the_dirichlet_block():
    b = build_basis(THREE_HOLES, 8)
    boundary_matrices(b, _uniform(b))
    arrays = {name for name, v in vars(b).items() if isinstance(v, np.ndarray)}
    assert arrays == {"_traces", "_dirichlet"}
    assert b._traces.shape == (b.size, b.domain.k, b.n_quad)
    assert b._dirichlet.shape == (b.size, b.size)
    assert not hasattr(b, "normal_derivatives")


def test_traces_scale():
    # hole elements are normalized to O(1) traces on their own circle
    dom = CircleDomain((Hole(0.5, 0.05),))
    b = build_basis(dom, 12)
    tr = b.traces()[:, 1]
    for i, (kind, _, m, _) in enumerate(_elements(b)):
        if kind == "hole":
            assert np.max(np.abs(tr[i])) < 1.0 + 1e-12


def test_dirichlet_matrix_cached():
    b = build_basis(CircleDomain(), 4)
    assert dirichlet_matrix(b) is dirichlet_matrix(b)


def _center(dom, j):
    return 0j if j == 0 else dom.holes[j - 1].center


def _boundary_matrices_per_circle(b, samples):
    """Reference: each circle evaluated on its own and its sums accumulated."""
    n = b.size
    A, B, m = np.zeros((n, n)), np.zeros((n, n)), np.zeros(n)
    e = np.exp(1j * b.thetas())
    for j in range(b.domain.k):
        rho = b.domain.component_radius(j)
        vals, dz = _reference_parts(b, _center(b.domain, j) + rho * e)
        dn = 2.0 * (dz * (e if j == 0 else -e)).real
        ds = rho * 2.0 * math.pi / b.n_quad
        A += ds * (vals @ dn.T)
        w = samples.values[j] / samples.radii[j] * ds
        B += (vals * w) @ vals.T
        m += vals @ w
    return 0.5 * (A + A.T), 0.5 * (B + B.T), m


@pytest.mark.parametrize("M", [4, 24])
@pytest.mark.parametrize("dom", [CircleDomain(), ANNULUS, THREE_HOLES], ids=["disk", "annulus", "3holes"])
def test_stacked_table_matches_per_circle_sums(dom, M):
    b = build_basis(dom, M)
    coeffs = tuple((0.2 * j, 0.3, -0.1, 0.05, 0.2) for j in range(dom.k))
    # a smooth weight, and the benchmark's form: a tuple of constant rows
    rows = tuple(np.full(b.n_quad, 0.8) for _ in range(dom.k))
    for samples in (as_samples(dom, BoundaryDensity(coeffs), b.n_quad),
                    BoundaryMeasureSamples(rows, tuple(dom.radii()))):
        mats = boundary_matrices(b, samples)
        ref = _boundary_matrices_per_circle(b, samples)
        for got, want in zip((mats.A, mats.B, mats.m), ref):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    for j in range(dom.k):
        assert b.traces()[:, j].tobytes() == b.values_at(b.circle_points()[j]).tobytes()


def _random_domain(rng, k):
    """k - 1 disjoint holes with clearance 0.04, by rejection."""
    while True:
        r = rng.uniform(0.05, 0.2, size=k - 1)
        c = rng.uniform(0.0, 0.9 - r) * np.exp(2j * math.pi * rng.uniform(size=k - 1))
        if all(abs(c[i] - c[j]) >= r[i] + r[j] + 0.04
               for i in range(k - 1) for j in range(i + 1, k - 1)):
            return CircleDomain(tuple(Hole(complex(ci), float(ri)) for ci, ri in zip(c, r)))


def _complex_table_reference(b):
    """Traces and Dirichlet block through a complex (size, k * n_quad) d/dz table.

    The same cumulative power tables as the basis, a complex d/dz row for
    every element, rotated by the outward normal and reduced to its real
    part; the basis forms the real normal derivatives directly and must
    match this bitwise.
    """
    zf = b.circle_points().ravel()
    M, n = b.M, b.size
    vals = np.empty((n, zf.size))
    dz = np.empty((n, zf.size), dtype=complex)
    vals[0] = 1.0
    dz[0] = 0.0
    m = np.arange(1, M + 1)[:, None]
    i = 1
    for d, w, dw in b._circle_variables(zf):
        if d is not None:
            vals[i] = np.log(np.abs(d))
            dz[i] = 0.5 / d
            i += 1
        pw = np.cumprod(np.broadcast_to(w, (M, zf.size)), axis=0)
        vals[i:i + 2 * M:2] = pw.real
        vals[i + 1:i + 2 * M:2] = pw.imag
        d_re, d_im = dz[i:i + 2 * M:2], dz[i + 1:i + 2 * M:2]
        d_re[0] = 1.0
        d_re[1:] = pw[:-1]
        d_re *= 0.5 * m
        d_re *= dw
        np.multiply(d_re, -1j, out=d_im)
        i += 2 * M
    shape = (n, b.domain.k, b.n_quad)
    sign = np.where(np.arange(b.domain.k) == 0, 1.0, -1.0)
    dz = dz.reshape(shape)
    dz *= sign[:, None] * np.exp(1j * b.thetas())
    dn = 2.0 * dz.real
    ds = b.domain.radii() * (2.0 * math.pi / b.n_quad)
    A = vals @ (dn * ds[:, None]).reshape(n, -1).T
    return vals.reshape(shape), 0.5 * (A + A.T)


@pytest.mark.parametrize("seed", range(8))
def test_tables_bitwise_equal_to_complex_table_formula(seed):
    rng = np.random.default_rng(seed)
    for k in range(1, 6):
        M = int(rng.choice([3, 8, 17, 32, 48, 64]))
        b = build_basis(_random_domain(rng, k), M)
        traces, A = _complex_table_reference(b)
        assert np.array_equal(b.traces(), traces)
        assert np.array_equal(dirichlet_matrix(b), A)


@pytest.mark.parametrize("dom", [CircleDomain(), ANNULUS, THREE_HOLES], ids=["disk", "annulus", "3holes"])
@pytest.mark.parametrize("M", [4, 24, 64])
def test_dirichlet_block_matches_dz_at_on_the_circles(dom, M):
    # an independent path: d/dz of every element by Horner's rule, turned
    # into the outward normal derivative d/d(eta) = 2 Re(dz * eta)
    b = build_basis(dom, M)
    e = np.exp(1j * b.thetas())
    A = np.zeros((b.size, b.size))
    for j in range(dom.k):
        eta = e if j == 0 else -e
        dn = 2.0 * (b.dz_at(b.circle_points()[j], np.eye(b.size)) * eta).real
        ds = dom.component_radius(j) * 2.0 * math.pi / b.n_quad
        A += ds * (b.traces()[:, j] @ dn.T)
    A = 0.5 * (A + A.T)
    assert np.max(np.abs(dirichlet_matrix(b) - A)) <= 1e-14 * np.max(np.abs(A))
