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
from steklov_lab.domain import BoundaryDensity, CircleDomain, Hole, as_samples

RHO = 0.35
ANNULUS = CircleDomain((Hole(0.0, RHO),))


def test_size_and_layout():
    b = build_basis(CircleDomain(), 4)
    assert b.size == 9
    assert b.elements[0] == ("const", -1, 0, 0)
    assert b.elements[1] == ("outer", -1, 1, 0)
    assert b.elements[2] == ("outer", -1, 1, 1)
    b2 = build_basis(ANNULUS, 3)
    assert b2.size == (1 + 6) + (1 + 6)
    assert b2.elements[7] == ("hole_log", 0, 0, 0)


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
    for i, (kind, _, m, _) in enumerate(b.elements):
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
    for i, (kind, _, m, _) in enumerate(b.elements):
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
    idx = {e: i for i, e in enumerate(b.elements)}
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
    gx, gy = b.gradients_at(np.array([z0]))
    fx = (b.values_at(np.array([z0 + h])) - b.values_at(np.array([z0 - h]))) / (2 * h)
    fy = (b.values_at(np.array([z0 + 1j * h])) - b.values_at(np.array([z0 - 1j * h]))) / (2 * h)
    assert np.max(np.abs(gx[:, 0] - fx[:, 0])) < 1e-7
    assert np.max(np.abs(gy[:, 0] - fy[:, 0])) < 1e-7


def test_traces_scale():
    # hole elements are normalized to O(1) traces on their own circle
    dom = CircleDomain((Hole(0.5, 0.05),))
    b = build_basis(dom, 12)
    tr = b.traces(1)
    for i, (kind, _, m, _) in enumerate(b.elements):
        if kind == "hole":
            assert np.max(np.abs(tr[i])) < 1.0 + 1e-12


def test_dirichlet_matrix_cached():
    b = build_basis(CircleDomain(), 4)
    assert dirichlet_matrix(b) is dirichlet_matrix(b)
