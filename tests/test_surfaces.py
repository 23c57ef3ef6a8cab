import gc
import math
import weakref

import numpy as np
import pytest

from steklov_lab.closedform import critical_parameter
from steklov_lab.spectral1d import diff_matrix, fourier_diff, lobatto
from steklov_lab.surfaces import (
    BoundaryTangencyViolated,
    ParametricSurface,
    NotNormal,
    VariationField,
    area_length_report,
    catenoid_piece,
    coord_dot,
    critical_catenoid,
    critical_moebius,
    energy_form_Q,
    export_obj,
    field_norm_sq_integral,
    flat_disk,
    index_form_S,
    index_form_boundary,
    normal_part,
    surface_by_name,
    verify_minimal_free_boundary,
)


SHIPPED = ("critical-catenoid", "critical-moebius", "flat-disk")


@pytest.fixture(scope="module")
def catenoid():
    return critical_catenoid()


@pytest.fixture(scope="module")
def moebius():
    return critical_moebius()


def test_critical_catenoid_residuals(catenoid):
    res = verify_minimal_free_boundary(catenoid)
    assert max(res.values()) < 1e-10


def test_critical_moebius_residuals(moebius):
    res = verify_minimal_free_boundary(moebius)
    assert max(res.values()) < 1e-10
    assert "identification" in res


def test_flat_disk_residuals():
    res = verify_minimal_free_boundary(flat_disk())
    assert max(res.values()) < 1e-10


def test_non_critical_catenoid_fails_boundary_conditions():
    res = verify_minimal_free_boundary(catenoid_piece(0.8))
    assert res["harmonic"] < 1e-12  # still a minimal surface
    assert res["conormal_radial"] > 1e-2  # but not free boundary in the ball
    assert res["eigenfunction"] > 1e-2


def test_boundary_lengths(catenoid, moebius):
    T0 = critical_parameter("annulus")
    assert abs(catenoid.boundary_length() - 4 * math.pi / T0) < 1e-10
    assert abs(moebius.boundary_length() - 2 * math.pi * math.sqrt(3)) < 1e-10
    assert abs(flat_disk().boundary_length() - 2 * math.pi) < 1e-10


def test_first_variation_identity(catenoid, moebius):
    for surf in (catenoid, moebius, flat_disk()):
        rep = area_length_report(surf)
        assert rep.residuals["two_area_minus_length"] < 1e-8
        assert rep.residuals["energy_minus_two_area"] < 1e-10
        assert rep.area > 0


def test_grid_change_resamples_cached_fields():
    # every cached field (the sampled derivatives, the arc-length table and
    # the t differentiation matrix) is keyed by the grid, so a regridded
    # surface integrates on its new grid
    e3 = np.array([0.0, 0.0, 1.0])
    surf = critical_catenoid()
    fine = surf.area()
    fine_length = surf.boundary_length()
    fine_S = index_form_S(surf, normal_part(surf, e3))
    surf.grid = (32, 128)
    fresh = critical_catenoid(grid=(32, 128))
    coarse = surf.area()
    assert coarse == fresh.area()
    assert abs(coarse - fine) < 1e-12 * fine
    assert surf.boundary_length() == fresh.boundary_length()
    assert abs(surf.boundary_length() - fine_length) < 1e-12 * fine_length
    coarse_S = index_form_S(surf, normal_part(surf, e3))
    assert coarse_S == index_form_S(fresh, normal_part(fresh, e3))
    assert abs(coarse_S - fine_S) < 1e-8 * abs(fine_S)


def test_flat_disk_area():
    assert abs(flat_disk().area() - math.pi) < 1e-10


def test_index_form_identity(catenoid):
    # interior quadrature of S against the boundary-only closed form
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1.0
        S_int = index_form_S(catenoid, normal_part(catenoid, e))
        S_bdy = index_form_boundary(catenoid, e)
        assert abs(S_int - S_bdy) <= 1e-6 * max(1.0, abs(S_bdy))
        assert S_int < 0  # coordinate fields decrease area to second order


def test_index_form_rejects_tangent_field(catenoid):
    with pytest.raises(NotNormal):
        index_form_S(catenoid, VariationField(lambda t, h: catenoid.phi_t(t, h)))


def test_normal_part_accepts_closures(catenoid):
    W1 = normal_part(catenoid, np.array([0.0, 0.0, 1.0]))
    W2 = normal_part(catenoid, lambda t, h: np.broadcast_to(
        np.array([0.0, 0.0, 1.0]),
        np.broadcast(np.asarray(t), np.asarray(h)).shape + (3,)))
    tt, hh = catenoid.mesh()
    assert np.max(np.abs(W1(tt, hh) - W2(tt, hh))) < 1e-14


def _projector_reference(surface, v):
    """The normal part of a constant v through the per-point (..., n, n) projector."""
    def closure(t, theta):
        pt, pth = surface.phi_t(t, theta), surface.phi_theta(t, theta)
        e1 = pt / np.linalg.norm(pt, axis=-1, keepdims=True)
        e2 = pth / np.linalg.norm(pth, axis=-1, keepdims=True)
        P = (np.eye(surface.n) - e1[..., :, None] * e1[..., None, :]
             - e2[..., :, None] * e2[..., None, :])
        return np.einsum("...ij,...j->...i", P, np.broadcast_to(v, P.shape[:-1]))

    return VariationField(closure, kind="normal")


@pytest.mark.parametrize("name", SHIPPED)
def test_normal_part_matches_the_projector(name):
    # projecting with the unit tangents and forming I - e1 e1^T - e2 e2^T
    # differ in rounding only: within 4 ulp of |v| at every mesh and boundary
    # point, and within 1e-14 relative in S and in int |W|^2
    surf = surface_by_name(name)
    for v in np.random.default_rng(11).normal(size=(3, surf.n)):
        W, ref = normal_part(surf, v), _projector_reference(surf, v)
        bound = 4.0 * np.finfo(float).eps * np.linalg.norm(v)
        for sample in (surf.sample, surf.sample_boundary):
            assert np.max(np.abs(sample(W) - sample(ref))) <= bound
        for form in (index_form_S, field_norm_sq_integral):
            assert form(surf, W) == pytest.approx(form(surf, ref), rel=1e-14, abs=0.0)


def _open_equals_full(surface, form, F):
    """form(surface, F) on the open mesh equals it with F called on the full grid."""
    def full(t, h):
        return F(*np.broadcast_arrays(np.asarray(t, float), np.asarray(h, float)))

    return form(surface, F) == pytest.approx(form(surface, full), rel=1e-14)


def _energy(surface, F):
    return energy_form_Q(surface, F, F)


def test_theta_independent_fields_fill_the_grid(catenoid):
    T = catenoid.T
    e3 = np.array([0.0, 0.0, 1.0])

    def bump(t, h):  # ignores theta, so it is one column on the open mesh
        return (1.0 - np.asarray(t) ** 2 / T**2)[..., None] * e3

    assert bump(*catenoid.mesh()).shape == (catenoid.grid[0], 1, 3)
    assert catenoid.sample(bump).shape == catenoid.grid + (3,)
    # the full-meshgrid value; summing a (nt, 1) sample would lose the factor ntheta
    q = energy_form_Q(catenoid, bump, bump)
    assert abs(q - 13.966374207967753) <= 1e-13 * 13.966374207967753
    assert _open_equals_full(catenoid, _energy, bump)
    assert _open_equals_full(catenoid, field_norm_sq_integral, bump)
    W = normal_part(catenoid, e3)
    assert _open_equals_full(catenoid, index_form_S, W)
    assert _open_equals_full(catenoid, field_norm_sq_integral, W)
    # on the flat disk e3 is normal, so a theta-independent multiple is a normal field
    disk = flat_disk()
    g = VariationField(lambda t, h: (np.asarray(t) / disk.T)[..., None] ** 2 * e3, kind="normal")
    assert _open_equals_full(disk, index_form_S, g)


def test_rotation_field_is_energy_null(catenoid):
    rot = VariationField(lambda t, h: catenoid.phi_theta(t, h), kind="tangent_sphere")
    q = energy_form_Q(catenoid, rot, rot)
    scale = field_norm_sq_integral(catenoid, rot)
    assert scale > 1.0
    assert abs(q) < 1e-10 * scale


def test_energy_form_rejects_non_tangent(catenoid):
    bad = VariationField(lambda t, h: np.broadcast_to(
        np.array([0.0, 0.0, 1.0]),
        np.broadcast(np.asarray(t), np.asarray(h)).shape + (3,)))
    with pytest.raises(BoundaryTangencyViolated):
        energy_form_Q(catenoid, bad, bad)


# -- the per-circle loops that the boundary table replaced, kept as a reference


def _circles(surface):
    """(t value, outward sign of d/dt) of each boundary circle."""
    if surface.topology == "disk":
        return [(surface.T, 1.0)]
    return [(surface.T, 1.0), (-surface.T, -1.0)]


def _on_circle(surface, fn, tb):
    _, _, th, _ = surface.nodes()
    return fn(np.full_like(th, tb), th)


def _circle_integral(surface, integrand):
    """Sum over the circles of int integrand(tb) ds, one circle at a time."""
    _, _, _, wth = surface.nodes()
    total = 0.0
    for tb, _sign in _circles(surface):
        speed = np.linalg.norm(_on_circle(surface, surface.phi_theta, tb), axis=-1)
        total += float(np.sum(integrand(tb) * speed)) * wth
    return total


def _grid_quadrature(surface, f):
    _, wt, _, wth = surface.nodes()
    return float(wt @ np.sum(f, axis=1)) * wth


def _grid_d(surface, Fg):
    D = diff_matrix(surface.nodes()[0])
    return np.einsum("ij,jkl->ikl", D, Fg), fourier_diff(Fg, axis=1)


def _reference_boundary_residuals(surface):
    sphere = conormal = eigen = 0.0
    for tb, sign in _circles(surface):
        x = _on_circle(surface, surface.phi, tb)
        dpt = _on_circle(surface, surface.phi_t, tb)
        lam = np.linalg.norm(dpt, axis=-1, keepdims=True)
        eta = sign * dpt / lam
        sphere = max(sphere, float(np.max(np.abs(1.0 - np.linalg.norm(x, axis=-1)))))
        conormal = max(conormal, float(np.max(np.linalg.norm(
            eta - x / np.linalg.norm(x, axis=-1, keepdims=True), axis=-1))))
        eigen = max(eigen, float(np.max(np.linalg.norm(sign * dpt / lam - x, axis=-1))))
    return {"boundary_unit_sphere": sphere, "conormal_radial": conormal, "eigenfunction": eigen}


def _reference_S(surface, W):
    pt, pth = surface.first_derivatives()
    lam2 = np.sum(pt**2, axis=-1)
    lam = np.sqrt(lam2)
    e1 = pt / lam[..., None]
    e2 = pth / np.linalg.norm(pth, axis=-1, keepdims=True)
    Wg = surface.sample(W)
    grad_perp_sq = np.zeros_like(lam2)
    for dW in _grid_d(surface, Wg):
        d = dW / lam[..., None]
        d = d - np.sum(d * e1, axis=-1, keepdims=True) * e1
        d = d - np.sum(d * e2, axis=-1, keepdims=True) * e2
        grad_perp_sq += np.sum(d**2, axis=-1)
    a11, a12, a22 = (np.sum(surface.sample(f) * Wg, axis=-1) / lam2 for f in
                     (surface.phi_tt, surface.phi_ttheta, surface.phi_thetatheta))
    shape_sq = a11**2 + 2.0 * a12**2 + a22**2
    interior = _grid_quadrature(surface, (grad_perp_sq - shape_sq) * lam2)
    boundary = _circle_integral(
        surface, lambda tb: np.sum(_on_circle(surface, W, tb) ** 2, axis=-1))
    return surface.quotient_factor * (interior - boundary)


def _reference_S_boundary(surface, v):
    return surface.quotient_factor * _circle_integral(
        surface, lambda tb: -1.0 + 2.0 * (_on_circle(surface, surface.phi, tb) @ v) ** 2)


def _reference_Q(surface, V, W):
    Vt, Vth = _grid_d(surface, surface.sample(V))
    Wt, Wth = _grid_d(surface, surface.sample(W))
    dens = np.sum(Vt * Wt, axis=-1) + np.sum(Vth * Wth, axis=-1)
    boundary = _circle_integral(surface, lambda tb: np.sum(
        _on_circle(surface, V, tb) * _on_circle(surface, W, tb), axis=-1))
    return surface.quotient_factor * (_grid_quadrature(surface, dens) - boundary)


def _tangent_field(surface, a):
    """f phi_theta + g phi_t with g = 0 on |t| = T: tangent to the sphere there."""
    T = surface.T

    def Y(t, h):
        t = np.asarray(t, dtype=float)
        h = np.asarray(h, dtype=float)
        f = a[0] + a[1] * np.cos(h) + a[2] * np.sin(h) + a[3] * (t / T)
        g = (1.0 - (t / T) ** 2) * (a[4] + a[5] * np.cos(h))
        return f[..., None] * surface.phi_theta(t, h) + g[..., None] * surface.phi_t(t, h)

    return Y


@pytest.mark.parametrize("name", SHIPPED)
def test_boundary_table_matches_per_circle_reference(name):
    surf = surface_by_name(name)
    rng = np.random.default_rng(7)
    v = rng.normal(size=surf.n)
    v /= np.linalg.norm(v)
    W = normal_part(surf, v)
    X = VariationField(lambda t, h: surf.phi_theta(t, h))
    Y = VariationField(_tangent_field(surf, rng.normal(size=6)))

    assert surf.boundary_length() == surf.quotient_factor * _circle_integral(surf, lambda tb: 1.0)
    res = verify_minimal_free_boundary(surf)
    for key, value in _reference_boundary_residuals(surf).items():
        assert res[key] == value, key
    assert index_form_S(surf, W) == _reference_S(surf, W)
    assert index_form_boundary(surf, v) == _reference_S_boundary(surf, v)
    assert energy_form_Q(surf, X, Y) == _reference_Q(surf, X, Y)
    assert energy_form_Q(surf, Y, Y) == _reference_Q(surf, Y, Y)

    def bump(t, h):  # ignores theta
        return (1.0 - np.asarray(t) ** 2 / surf.T**2)[..., None] * v

    n_circles = 1 if surf.topology == "disk" else 2
    assert surf.sample_boundary(bump).shape == (n_circles, surf.grid[1], surf.n)


def _finite_difference_surface(surface, h1=1e-6, h2=2e-4, grid=(256, 256)):
    """Clone of a surface whose derivative closures are central differences of phi.

    Residuals of the clone under verify_minimal_free_boundary stay at the
    finite-difference error level (around 1e-7 with these steps) when the
    analytic closures are consistent.
    """
    phi = surface.phi

    def d_t(t, theta):
        return (phi(t + h1, theta) - phi(t - h1, theta)) / (2.0 * h1)

    def d_theta(t, theta):
        return (phi(t, theta + h1) - phi(t, theta - h1)) / (2.0 * h1)

    def d_tt(t, theta):
        return (phi(t + h2, theta) - 2.0 * phi(t, theta) + phi(t - h2, theta)) / h2**2

    def d_ttheta(t, theta):
        return (
            phi(t + h2, theta + h2) - phi(t + h2, theta - h2)
            - phi(t - h2, theta + h2) + phi(t - h2, theta - h2)
        ) / (4.0 * h2**2)

    def d_thetatheta(t, theta):
        return (phi(t, theta + h2) - 2.0 * phi(t, theta) + phi(t, theta - h2)) / h2**2

    return ParametricSurface(
        topology=surface.topology, T=surface.T, n=surface.n,
        phi=phi, phi_t=d_t, phi_theta=d_theta,
        phi_tt=d_tt, phi_ttheta=d_ttheta, phi_thetatheta=d_thetatheta,
        grid=grid, name=surface.name + "+fd",
    )


@pytest.mark.parametrize("name", SHIPPED)
def test_finite_difference_cross_check(name):
    fd = _finite_difference_surface(surface_by_name(name))
    res = verify_minimal_free_boundary(fd)
    assert max(res.values()) < 1e-6


# Independent complex reference: (F, F', F'') of the holomorphic data at z,
# before scaling; the scale R is |Re F(T)|, since the boundary is on the sphere.
def _catenoid_data(z, T):
    return (
        [np.cosh(z), -1j * np.sinh(z), z],
        [np.sinh(z), -1j * np.cosh(z), np.ones_like(z)],
        [np.cosh(z), -1j * np.sinh(z), np.zeros_like(z)],
    )


def _moebius_data(z, T):
    return (
        [2 * np.sinh(z), -2j * np.cosh(z), np.cosh(2 * z), -1j * np.sinh(2 * z)],
        [2 * np.cosh(z), -2j * np.sinh(z), 2 * np.sinh(2 * z), -2j * np.cosh(2 * z)],
        [2 * np.sinh(z), -2j * np.cosh(z), 4 * np.cosh(2 * z), -4j * np.sinh(2 * z)],
    )


def _disk_data(z, T):
    w = np.exp(z - T)
    F = [w, -1j * w, np.zeros_like(z)]
    return F, F, F


@pytest.mark.parametrize("make, data", [
    (critical_catenoid, _catenoid_data),
    (critical_moebius, _moebius_data),
    (flat_disk, _disk_data),
    (lambda: catenoid_piece(0.8), _catenoid_data),
], ids=["critical-catenoid", "critical-moebius", "flat-disk", "catenoid-0.8"])
def test_closures_match_complex_reference(make, data):
    surf = make()
    tt, hh = surf.mesh()
    F, dF, d2F = (np.stack(f, axis=-1) for f in data(tt + 1j * hh, surf.T))
    R = np.linalg.norm(np.stack(data(np.array(surf.T + 0j), surf.T)[0]).real)
    # d/dtheta = i d/dz on holomorphic F
    expected = {
        "phi": F.real, "phi_t": dF.real, "phi_theta": -dF.imag,
        "phi_tt": d2F.real, "phi_ttheta": -d2F.imag, "phi_thetatheta": -d2F.real,
    }
    for field, ref in expected.items():
        got = getattr(surf, field)(tt, hh)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref / R)) <= 1e-13 * np.max(np.abs(ref / R)), field


def test_surface_by_name():
    assert surface_by_name("flat-disk").topology == "disk"
    with pytest.raises(ValueError):
        surface_by_name("trinoid")


def test_export_obj_deterministic(catenoid):
    a = export_obj(catenoid, nt=8, ntheta=12)
    b = export_obj(catenoid, nt=8, ntheta=12)
    assert a == b
    lines = a.strip().split("\n")
    assert lines[0].startswith("#")
    nv = sum(1 for ln in lines if ln.startswith("v "))
    nf = sum(1 for ln in lines if ln.startswith("f "))
    assert nv == 8 * 12
    assert nf == 2 * 7 * 12


def test_export_obj_moebius_seam(moebius):
    txt = export_obj(moebius, nt=6, ntheta=10)
    lines = txt.strip().split("\n")
    nv = sum(1 for ln in lines if ln.startswith("v "))
    # the seam row t = 0 is identified under a half turn
    assert nv == 6 * 10 - 5
    with pytest.raises(ValueError):
        export_obj(moebius, nt=6, ntheta=9)


def test_export_obj_vertices_in_ball(catenoid):
    txt = export_obj(catenoid, nt=6, ntheta=8)
    for ln in txt.split("\n"):
        if ln.startswith("v "):
            xyz = np.array([float(c) for c in ln.split()[1:]])
            assert np.linalg.norm(xyz) <= 1.0 + 1e-9


# -- sampling memo ---------------------------------------------------------------


def _counting(surface):
    """A field that counts its evaluations, and the count."""
    calls = []

    def field(t, h):
        calls.append(1)
        return surface.phi_t(t, h) + surface.phi_theta(t, h)

    return field, calls


def test_a_field_is_sampled_once_per_grid():
    surf = critical_catenoid(grid=(16, 32))
    field, calls = _counting(surf)
    first = surf.sample(field)
    assert surf.sample(field) is first
    bdy = surf.sample_boundary(field)
    assert surf.sample_boundary(field) is bdy
    assert len(calls) == 2  # once on the mesh, once on the boundary circles
    # a VariationField is one field, however often it is handed in
    V = VariationField(field)
    surf.sample(V)
    surf.sample(V)
    assert len(calls) == 3


def test_a_new_grid_samples_the_field_again():
    surf = critical_catenoid(grid=(16, 32))
    field, calls = _counting(surf)
    coarse = surf.sample(field)
    surf.grid = (32, 64)
    fine = surf.sample(field)
    assert len(calls) == 2
    assert coarse.shape == (16, 32, 3) and fine.shape == (32, 64, 3)
    surf.grid = (16, 32)
    assert surf.sample(field) is coarse  # the first grid's table is still held
    assert len(calls) == 2
    assert np.array_equal(fine, critical_catenoid(grid=(32, 64)).sample(field))


def test_memoized_tables_are_read_only(catenoid):
    field, _ = _counting(catenoid)
    tt, hh = catenoid.mesh()
    tables = (catenoid.sample(field), catenoid.sample_boundary(field), tt, hh,
              *catenoid.boundary_mesh())
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 1.0
    # a field that hands out an array it holds keeps that array writeable
    held = np.zeros((2, catenoid.grid[1], 3))
    catenoid.sample_boundary(lambda t, h: held)
    assert held.flags.writeable


def test_a_table_goes_with_its_field():
    surf = critical_catenoid(grid=(16, 32))
    field, _ = _counting(surf)
    table = weakref.ref(surf.sample(field))
    assert table() is not None and len(surf._samples) == 1
    del field
    assert table() is None
    assert len(surf._samples) == 0


def test_callables_without_weak_references_are_sampled():
    # numpy ufuncs take no weak reference; they are sampled, not memoized
    surf = critical_catenoid(grid=(16, 32))
    tt, hh = np.broadcast_arrays(*surf.mesh())
    assert np.array_equal(surf.sample(np.add), tt + hh)
    assert len(surf._samples) == 0


def test_the_memo_forms_no_reference_cycle():
    # fields close over their surface; the surface must still be freed by
    # reference counting alone once the caller lets go of both
    gc.disable()
    try:
        surf = critical_catenoid(grid=(16, 32))
        W = normal_part(surf, np.array([0.0, 0.0, 1.0]))
        index_form_S(surf, W)
        field_norm_sq_integral(surf, W)
        energy_form_Q(surf, VariationField(surf.phi_theta), VariationField(surf.phi_theta))
        verify_minimal_free_boundary(surf)
        alive = weakref.ref(surf)
        del surf, W
        assert alive() is None
    finally:
        gc.enable()


def _normal_reference(pt, pth):
    nu = np.cross(pt, pth)
    return nu / np.linalg.norm(nu, axis=-1, keepdims=True)


@pytest.mark.parametrize("surface", [critical_catenoid, flat_disk])
def test_written_out_normal_is_bitwise_np_cross(surface):
    surf = surface()
    dbar_t, _ = lobatto(128, surf.t_min, surf.T)
    dbar_th = 2.0 * math.pi * np.arange(128) / 128
    points = {
        "mesh": surf.mesh(),
        "boundary": surf.boundary_mesh(),
        "d-bar grid": (dbar_t[:, None], dbar_th[None, :]),
    }
    for name, (t, h) in points.items():
        pt, pth = surf.phi_t(t, h), surf.phi_theta(t, h)
        got = surf._normal_from_tangents(pt, pth)
        assert got.tobytes() == _normal_reference(pt, pth).tobytes(), name


@pytest.mark.parametrize("surface", [critical_catenoid, critical_moebius])
def test_coord_dot_is_bitwise_np_sum(surface):
    # the catenoid lies in B^3 and the Moebius band in B^4: both coordinate
    # lengths the program contracts over
    surf = surface()
    pt, pth = surf.first_derivatives()
    rng = np.random.default_rng(surf.n)
    wide = rng.normal(size=pt.shape) * 10.0 ** rng.integers(-12, 12, size=pt.shape)
    column = rng.normal(size=(pt.shape[0], 1, surf.n))  # broadcast over theta
    pairs = {
        "tangents": (pt, pth), "square": (pt, pt), "wide": (wide, pth),
        "broadcast column": (pt, column), "constant vector": (rng.normal(size=surf.n), wide),
    }
    for name, (a, b) in pairs.items():
        got = coord_dot(a, b)
        assert got.shape == np.broadcast_shapes(a.shape, b.shape)[:-1], name
        assert got.tobytes() == np.sum(a * b, axis=-1).tobytes(), name
