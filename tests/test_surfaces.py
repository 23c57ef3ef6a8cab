import math

import numpy as np
import pytest

from steklov_lab.closedform import critical_parameter
from steklov_lab.surfaces import (
    BoundaryTangencyViolated,
    NotNormal,
    VariationField,
    area_length_report,
    catenoid_piece,
    critical_catenoid,
    critical_moebius,
    energy_form_Q,
    export_obj,
    field_norm_sq_integral,
    finite_difference_surface,
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


@pytest.mark.parametrize("name", SHIPPED)
def test_finite_difference_cross_check(name):
    fd = finite_difference_surface(surface_by_name(name))
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
