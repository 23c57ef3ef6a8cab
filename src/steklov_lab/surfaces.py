"""Free boundary minimal surfaces in the unit ball and their quadratic forms.

Surfaces are conformal immersions of a flat cylinder ``[-T, T] x S^1`` (or of
an exponentially parametrized disk).  Every shipped surface is phi = Re F(z)/R
with z = t + i theta and holomorphic data F given as one term a f(m z) per
coordinate, f one of cosh, sinh, exp or z.  One builder turns that table into
closures for phi and its five first and second coordinate derivatives,
evaluated in real arithmetic, so every geometric residual is computed pointwise
without finite differencing.  The module provides

* the critical catenoid (cosh z, -i sinh z, z)/R in B^3, the critical Moebius
  band (2 sinh z, -2i cosh z, cosh 2z, -i sinh 2z)/R in B^4, both scaled so
  the boundary lies exactly on the unit sphere, and the flat disk
  e^(-T) (e^z, -i e^z, 0),
* ``verify_minimal_free_boundary``: sup-norm residuals of harmonicity,
  conformality, boundary sphericality, conormal radiality, and the condition
  that coordinate functions are Steklov eigenfunctions with eigenvalue 1,
* the index quadratic form ``S`` for normal variation fields (normal-bundle
  connection minus shape terms minus the sphere boundary term) together with
  its boundary-only evaluation for sections of ambient constant vectors,
* the energy quadratic form ``Q`` for variation fields tangent to the sphere
  along the boundary,
* area / boundary length reports checking the first-variation identity 2A = L,
* a deterministic OBJ mesh export.

Quadrature is Gauss-Legendre in t (spectrally accurate for these analytic
integrands) and periodic trapezoid in theta; Moebius quantities are computed
on the orientation double cover and halved.  Closures are evaluated on the
open mesh (t column, theta row) and read through ``ParametricSurface.sample``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .closedform import critical_parameter
from .spectral1d import diff_matrix, fourier_diff, gauss_legendre

DISK_T = 16.0  # exponential polar truncation; leaves area pi*exp(-2*DISK_T)
TANGENCY_TOL = 1e-8  # energy_form_Q: |x . V| on the boundary, relative to max(|V|, 1)
NORMAL_TOL = 1e-10  # index_form_S: tangential part of W, relative to max |W|


class NotNormal(ValueError):
    pass


class BoundaryTangencyViolated(ValueError):
    pass


@dataclass
class ParametricSurface:
    """Conformal immersion of a cylinder (or exponential disk) into R^n.

    Closures take broadcastable arrays (t, theta) and return arrays with a
    trailing coordinate axis of length n.  ``topology`` is one of "annulus",
    "moebius", "disk"; for "moebius" the closures must satisfy
    phi(-t, theta+pi) = phi(t, theta) and integrals are halved, for "disk" the
    parameter domain is [0, T] and only t = T is a boundary.
    """

    topology: str
    T: float
    n: int
    phi: callable
    phi_t: callable
    phi_theta: callable
    phi_tt: callable
    phi_ttheta: callable
    phi_thetatheta: callable
    grid: tuple[int, int] = (64, 256)
    name: str = ""
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def t_min(self) -> float:
        return 0.0 if self.topology == "disk" else -self.T

    @property
    def quotient_factor(self) -> float:
        return 0.5 if self.topology == "moebius" else 1.0

    def boundaries(self) -> list[tuple[float, float]]:
        """(t value, outward sign of d/dt) for each parameter boundary circle."""
        if self.topology == "disk":
            return [(self.T, 1.0)]
        return [(self.T, 1.0), (-self.T, -1.0)]

    def nodes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """(t nodes, t weights, theta nodes, theta weight)."""
        key = ("nodes", self.grid)
        if key not in self._cache:
            nt, ntheta = self.grid
            t, wt = gauss_legendre(nt, self.t_min, self.T)
            th = 2.0 * math.pi * np.arange(ntheta) / ntheta
            self._cache[key] = (t, wt, th, 2.0 * math.pi / ntheta)
        return self._cache[key]

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Open grid: t nodes as (nt, 1) and theta nodes as (1, ntheta).

        Closures broadcast over it, so each evaluates its t factors once per
        t node and its theta factors once per theta node.  Fields are read
        through ``sample``, which restores the full grid shape.
        """
        t, _, th, _ = self.nodes()
        return t[:, None], th[None, :]

    def sample(self, fn) -> np.ndarray:
        """fn on the mesh, broadcast to the full (nt, ntheta, ...) shape.

        A field that ignores theta (or t) returns one row (or column) on the
        open grid; the broadcast keeps quadratures from losing that factor.
        """
        vals = np.asarray(fn(*self.mesh()))
        return np.broadcast_to(vals, self.grid + vals.shape[2:])

    def sample_circle(self, fn, tb: float) -> np.ndarray:
        """fn on the boundary circle t = tb at the theta nodes."""
        _, _, th, _ = self.nodes()
        return fn(np.full_like(th, tb), th)

    def first_derivatives(self):
        key = "d1"
        if key not in self._cache:
            self._cache[key] = (self.sample(self.phi_t), self.sample(self.phi_theta))
        return self._cache[key]

    def conformal_factor_sq(self) -> np.ndarray:
        pt, _ = self.first_derivatives()
        return np.sum(pt**2, axis=-1)

    def area(self) -> float:
        t, wt, th, wth = self.nodes()
        lam2 = self.conformal_factor_sq()
        return self.quotient_factor * float(wt @ np.sum(lam2, axis=1)) * wth

    def boundary_speed(self, tb: float) -> np.ndarray:
        """|phi_theta| on the boundary circle t = tb (arc length element)."""
        return np.linalg.norm(self.sample_circle(self.phi_theta, tb), axis=-1)

    def boundary_length(self) -> float:
        _, _, _, wth = self.nodes()
        total = sum(float(np.sum(self.boundary_speed(tb))) * wth
                    for tb, _sign in self.boundaries())
        return self.quotient_factor * total

    def energy(self) -> float:
        """Dirichlet energy of the immersion; equals 2*area for conformal maps."""
        t, wt, th, wth = self.nodes()
        pt, pth = self.first_derivatives()
        dens = np.sum(pt**2, axis=-1) + np.sum(pth**2, axis=-1)
        return self.quotient_factor * float(wt @ np.sum(dens, axis=1)) * wth

    def unit_normal(self, t: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """Unit normal field (n = 3 only)."""
        if self.n != 3:
            raise ValueError("unit_normal needs ambient dimension 3")
        pt = self.phi_t(t, theta)
        pth = self.phi_theta(t, theta)
        nu = np.cross(pt, pth)
        return nu / np.linalg.norm(nu, axis=-1, keepdims=True)

    def normal_projector(self, t: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """Pointwise projector onto the normal space, shape (..., n, n)."""
        pt = self.phi_t(t, theta)
        pth = self.phi_theta(t, theta)
        e1 = pt / np.linalg.norm(pt, axis=-1, keepdims=True)
        e2 = pth / np.linalg.norm(pth, axis=-1, keepdims=True)
        eye = np.eye(self.n)
        return (
            eye
            - e1[..., :, None] * e1[..., None, :]
            - e2[..., :, None] * e2[..., None, :]
        )


@dataclass
class VariationField:
    """Ambient-valued variation field along a surface, given as a closure."""

    field_fn: callable
    kind: str = "general"  # "normal" | "tangent_sphere" | "general"

    def __call__(self, t, theta):
        return self.field_fn(t, theta)


@dataclass(frozen=True)
class FormReport:
    area: float
    boundary_length: float
    energy: float
    residuals: dict


# -- canonical surfaces -------------------------------------------------------


# One term a * f(m z) per coordinate: f -> (Re, Im) of f(x + i y) as functions
# of the real x = m t and y = m theta.  None marks a part that vanishes.
_PARTS = {
    "cosh": (lambda x, y: np.cosh(x) * np.cos(y), lambda x, y: np.sinh(x) * np.sin(y)),
    "sinh": (lambda x, y: np.sinh(x) * np.cos(y), lambda x, y: np.cosh(x) * np.sin(y)),
    "exp": (lambda x, y: np.exp(x) * np.cos(y), lambda x, y: np.exp(x) * np.sin(y)),
    "z": (lambda x, y: x, lambda x, y: y),
    "one": (lambda x, y: 1.0, None),
    "zero": (None, None),
}
_DERIVATIVE = {
    "cosh": "sinh", "sinh": "cosh", "exp": "exp", "z": "one", "one": "zero", "zero": "zero",
}


def _holomorphic_closure(terms, R: float, k: int, p: int):
    """Closure (t, theta) -> Re(i^p F^(k)(t + i theta)) / R.

    i^p times the k-th derivative of a f(m z) is b f^(k)(m z) with the constant
    b = a m^k i^p, and for a real or imaginary a, Re(b w) is Re(b) Re w or
    -Im(b) Im w.  Coordinates whose part vanishes stay +0.0.
    """
    coords = []
    for i, (a, f, m) in enumerate(terms):
        for _ in range(k):
            f = _DERIVATIVE[f]
        b = complex(a) * m**k * 1j**p
        if b.real and b.imag:
            raise ValueError(f"coefficient {a!r} is neither real nor imaginary")
        re, im = _PARTS[f]
        c, part = (-b.imag, im) if b.imag else (b.real, re)
        if c and part is not None:
            coords.append((i, m, c, part))
    multiples = {m for _, m, _, _ in coords}

    # Filling one output array, rather than stacking per-coordinate temporaries,
    # keeps the evaluation as fast as hand-written closures.
    def closure(t, theta):
        t = np.asarray(t, dtype=float)
        theta = np.asarray(theta, dtype=float)
        out = np.zeros(np.broadcast_shapes(t.shape, theta.shape) + (len(terms),))
        args = {m: (t, theta) if m == 1 else (m * t, m * theta) for m in multiples}
        for i, m, c, part in coords:
            np.multiply(c, part(*args[m]), out=out[..., i])
        out /= R
        return out

    return closure


def _holomorphic_surface(terms, R: float, **fields) -> ParametricSurface:
    """The surface phi = Re F / R for F given as one term (a, f, m) per coordinate.

    On holomorphic F, d/dtheta = i d/dz, so phi_t = Re F', phi_theta = -Im F',
    phi_tt = Re F'', phi_ttheta = -Im F'' and phi_thetatheta = -Re F''.
    """
    def derivative(k, p):
        return _holomorphic_closure(terms, R, k, p)

    return ParametricSurface(
        n=len(terms), phi=derivative(0, 0), phi_t=derivative(1, 0),
        phi_theta=derivative(1, 1), phi_tt=derivative(2, 0),
        phi_ttheta=derivative(2, 1), phi_thetatheta=derivative(2, 2),
        **fields,
    )


def catenoid_piece(T: float, grid=(64, 256)) -> ParametricSurface:
    """Catenoid slab |t| <= T rescaled so its boundary meets the unit sphere.

    Free boundary conditions hold exactly only at the critical aspect ratio.
    """
    R = math.sqrt(math.cosh(T) ** 2 + T**2)
    return _holomorphic_surface(
        ((1, "cosh", 1), (-1j, "sinh", 1), (1, "z", 1)), R,
        topology="annulus", T=T, grid=grid, name=f"catenoid(T={T:.6f})",
    )


def critical_catenoid(grid=(64, 256)) -> ParametricSurface:
    """The free boundary catenoid in B^3 at the critical aspect ratio."""
    surf = catenoid_piece(critical_parameter("annulus"), grid)
    surf.name = "critical-catenoid"
    return surf


def moebius_piece(T: float, grid=(64, 256)) -> ParametricSurface:
    """Moebius band immersion slab in R^4 rescaled to the unit sphere boundary."""
    R = math.sqrt(4.0 * math.sinh(T) ** 2 + math.cosh(2.0 * T) ** 2)
    return _holomorphic_surface(
        ((2, "sinh", 1), (-2j, "cosh", 1), (1, "cosh", 2), (-1j, "sinh", 2)), R,
        topology="moebius", T=T, grid=grid, name=f"moebius(T={T:.6f})",
    )


def critical_moebius(grid=(64, 256)) -> ParametricSurface:
    """The free boundary Moebius band in B^4 at the critical aspect ratio."""
    surf = moebius_piece(critical_parameter("moebius"), grid)
    surf.name = "critical-moebius"
    return surf


def flat_disk(grid=(64, 256)) -> ParametricSurface:
    """Flat equatorial disk in exponential polar coordinates r = e^(t - T).

    The parameter domain [0, T] misses a concentric disk of radius e^(-T)
    whose area pi*e^(-2T) is below 1e-13 at the default truncation.
    """
    a = math.exp(-DISK_T)
    return _holomorphic_surface(
        ((a, "exp", 1), (-1j * a, "exp", 1), (0, "zero", 1)), 1.0,
        topology="disk", T=DISK_T, grid=grid, name="flat-disk",
    )


def surface_by_name(name: str, grid=(64, 256)) -> ParametricSurface:
    table = {
        "critical-catenoid": critical_catenoid,
        "critical-moebius": critical_moebius,
        "flat-disk": flat_disk,
    }
    if name not in table:
        raise ValueError(f"unknown surface {name!r}; choose from {sorted(table)}")
    return table[name](grid)


# -- residual verification ----------------------------------------------------


def verify_minimal_free_boundary(surface: ParametricSurface) -> dict:
    """Sup-norm residuals of the free boundary minimal surface conditions.

    Keys: harmonic, conformal_diag, conformal_offdiag, boundary_unit_sphere,
    conormal_radial, eigenfunction, containment (and identification for
    Moebius topology).  All vanish to discretization accuracy exactly when the
    surface is a conformal minimal immersion meeting the sphere orthogonally.
    """
    pt, pth = surface.first_derivatives()
    ptt = surface.sample(surface.phi_tt)
    phh = surface.sample(surface.phi_thetatheta)
    vals = surface.sample(surface.phi)

    lam2 = np.sum(pt**2, axis=-1)
    res = {
        "harmonic": float(np.max(np.linalg.norm(ptt + phh, axis=-1))),
        "conformal_diag": float(np.max(np.abs(lam2 - np.sum(pth**2, axis=-1)))),
        "conformal_offdiag": float(np.max(np.abs(np.sum(pt * pth, axis=-1)))),
        "containment": float(max(np.max(np.linalg.norm(vals, axis=-1)) - 1.0, 0.0)),
    }

    sphere = conormal = eigen = 0.0
    for tb, sign in surface.boundaries():
        x = surface.sample_circle(surface.phi, tb)
        dpt = surface.sample_circle(surface.phi_t, tb)
        lam = np.linalg.norm(dpt, axis=-1, keepdims=True)
        eta = sign * dpt / lam
        sphere = max(sphere, float(np.max(np.abs(1.0 - np.linalg.norm(x, axis=-1)))))
        conormal = max(conormal, float(np.max(np.linalg.norm(
            eta - x / np.linalg.norm(x, axis=-1, keepdims=True), axis=-1))))
        # coordinate functions as eigenfunctions: d(phi)/d(eta) = phi on the boundary
        eigen = max(eigen, float(np.max(np.linalg.norm(sign * dpt / lam - x, axis=-1))))
    res["boundary_unit_sphere"] = sphere
    res["conormal_radial"] = conormal
    res["eigenfunction"] = eigen

    if surface.topology == "moebius":
        ident = surface.sample(lambda t, theta: surface.phi(-t, theta + math.pi)) - vals
        res["identification"] = float(np.max(np.linalg.norm(ident, axis=-1)))
    return res


# -- quadratic forms ----------------------------------------------------------


def _t_derivative(surface: ParametricSurface, values: np.ndarray) -> np.ndarray:
    t, _, _, _ = surface.nodes()
    key = ("Dt", surface.grid)
    if key not in surface._cache:
        surface._cache[key] = diff_matrix(t)
    D = surface._cache[key]
    return np.einsum("ij,jkl->ikl", D, values)


def area_integral(surface: ParametricSurface, scalar_grid: np.ndarray) -> float:
    """Integrate a scalar sampled on the tensor grid against the area element."""
    _, wt, _, wth = surface.nodes()
    lam2 = surface.conformal_factor_sq()
    return surface.quotient_factor * float(wt @ np.sum(scalar_grid * lam2, axis=1)) * wth


def field_norm_sq_integral(surface: ParametricSurface, W) -> float:
    """int |W|^2 da over the surface."""
    Wg = surface.sample(W)
    return area_integral(surface, np.sum(Wg**2, axis=-1))


def index_form_S(surface: ParametricSurface, W) -> float:
    """Index quadratic form S(W, W) for a normal variation field.

    S = int_Sigma (|D^perp W|^2 - |A^W|^2) da - int_(boundary) |W|^2 ds, with
    |A^W|^2 the squared contraction of the second fundamental form with W.
    The field must be normal on the grid to within ``NORMAL_TOL`` relative to
    its size, otherwise NotNormal is raised.
    """
    _, wt, _, wth = surface.nodes()
    pt, pth = surface.first_derivatives()
    lam2 = np.sum(pt**2, axis=-1)
    lam = np.sqrt(lam2)
    e1 = pt / lam[..., None]
    e2 = pth / np.linalg.norm(pth, axis=-1, keepdims=True)

    Wg = surface.sample(W)
    scale = float(np.max(np.linalg.norm(Wg, axis=-1)))
    if scale > 0.0:
        tang = np.maximum(
            np.abs(np.sum(Wg * e1, axis=-1)), np.abs(np.sum(Wg * e2, axis=-1))
        )
        if float(np.max(tang)) > NORMAL_TOL * scale:
            raise NotNormal(
                f"variation field has tangential part {float(np.max(tang)):.2e} "
                f"(scale {scale:.2e})"
            )

    Wt = _t_derivative(surface, Wg)
    Wth = fourier_diff(Wg, axis=1)

    grad_perp_sq = np.zeros_like(lam2)
    for dW in (Wt, Wth):
        d = dW / lam[..., None]
        d = d - np.sum(d * e1, axis=-1, keepdims=True) * e1
        d = d - np.sum(d * e2, axis=-1, keepdims=True) * e2
        grad_perp_sq += np.sum(d**2, axis=-1)

    ptt = surface.sample(surface.phi_tt)
    ptth = surface.sample(surface.phi_ttheta)
    phh = surface.sample(surface.phi_thetatheta)
    a11 = np.sum(ptt * Wg, axis=-1) / lam2
    a12 = np.sum(ptth * Wg, axis=-1) / lam2
    a22 = np.sum(phh * Wg, axis=-1) / lam2
    shape_sq = a11**2 + 2.0 * a12**2 + a22**2

    interior = float(wt @ np.sum((grad_perp_sq - shape_sq) * lam2, axis=1)) * wth

    boundary = 0.0
    for tb, _sign in surface.boundaries():
        Wb = surface.sample_circle(W, tb)
        boundary += float(np.sum(np.sum(Wb**2, axis=-1) * surface.boundary_speed(tb))) * wth

    return surface.quotient_factor * (interior - boundary)


def index_form_boundary(surface: ParametricSurface, v: np.ndarray) -> float:
    """Boundary-only evaluation of S(v_perp, v_perp) for a constant vector v.

    Equals int_(boundary) (-1 + 2 (v . x)^2) ds on a free boundary minimal
    surface; used as the independent check of the interior quadrature.
    """
    v = np.asarray(v, dtype=float)
    _, _, _, wth = surface.nodes()
    total = 0.0
    for tb, _sign in surface.boundaries():
        x = surface.sample_circle(surface.phi, tb)
        vx = x @ v
        total += float(np.sum((-1.0 + 2.0 * vx**2) * surface.boundary_speed(tb))) * wth
    return surface.quotient_factor * total


def normal_part(surface: ParametricSurface, ambient) -> VariationField:
    """Variation field (ambient)^perp: pointwise normal projection.

    ``ambient`` is a constant vector or a closure (t, theta) -> (..., n).
    """
    if callable(ambient):
        amb = ambient
    else:
        vec = np.asarray(ambient, dtype=float)

        def amb(t, theta):
            shape = np.broadcast(np.asarray(t), np.asarray(theta)).shape
            return np.broadcast_to(vec, shape + (surface.n,))

    def closure(t, theta):
        P = surface.normal_projector(t, theta)
        return np.einsum("...ij,...j->...i", P, amb(t, theta))

    return VariationField(closure, kind="normal")


def energy_form_Q(surface: ParametricSurface, V, W) -> float:
    """Energy quadratic form Q(V, W) = int <DV, DW> da - int_(boundary) V.W ds.

    Both fields must be tangent to the unit sphere along the boundary
    (|x . V| within ``TANGENCY_TOL`` of zero relative to max(|V|, 1)), since
    the form is the second variation of energy among maps keeping the boundary
    on the sphere; otherwise BoundaryTangencyViolated is raised.  Each field
    is sampled once on the mesh and once on each boundary circle; W is V
    reuses V's samples.
    """
    _, wt, _, wth = surface.nodes()
    circles = [tb for tb, _sign in surface.boundaries()]
    xs = [surface.sample_circle(surface.phi, tb) for tb in circles]

    def sampled(name, F):
        Fb = [surface.sample_circle(F, tb) for tb in circles]
        worst = max(float(np.max(np.abs(np.sum(x * f, axis=-1)))) for x, f in zip(xs, Fb))
        scale = max(float(np.max(np.linalg.norm(f, axis=-1))) for f in Fb)
        if scale > 0.0 and worst > TANGENCY_TOL * max(scale, 1.0):
            raise BoundaryTangencyViolated(
                f"field {name} has normal boundary component {worst:.2e}"
            )
        Fg = surface.sample(F)
        return Fb, _t_derivative(surface, Fg), fourier_diff(Fg, axis=1)

    Vb, Vt, Vth = sampled("V", V)
    Wb, Wt, Wth = (Vb, Vt, Vth) if W is V else sampled("W", W)
    # <DV, DW> da is conformally invariant: (Vt.Wt + Vth.Wth) dt dtheta
    dens = np.sum(Vt * Wt, axis=-1) + np.sum(Vth * Wth, axis=-1)
    interior = float(wt @ np.sum(dens, axis=1)) * wth

    boundary = 0.0
    for tb, Vc, Wc in zip(circles, Vb, Wb):
        boundary += float(np.sum(np.sum(Vc * Wc, axis=-1) * surface.boundary_speed(tb))) * wth

    return surface.quotient_factor * (interior - boundary)


def area_length_report(surface: ParametricSurface) -> FormReport:
    """Area, weighted boundary length, energy, and the 2A = L residual."""
    A = surface.area()
    L = surface.boundary_length()
    E = surface.energy()
    return FormReport(
        area=A,
        boundary_length=L,
        energy=E,
        residuals={
            "two_area_minus_length": abs(2.0 * A - L),
            "energy_minus_two_area": abs(E - 2.0 * A),
        },
    )


def finite_difference_surface(
    surface: ParametricSurface, *,
    h1: float = 1e-6, h2: float = 2e-4, grid=(256, 256),
) -> ParametricSurface:
    """Clone of a surface whose derivative closures are central differences of phi.

    Cross-checks the analytic derivative closures: residuals of the clone under
    verify_minimal_free_boundary stay at the finite-difference error level
    (around 1e-7 with the default steps) when the closures are consistent.
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


# -- mesh export --------------------------------------------------------------


def export_obj(surface: ParametricSurface, nt: int = 48, ntheta: int = 96) -> str:
    """Deterministic OBJ mesh of the surface.

    The Moebius band is meshed on the fundamental domain t in [0, T] with the
    seam row t = 0 identified under (0, theta) ~ (0, theta + pi).
    """
    moebius = surface.topology == "moebius"
    if moebius and ntheta % 2 != 0:
        raise ValueError("ntheta must be even for the Moebius seam")
    tv = np.linspace(0.0 if moebius else surface.t_min, surface.T, nt)
    th = 2.0 * math.pi * np.arange(ntheta) / ntheta
    half = ntheta // 2
    # 1-based vertex numbers: consecutive over the grid, except that the
    # second half of the Moebius seam row reuses the first half
    own = np.ones((nt, ntheta), dtype=bool)
    if moebius:
        own[0, half:] = False
    index = np.cumsum(own).reshape(nt, ntheta)
    if moebius:
        index[0, half:] = index[0, :half]
    index = index.tolist()

    lines = [f"# steklov-lab surface mesh: {surface.name or surface.topology}"]
    points = surface.phi(tv[:, None], th[None, :])
    for p in points[own]:
        lines.append("v " + " ".join(f"{c:.12f}" for c in p))
    for i in range(nt - 1):
        for j in range(ntheta):
            jn = (j + 1) % ntheta
            a, b, c, d = index[i][j], index[i + 1][j], index[i + 1][jn], index[i][jn]
            lines.append(f"f {a} {b} {c}")
            lines.append(f"f {a} {c} {d}")
    return "\n".join(lines) + "\n"
