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
on the orientation double cover and halved.  Closures are evaluated only on
open grids (t a column, theta a row): the mesh through
``ParametricSurface.sample``, and the boundary circles (their t a column)
through ``sample_boundary``, one stacked (n_circles, ntheta) table.  Both are
one call into ``_table``.  Every integral goes through ``grid_integral``
(dt dtheta) or ``boundary_integral`` (ds, against a cached table of |phi_theta|),
every derivative of a sampled field through ``grid_derivatives``, and every
dot product over the coordinate axis through ``coord_dot``.

Fields are pure functions of (t, theta): the same inputs give the same
values.  So each is sampled once per grid.  ``sample`` and ``sample_boundary``
keep one read-only table per field and grid, and drop it when the field is
deleted.
"""

from __future__ import annotations

import math
import weakref
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


def coord_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b over the trailing coordinate axis: a[..., 0] * b[..., 0] + ...

    Summed left to right, the order ``np.sum(a * b, axis=-1)`` uses on an axis
    this short, so the values are bitwise its, without the (..., n) product.
    """
    out = a[..., 0] * b[..., 0]
    for i in range(1, a.shape[-1]):
        out += a[..., i] * b[..., i]
    return out


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view; the array itself stays as it was."""
    view = a.view()
    view.flags.writeable = False
    return view


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
    # field -> {(where, grid): table}; weak keys, since fields close over the surface
    _samples: weakref.WeakKeyDictionary = field(
        default_factory=weakref.WeakKeyDictionary, repr=False)

    @property
    def t_min(self) -> float:
        return 0.0 if self.topology == "disk" else -self.T

    @property
    def quotient_factor(self) -> float:
        return 0.5 if self.topology == "moebius" else 1.0

    def _cached(self, name: str, make):
        """make() once per grid."""
        key = (name, self.grid)
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def nodes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """(t nodes, t weights, theta nodes, theta weight)."""
        def make():
            nt, ntheta = self.grid
            t, wt = gauss_legendre(nt, self.t_min, self.T)
            th = 2.0 * math.pi * np.arange(ntheta) / ntheta
            return t, wt, th, 2.0 * math.pi / ntheta

        return self._cached("nodes", make)

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Open grid: t nodes as (nt, 1) and theta nodes as (1, ntheta)."""
        return self._cached("mesh", lambda: self._open_grid(self.nodes()[0]))

    def sample(self, fn) -> np.ndarray:
        """fn on the mesh as one read-only (nt, ntheta, ...) table (see ``_table``)."""
        return self._table(fn, "mesh", self.mesh())

    def boundary_t(self) -> np.ndarray:
        """t of each boundary circle; its sign is the outward direction of d/dt."""
        return np.array([self.T] if self.topology == "disk" else [self.T, -self.T])

    def boundary_mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Open grid of the boundary: circle t as (n_circles, 1), theta as (1, ntheta)."""
        return self._cached("boundary", lambda: self._open_grid(self.boundary_t()))

    def _open_grid(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """t as a read-only column and the theta nodes as a read-only row."""
        return _read_only(t[:, None]), _read_only(self.nodes()[2][None, :])

    def sample_boundary(self, fn) -> np.ndarray:
        """fn on every boundary circle as one (n_circles, ntheta, ...) table (see ``_table``)."""
        return self._table(fn, "boundary", self.boundary_mesh())

    def _table(self, fn, where: str, grid) -> np.ndarray:
        """fn on an open grid, broadcast to the full (len t, len theta, ...) shape.

        fn takes its t factors once per t and its theta factors once per
        theta, and a field that ignores theta (or t) still fills the grid.
        The table is read-only and made once per field, place and grid.
        Fields are keyed weakly, so a table goes with its field and a field
        that closes over the surface forms no cycle with it.  A callable that
        takes no weak reference (a numpy ufunc) is sampled every time.
        """
        def make():
            t, theta = grid
            vals = np.asarray(fn(t, theta))
            return np.broadcast_to(vals, (t.size, theta.size) + vals.shape[2:])

        try:
            tables = self._samples.setdefault(fn, {})
        except TypeError:
            return make()
        key = (where, self.grid)
        if key not in tables:
            tables[key] = make()
        return tables[key]

    def first_derivatives(self):
        return self.sample(self.phi_t), self.sample(self.phi_theta)

    def grid_derivatives(self, Fg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(d/dt, d/dtheta) of a field sampled on the full grid."""
        Dt = self._cached("Dt", lambda: diff_matrix(self.nodes()[0]))
        return np.einsum("ij,jkl->ikl", Dt, Fg), fourier_diff(Fg, axis=1)

    def grid_integral(self, f: np.ndarray) -> float:
        """int f dt dtheta of an (nt, ntheta) table."""
        _, wt, _, wth = self.nodes()
        return self.quotient_factor * float(wt @ np.sum(f, axis=1)) * wth

    def grid_moments(self, f: np.ndarray, *tables: np.ndarray) -> np.ndarray:
        """int f * table_a [* table_b] dt dtheta of stacked (nt, ntheta, m) tables.

        One table gives the m moments, two give the m x m matrix: the weights
        of ``grid_integral`` contracted with a whole table at once.
        """
        _, wt, _, wth = self.nodes()
        weights = self.quotient_factor * (wt[:, None] * wth) * f
        spec = {1: "ij,ija->a", 2: "ij,ija,ijb->ab"}[len(tables)]
        return np.einsum(spec, weights, *tables, optimize=True)

    def boundary_integral(self, f) -> float:
        """int f ds of an (n_circles, ntheta) table, ds = |phi_theta| dtheta."""
        ds = self._cached(
            "ds", lambda: np.linalg.norm(self.sample_boundary(self.phi_theta), axis=-1))
        _, _, _, wth = self.nodes()
        per_circle = np.sum(f * ds, axis=1) * wth
        return self.quotient_factor * float(np.sum(per_circle))

    def conformal_factor_sq(self) -> np.ndarray:
        pt, _ = self.first_derivatives()
        return coord_dot(pt, pt)

    def area(self) -> float:
        return self.grid_integral(self.conformal_factor_sq())

    def boundary_length(self) -> float:
        return self.boundary_integral(1.0)

    def energy(self) -> float:
        """Dirichlet energy of the immersion; equals 2*area for conformal maps."""
        pt, pth = self.first_derivatives()
        return self.grid_integral(coord_dot(pt, pt) + coord_dot(pth, pth))

    def unit_normal(self, t: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """Unit normal field (n = 3 only)."""
        return self._normal_from_tangents(self.phi_t(t, theta), self.phi_theta(t, theta))

    def _normal_from_tangents(self, pt: np.ndarray, pth: np.ndarray) -> np.ndarray:
        """phi_t x phi_theta normalized (n = 3 only).

        Written out, with the products and sums in the order of ``np.cross``
        and ``np.linalg.norm``, so the values are bitwise theirs.
        """
        if self.n != 3:
            raise ValueError("unit_normal needs ambient dimension 3")
        a0, a1, a2 = pt[..., 0], pt[..., 1], pt[..., 2]
        b0, b1, b2 = pth[..., 0], pth[..., 1], pth[..., 2]
        c = (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
        norm = np.sqrt(c[0] * c[0] + c[1] * c[1] + c[2] * c[2])
        nu = np.empty(norm.shape + (3,))
        for i in range(3):
            np.divide(c[i], norm, out=nu[..., i])
        return nu


@dataclass(eq=False)
class VariationField:
    """Ambient-valued variation field along a surface, given as a closure.

    Compared by identity, so that sampling memoizes it as one field.
    """

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


SURFACES = {
    "critical-catenoid": critical_catenoid,
    "critical-moebius": critical_moebius,
    "flat-disk": flat_disk,
}


def surface_by_name(name: str, grid=(64, 256)) -> ParametricSurface:
    if name not in SURFACES:
        raise ValueError(f"unknown surface {name!r}; choose from {sorted(SURFACES)}")
    return SURFACES[name](grid)


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

    lam2 = coord_dot(pt, pt)
    res = {
        "harmonic": float(np.max(np.linalg.norm(ptt + phh, axis=-1))),
        "conformal_diag": float(np.max(np.abs(lam2 - coord_dot(pth, pth)))),
        "conformal_offdiag": float(np.max(np.abs(coord_dot(pt, pth)))),
        "containment": float(max(np.max(np.linalg.norm(vals, axis=-1)) - 1.0, 0.0)),
    }

    x = surface.sample_boundary(surface.phi)
    dpt = surface.sample_boundary(surface.phi_t)
    sign = np.sign(surface.boundary_t())[:, None, None]
    eta = sign * dpt / np.linalg.norm(dpt, axis=-1, keepdims=True)
    r = np.linalg.norm(x, axis=-1, keepdims=True)
    res["boundary_unit_sphere"] = float(np.max(np.abs(1.0 - r)))
    res["conormal_radial"] = float(np.max(np.linalg.norm(eta - x / r, axis=-1)))
    # coordinate functions as eigenfunctions: d(phi)/d(eta) = phi on the boundary
    res["eigenfunction"] = float(np.max(np.linalg.norm(eta - x, axis=-1)))

    if surface.topology == "moebius":
        ident = surface.sample(lambda t, theta: surface.phi(-t, theta + math.pi)) - vals
        res["identification"] = float(np.max(np.linalg.norm(ident, axis=-1)))
    return res


# -- quadratic forms ----------------------------------------------------------


def area_integral(surface: ParametricSurface, scalar_grid: np.ndarray) -> float:
    """Integrate a scalar sampled on the tensor grid against the area element."""
    return surface.grid_integral(scalar_grid * surface.conformal_factor_sq())


def field_norm_sq_integral(surface: ParametricSurface, W) -> float:
    """int |W|^2 da over the surface."""
    Wg = surface.sample(W)
    return area_integral(surface, coord_dot(Wg, Wg))


def index_form_S(surface: ParametricSurface, W) -> float:
    """Index quadratic form S(W, W) for a normal variation field.

    S = int_Sigma (|D^perp W|^2 - |A^W|^2) da - int_(boundary) |W|^2 ds, with
    |A^W|^2 the squared contraction of the second fundamental form with W.
    The field must be normal on the grid to within ``NORMAL_TOL`` relative to
    its size, otherwise NotNormal is raised.
    """
    pt, pth = surface.first_derivatives()
    lam2 = coord_dot(pt, pt)
    lam = np.sqrt(lam2)
    e1 = pt / lam[..., None]
    e2 = pth / np.linalg.norm(pth, axis=-1, keepdims=True)

    Wg = surface.sample(W)
    scale = float(np.max(np.linalg.norm(Wg, axis=-1)))
    if scale > 0.0:
        tang = np.maximum(
            np.abs(coord_dot(Wg, e1)), np.abs(coord_dot(Wg, e2))
        )
        if float(np.max(tang)) > NORMAL_TOL * scale:
            raise NotNormal(
                f"variation field has tangential part {float(np.max(tang)):.2e} "
                f"(scale {scale:.2e})"
            )

    Wt, Wth = surface.grid_derivatives(Wg)
    grad_perp_sq = np.zeros_like(lam2)
    for dW in (Wt, Wth):
        d = dW / lam[..., None]
        d = d - coord_dot(d, e1)[..., None] * e1
        d = d - coord_dot(d, e2)[..., None] * e2
        grad_perp_sq += coord_dot(d, d)

    ptt = surface.sample(surface.phi_tt)
    ptth = surface.sample(surface.phi_ttheta)
    phh = surface.sample(surface.phi_thetatheta)
    a11 = coord_dot(ptt, Wg) / lam2
    a12 = coord_dot(ptth, Wg) / lam2
    a22 = coord_dot(phh, Wg) / lam2
    shape_sq = a11**2 + 2.0 * a12**2 + a22**2

    interior = surface.grid_integral((grad_perp_sq - shape_sq) * lam2)
    Wb = surface.sample_boundary(W)
    return interior - surface.boundary_integral(coord_dot(Wb, Wb))


def index_form_boundary(surface: ParametricSurface, v: np.ndarray) -> float:
    """Boundary-only evaluation of S(v_perp, v_perp) for a constant vector v.

    Equals int_(boundary) (-1 + 2 (v . x)^2) ds on a free boundary minimal
    surface; used as the independent check of the interior quadrature.
    """
    vx = surface.sample_boundary(surface.phi) @ np.asarray(v, dtype=float)
    return surface.boundary_integral(-1.0 + 2.0 * vx**2)


def normal_part(surface: ParametricSurface, ambient) -> VariationField:
    """Variation field (ambient)^perp = a - (a.e1) e1 - (a.e2) e2, pointwise.

    e1 and e2 are the unit tangents phi_t/|phi_t| and phi_theta/|phi_theta|,
    orthonormal on a conformal immersion.  ``ambient`` is a constant vector
    or a closure (t, theta) -> (..., n).
    """
    if callable(ambient):
        amb = ambient
    else:
        vec = np.asarray(ambient, dtype=float)
        amb = lambda t, theta: vec  # broadcast by the projection below

    def closure(t, theta):
        a = amb(t, theta)
        out = a
        for tangent in (surface.phi_t(t, theta), surface.phi_theta(t, theta)):
            e = tangent / np.sqrt(coord_dot(tangent, tangent))[..., None]
            out = out - coord_dot(a, e)[..., None] * e
        return out

    return VariationField(closure, kind="normal")


def energy_form_Q(surface: ParametricSurface, V, W) -> float:
    """Energy quadratic form Q(V, W) = int <DV, DW> da - int_(boundary) V.W ds.

    Both fields must be tangent to the unit sphere along the boundary
    (|x . V| within ``TANGENCY_TOL`` of zero relative to max(|V|, 1)), since
    the form is the second variation of energy among maps keeping the boundary
    on the sphere; otherwise BoundaryTangencyViolated is raised.  Each field
    is sampled once on the mesh and once on the boundary circles; W is V
    reuses V's samples.
    """
    x = surface.sample_boundary(surface.phi)

    def sampled(name, F):
        Fb = surface.sample_boundary(F)
        worst = float(np.max(np.abs(coord_dot(x, Fb))))
        scale = float(np.max(np.linalg.norm(Fb, axis=-1)))
        if scale > 0.0 and worst > TANGENCY_TOL * max(scale, 1.0):
            raise BoundaryTangencyViolated(
                f"field {name} has normal boundary component {worst:.2e}"
            )
        return Fb, *surface.grid_derivatives(surface.sample(F))

    Vb, Vt, Vth = sampled("V", V)
    Wb, Wt, Wth = (Vb, Vt, Vth) if W is V else sampled("W", W)
    # <DV, DW> da is conformally invariant: (Vt.Wt + Vth.Wth) dt dtheta
    interior = surface.grid_integral(coord_dot(Vt, Wt) + coord_dot(Vth, Wth))
    return interior - surface.boundary_integral(coord_dot(Vb, Wb))


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
