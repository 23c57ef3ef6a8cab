"""Circle domains (unit disk minus round holes) and weighted boundary measures.

A domain is the open unit disk with ``k - 1`` closed disjoint circular holes
removed; its boundary has ``k`` circle components indexed 0 (outer unit
circle) then the holes in order.  Boundary weights are given either as a
truncated Fourier series of ``log(lambda)`` per component (``BoundaryDensity``)
or as equispaced samples of the measure density ``lambda * rho`` with respect
to the angle variable (``BoundaryMeasureSamples``: one (k, n) table, a row
per circle on one shared power-of-two grid, and a (k,) array of radii);
``as_samples`` turns either into that table, the one form the computations
read, and moves a table between power-of-two grids exactly (striding down,
Fourier zero padding up).  Heat smoothing acts on the whole table as the
exact Fourier multiplier of the circle heat kernel, one FFT along the rows.
``heat_smooth`` and ``normalize`` also take a (values, radii) pair whose
values stack such tables as (h, k, n), so a ladder of trial weights is
smoothed and rescaled by one call each, row by row as one table would be.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HOLE_MARGIN = 1e-6


class DomainError(ValueError):
    pass


class RadiusNonpositive(DomainError):
    pass


class HoleOutsideDisk(DomainError):
    pass


class Overlap(DomainError):
    pass


@dataclass(frozen=True)
class Hole:
    center: complex
    radius: float


@dataclass(frozen=True)
class CircleDomain:
    """Unit disk minus disjoint round holes; boundary component 0 is the unit circle."""

    holes: tuple[Hole, ...] = ()

    def __post_init__(self):
        validate(self)

    @property
    def k(self) -> int:
        """Number of boundary components."""
        return 1 + len(self.holes)

    def component_radius(self, j: int) -> float:
        return 1.0 if j == 0 else self.holes[j - 1].radius

    def radii(self) -> np.ndarray:
        return np.array([self.component_radius(j) for j in range(self.k)])

    def contains(self, z: np.ndarray, margin: float = 0.0) -> np.ndarray:
        """Boolean mask of points inside the domain with clearance ``margin``."""
        z = np.asarray(z, dtype=complex)
        inside = np.abs(z) <= 1.0 - margin
        for h in self.holes:
            inside &= np.abs(z - h.center) >= h.radius + margin
        return inside


def validate(domain: CircleDomain) -> None:
    """Raise a DomainError unless holes are disjoint and inside the disk.

    Closed holes must sit in the open unit disk and keep pairwise distance,
    both with clearance ``HOLE_MARGIN``.
    """
    for h in domain.holes:
        if not (h.radius > 0.0):
            raise RadiusNonpositive(f"hole radius {h.radius} must be positive")
        if not abs(h.center) + h.radius <= 1.0 - HOLE_MARGIN:  # nan too
            raise HoleOutsideDisk(
                f"hole at {h.center} radius {h.radius} leaves the unit disk"
            )
    hs = domain.holes
    for i in range(len(hs)):
        for j in range(i + 1, len(hs)):
            gap = abs(hs[i].center - hs[j].center) - hs[i].radius - hs[j].radius
            if not gap >= HOLE_MARGIN:  # nan too
                raise Overlap(f"holes {i} and {j} overlap (gap {gap:.2e})")


@dataclass(frozen=True)
class BoundaryDensity:
    """Truncated Fourier series of log(lambda) on each boundary circle.

    ``log_coeffs[j] = (c0, a1, b1, a2, b2, ...)`` encodes
    ``log lambda(theta) = c0 + sum_m (a_m cos(m theta) + b_m sin(m theta))``
    in the angle variable of component j.  Positivity of lambda is automatic.
    """

    log_coeffs: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        for c in self.log_coeffs:
            if len(c) % 2 != 1:
                raise ValueError("coefficient lists must have odd length (c0,a1,b1,...)")

    @classmethod
    def uniform(cls, k: int) -> "BoundaryDensity":
        return cls(tuple((0.0,) for _ in range(k)))

    @property
    def k(self) -> int:
        return len(self.log_coeffs)

    def values(self, j: int, thetas: np.ndarray) -> np.ndarray:
        """lambda = exp(series) on component j at the given angles."""
        c = self.log_coeffs[j]
        out = np.full_like(np.asarray(thetas, dtype=float), c[0])
        for m in range(1, (len(c) + 1) // 2):
            out += c[2 * m - 1] * np.cos(m * thetas)
            if 2 * m < len(c):
                out += c[2 * m] * np.sin(m * thetas)
        return np.exp(out)


@dataclass(frozen=True)
class BoundaryMeasureSamples:
    """Equispaced samples of the measure density d(mu)/d(theta), one row per circle.

    ``values`` is a (k, n) table with values[j, i] = lambda(theta_i) * rho_j
    at theta_i = 2*pi*i/n; every circle shares the one power-of-two n.
    ``radii`` is the (k,) array of euclidean circle radii, needed to convert
    back to lambda and to set the physical smoothing scale.  Any sequence of
    equal-length rows is accepted and stacked.
    """

    values: np.ndarray
    radii: np.ndarray

    def __post_init__(self):
        shapes = [np.shape(v) for v in self.values]
        if len(set(shapes)) > 1:
            raise ValueError(f"ragged rows: every circle needs one sample count, got {shapes}")
        values = np.array(self.values, dtype=float)
        radii = np.array(self.radii, dtype=float)
        if values.ndim != 2 or radii.shape != values.shape[:1]:
            raise ValueError("values and radii must align as (k, n) and (k,)")
        n = values.shape[1]
        if n < 4 or (n & (n - 1)) != 0:
            raise ValueError("grid sizes must be powers of two (>= 4)")
        values.flags.writeable = radii.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "radii", radii)

    @property
    def k(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    def total_mass(self) -> float:
        """Total measure (periodic trapezoid, exact for trig polys)."""
        return float(_mass(self.values))


def _mass(values: np.ndarray) -> np.ndarray:
    """Total measure of each (k, n) table in values, shape (..., k, n) -> (...)."""
    return np.sum(2.0 * math.pi * np.mean(values, axis=-1), axis=-1)


def _table(samples) -> tuple[np.ndarray, np.ndarray]:
    """(values, radii) of a BoundaryMeasureSamples or of a (values, radii) pair."""
    if isinstance(samples, BoundaryMeasureSamples):
        return samples.values, samples.radii
    return samples


def _with_values(samples, values: np.ndarray):
    """New values in the form of samples: a BoundaryMeasureSamples or a pair."""
    if isinstance(samples, BoundaryMeasureSamples):
        return BoundaryMeasureSamples(values, samples.radii)
    return values, samples[1]


def as_samples(domain: CircleDomain, density, n: int = 256) -> BoundaryMeasureSamples:
    """Either boundary weight as a (k, n) table of lambda * rho samples.

    A BoundaryDensity is evaluated at the grid angles.  Samples must carry
    the domain's radii; on the n-point grid they are returned as they are,
    a coarser grid takes every (n_old / n)-th sample, and a finer grid zero
    pads the Fourier coefficients of each row (the old Nyquist term split
    evenly between +-n_old/2), so the band-limited interpolant is unchanged.
    """
    if density.k != domain.k:
        raise ValueError("density has wrong number of components")
    if isinstance(density, BoundaryDensity):
        th = 2.0 * math.pi * np.arange(n) / n
        radii = domain.radii()
        lam = [density.values(j, th) for j in range(domain.k)]
        return BoundaryMeasureSamples(np.array(lam) * radii[:, None], radii)
    if not np.array_equal(density.radii, domain.radii()):
        raise ValueError(f"samples have radii {density.radii}, the domain {domain.radii()}")
    if density.n == n:
        return density
    if density.n > n:
        values = density.values[:, :: density.n // n]
    else:
        coeff = np.fft.rfft(density.values, axis=1)
        coeff[:, -1] *= 0.5
        values = np.fft.irfft(coeff, n=n, axis=1) * (n / density.n)
    return BoundaryMeasureSamples(values, density.radii)


def heat_smooth(samples, eps: float):
    """Heat-kernel smoothing of a boundary measure at time eps.

    Acts on every row of the table as the exact multiplier
    exp(-(2 pi m / ell_j)^2 eps) on the Fourier coefficients of the measure,
    where ell_j = 2 pi rho_j is the euclidean circumference of circle j.  Mass
    is preserved exactly; eps = 0 is the identity.  ``samples`` is a
    BoundaryMeasureSamples, or a (values, radii) pair whose values are one
    (k, n) table or a stack (h, k, n) of them; the result has its form.
    """
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    values, radii = _table(samples)
    coeff = np.fft.rfft(values, axis=-1)
    m = np.arange(coeff.shape[-1])
    coeff *= np.exp(-((m / radii[:, None]) ** 2) * eps)
    return _with_values(samples, np.fft.irfft(coeff, n=values.shape[-1], axis=-1))


def normalize(samples):
    """Rescale a boundary measure so the total weighted length is 1; idempotent.

    Takes the forms ``heat_smooth`` takes; each table of a stack is rescaled
    by its own mass, and any nonpositive one raises DomainError.
    """
    values, _ = _table(samples)
    L = _mass(values)
    if not np.all(L > 0.0):
        raise DomainError("degenerate measure: nonpositive total mass")
    return _with_values(samples, values * (1.0 / L)[..., None, None])
