"""Closed-form Steklov spectra of rotationally symmetric cylinders and their
Moebius quotients.

A flat cylinder ``[-T, T] x S^1`` carries the metric ``f(t)^2 (dt^2 + d(theta)^2)``
with ``f`` even and ``f(T) = fT``.  Harmonic functions separate into Fourier
modes, so the Steklov (Dirichlet-to-Neumann) spectrum is explicit:

* n = 0:   0 (constants) and ``1/(T * fT)`` (the odd linear mode ``t``),
* n >= 1:  ``n tanh(nT) / fT`` (even ``cosh(nt)`` profile, multiplicity 2) and
  ``n coth(nT) / fT`` (odd ``sinh(nt)`` profile, multiplicity 2).

The Moebius quotient identifies ``(t, theta) ~ (-t, theta + pi)``.  A mode
survives the identification iff its profile parity matches the parity of its
angular frequency, which keeps the odd-n ``sinh`` branches and the even-n
``cosh`` branches and removes the linear mode entirely.

The scale-invariant product ``sigma_1 * L`` over this family is maximized at an
explicit critical aspect ratio in both topologies; ``critical_parameter`` and
``critical_sigma1L`` return those values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

BRANCH_CONSTANT = "constant"
BRANCH_LINEAR = "linear"
BRANCH_COSH = "cosh"
BRANCH_SINH = "sinh"

_TOPOLOGIES = ("annulus", "moebius")

# Brackets for the critical-parameter root finds.  Fixed so runs are
# reproducible bit for bit; both intervals provably contain exactly one root.
_BRACKETS = {"annulus": (1.0, 1.5), "moebius": (0.4, 1.0)}


@dataclass(frozen=True)
class SpectralEntry:
    """One closed-form eigenvalue with its mode label."""

    eigenvalue: float
    n: int
    branch: str
    multiplicity: int


@dataclass(frozen=True)
class RotSymSurface:
    """Rotationally symmetric conformal cylinder ``[-T, T] x S^1``.

    Only the boundary value ``fT = f(T)`` of the conformal factor enters the
    Steklov problem, so the profile itself is not stored.
    """

    topology: str
    T: float
    fT: float

    def __post_init__(self):
        if self.topology not in _TOPOLOGIES:
            raise ValueError(f"unknown topology {self.topology!r}")
        if not (0.0 < self.T < math.inf) or not (0.0 < self.fT < math.inf):
            raise ValueError("T and fT must be finite and positive")

    @property
    def boundary_length(self) -> float:
        # two boundary circles of circumference 2*pi*fT, identified to one in
        # the Moebius quotient
        if self.topology == "moebius":
            return 2.0 * math.pi * self.fT
        return 4.0 * math.pi * self.fT


@dataclass(frozen=True)
class ClosedFormSpectrum:
    """Sorted closed-form spectrum of a ``RotSymSurface``."""

    surface: RotSymSurface
    entries: tuple[SpectralEntry, ...] = field(repr=False)

    @property
    def eigenvalues(self) -> list[float]:
        """Eigenvalues in nondecreasing order, repeated by multiplicity."""
        out = []
        for e in self.entries:
            out.extend([e.eigenvalue] * e.multiplicity)
        return sorted(out)

    def sigma1(self) -> float:
        vals = self.eigenvalues
        return vals[1]

    def sigma1_L(self) -> float:
        return self.sigma1() * self.surface.boundary_length


def _coth(x: float) -> float:
    return 1.0 / math.tanh(x)


def annulus_spectrum(T: float, fT: float, n_max: int) -> ClosedFormSpectrum:
    """All closed-form Steklov eigenvalues of the cylinder with |n| <= n_max."""
    surf = RotSymSurface("annulus", T, fT)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    entries = [
        SpectralEntry(0.0, 0, BRANCH_CONSTANT, 1),
        SpectralEntry(1.0 / (T * fT), 0, BRANCH_LINEAR, 1),
    ]
    for n in range(1, n_max + 1):
        entries.append(SpectralEntry(n * math.tanh(n * T) / fT, n, BRANCH_COSH, 2))
        entries.append(SpectralEntry(n * _coth(n * T) / fT, n, BRANCH_SINH, 2))
    entries.sort(key=lambda e: (e.eigenvalue, e.n))
    return ClosedFormSpectrum(surf, tuple(entries))


def moebius_spectrum(T: float, fT: float, n_max: int) -> ClosedFormSpectrum:
    """Closed-form Steklov eigenvalues of the Moebius quotient with n <= n_max.

    Odd angular frequencies pair with the odd (sinh/coth) profile, even ones
    with the even (cosh/tanh) profile; the linear mode does not descend.
    """
    surf = RotSymSurface("moebius", T, fT)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    entries = [SpectralEntry(0.0, 0, BRANCH_CONSTANT, 1)]
    for n in range(1, n_max + 1):
        if n % 2 == 1:
            entries.append(SpectralEntry(n * _coth(n * T) / fT, n, BRANCH_SINH, 2))
        else:
            entries.append(SpectralEntry(n * math.tanh(n * T) / fT, n, BRANCH_COSH, 2))
    entries.sort(key=lambda e: (e.eigenvalue, e.n))
    return ClosedFormSpectrum(surf, tuple(entries))


def _critical_residual(topology: str, t: float) -> tuple[float, float]:
    """Residual and derivative of the criticality equation.

    annulus:  t * tanh(t) - 1 = 0   (the linear and first cosh branch cross)
    moebius:  coth(t) - 2 tanh(2t) = 0   (first sinh and first cosh branch cross)
    """
    if topology == "annulus":
        th = math.tanh(t)
        return t * th - 1.0, th + t * (1.0 - th * th)
    sh = math.sinh(t)
    ch2 = math.cosh(2.0 * t)
    r = _coth(t) - 2.0 * math.tanh(2.0 * t)
    dr = -1.0 / (sh * sh) - 4.0 / (ch2 * ch2)
    return r, dr


def critical_parameter(topology: str) -> float:
    """Aspect ratio T at which sigma_1 * L is maximal for the family.

    Bisection on a fixed bracket down to machine tolerance, then two Newton
    polish steps.  Deterministic.
    """
    if topology not in _TOPOLOGIES:
        raise ValueError(f"unknown topology {topology!r}")
    a, b = _BRACKETS[topology]
    ra, _ = _critical_residual(topology, a)
    for _ in range(80):
        m = 0.5 * (a + b)
        rm, _ = _critical_residual(topology, m)
        if rm == 0.0:
            a = b = m
            break
        if (rm > 0.0) == (ra > 0.0):
            a, ra = m, rm
        else:
            b = m
        if b - a <= 4.0 * math.ulp(m):
            break
    t = 0.5 * (a + b)
    for _ in range(2):
        r, dr = _critical_residual(topology, t)
        t -= r / dr
    return t


def critical_sigma1L(topology: str) -> float:
    """Maximal value of sigma_1 * L over the rotationally symmetric family."""
    t0 = critical_parameter(topology)
    if topology == "annulus":
        # sigma_1 * L = 4*pi*min(1/T, tanh T), equalized at T0
        return 4.0 * math.pi / t0
    # coth(T0) = sqrt(3) exactly: the crossing equation reduces to
    # tanh(T0)^2 = 1/3, so the closed form is 2*pi*sqrt(3)
    return 2.0 * math.pi * math.sqrt(3.0)
