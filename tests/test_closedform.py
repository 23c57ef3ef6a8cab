import math

import numpy as np
import pytest

from steklov_lab.closedform import (
    annulus_spectrum,
    critical_parameter,
    critical_sigma1L,
    moebius_spectrum,
)

# fixed points of the defining scalar equations, frozen from a bisection run
# against mpmath at 50 digits
T0_ANNULUS = 1.1996786402577337
T0_MOEBIUS = 0.6584789484624084


def test_annulus_critical_parameter():
    t = critical_parameter("annulus")
    assert abs(t * math.tanh(t) - 1.0) < 1e-13
    assert abs(t - T0_ANNULUS) < 1e-12


def test_annulus_critical_value():
    assert abs(critical_sigma1L("annulus") - 4.0 * math.pi / T0_ANNULUS) < 1e-12


def test_moebius_critical_parameter():
    t = critical_parameter("moebius")
    assert abs(1.0 / math.tanh(t) - 2.0 * math.tanh(2.0 * t)) < 1e-13
    # the same fixed point satisfies tanh^2 t = 1/3
    assert abs(math.tanh(t) ** 2 - 1.0 / 3.0) < 1e-13


def test_moebius_critical_value():
    assert abs(critical_sigma1L("moebius") - 2.0 * math.pi * math.sqrt(3.0)) < 1e-12


def test_unknown_topology():
    with pytest.raises(ValueError):
        critical_parameter("torus")


def test_annulus_spectrum_structure():
    spec = annulus_spectrum(1.3, 0.8, 5)
    vals = spec.eigenvalues
    assert vals[0] == 0.0
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    # the branch values are elementary
    by_branch = {(e.branch, e.n): e for e in spec.entries}
    assert abs(by_branch[("linear", 0)].eigenvalue - 1.0 / (1.3 * 0.8)) < 1e-15
    for n in (1, 2, 3):
        e = by_branch[("cosh", n)]
        assert e.multiplicity == 2
        assert abs(e.eigenvalue - n * math.tanh(n * 1.3) / 0.8) < 1e-14
        e = by_branch[("sinh", n)]
        assert abs(e.eigenvalue - n / math.tanh(n * 1.3) / 0.8) < 1e-14


def test_annulus_sigma1L_scale_invariant():
    a = annulus_spectrum(1.1, 0.6, 6)
    b = annulus_spectrum(1.1, 1.7, 6)
    assert abs(a.sigma1_L() - b.sigma1_L()) < 1e-12


def test_annulus_optimum_is_interior():
    # sigma_1 L as a function of T peaks at the critical parameter
    t0 = critical_parameter("annulus")
    f = lambda t: annulus_spectrum(t, 1.0, 4).sigma1_L()
    assert f(t0) > f(t0 - 0.05)
    assert f(t0) > f(t0 + 0.05)
    assert abs(f(t0) - critical_sigma1L("annulus")) < 1e-12


def test_moebius_branch_parity():
    spec = moebius_spectrum(0.9, 1.0, 6)
    for e in spec.entries:
        if e.n == 0:
            assert e.branch == "constant"
        elif e.n % 2 == 1:
            assert e.branch == "sinh"
        else:
            assert e.branch == "cosh"


def test_moebius_optimum_is_interior():
    t0 = critical_parameter("moebius")
    f = lambda t: moebius_spectrum(t, 1.0, 4).sigma1_L()
    assert f(t0) > f(t0 - 0.04)
    assert f(t0) > f(t0 + 0.04)


def test_nmax_validation():
    with pytest.raises(ValueError):
        annulus_spectrum(1.0, 1.0, 0)
    with pytest.raises(ValueError):
        moebius_spectrum(-0.5, 1.0, 4)


@pytest.mark.parametrize("T, fT", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)])
def test_infinite_T_or_fT_is_refused(T, fT):
    # an infinite T gave sigma1_L = 0 and an infinite fT gave nan
    for spectrum in (annulus_spectrum, moebius_spectrum):
        with pytest.raises(ValueError, match="T and fT must be finite"):
            spectrum(T, fT, 4)
