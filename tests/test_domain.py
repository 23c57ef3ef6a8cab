import math

import numpy as np
import pytest

from steklov_lab.domain import (
    HOLE_MARGIN,
    BoundaryDensity,
    BoundaryMeasureSamples,
    CircleDomain,
    DomainError,
    Hole,
    HoleOutsideDisk,
    Overlap,
    RadiusNonpositive,
    as_samples,
    heat_smooth,
    normalize,
)


def test_disk_has_one_component():
    dom = CircleDomain()
    assert dom.k == 1
    assert dom.radii().tolist() == [1.0]


def test_hole_validation():
    with pytest.raises(RadiusNonpositive):
        CircleDomain((Hole(0.2, -0.1),))
    with pytest.raises(HoleOutsideDisk):
        CircleDomain((Hole(0.8, 0.3),))
    with pytest.raises(Overlap):
        CircleDomain((Hole(0.3, 0.2), Hole(0.45, 0.2)))


@pytest.mark.parametrize("center", [complex(math.nan, 0.0), complex(0.3, math.nan)])
def test_nan_hole_centre_is_refused(center):
    with pytest.raises(HoleOutsideDisk):
        CircleDomain((Hole(center, 0.1),))


def test_margin_is_enforced():
    # a hole tangent to the unit circle misses the required clearance
    with pytest.raises(HoleOutsideDisk):
        CircleDomain((Hole(0.5, 0.5),))
    CircleDomain((Hole(0.5, 0.5 - 2 * HOLE_MARGIN),))


def test_contains():
    dom = CircleDomain((Hole(0.4, 0.1),))
    z = np.array([0.0, 0.4 + 0.05j, 0.99, -0.95j, 1.2])
    inside = dom.contains(z)
    assert inside.tolist() == [True, False, True, True, False]
    # margin shrinks the domain on both sides
    assert not dom.contains(np.array([0.4 + 0.105j]), margin=0.01)[0]


def test_uniform_density_values():
    dens = BoundaryDensity.uniform(2)
    th = 2 * math.pi * np.arange(8) / 8
    assert np.allclose(dens.values(0, th), 1.0)
    assert np.allclose(dens.values(1, th), 1.0)


def test_boundary_length_disk():
    dom = CircleDomain()
    L = as_samples(dom, BoundaryDensity.uniform(1)).total_mass()
    assert abs(L - 2 * math.pi) < 1e-12


def test_boundary_length_with_hole():
    dom = CircleDomain((Hole(0.0, 0.25),))
    L = as_samples(dom, BoundaryDensity.uniform(2)).total_mass()
    assert abs(L - 2 * math.pi * 1.25) < 1e-12


def test_as_samples_round_trip():
    dom = CircleDomain((Hole(0.3, 0.15),))
    dens = BoundaryDensity(((0.3, 0.2, -0.1), (0.3,)))
    samples = as_samples(dom, dens, n=128)
    th = 2 * math.pi * np.arange(128) / 128
    for j in range(2):
        lam = samples.values[j] / samples.radii[j]
        assert np.allclose(lam, dens.values(j, th), atol=1e-12)
    L = 2 * math.pi * (np.mean(dens.values(0, th)) + 0.15 * math.exp(0.3))
    assert abs(samples.total_mass() - L) < 1e-10
    # samples on the requested grid pass through; others are resampled
    assert as_samples(dom, samples, 128) is samples
    fine = as_samples(dom, samples, 256)
    th2 = 2 * math.pi * np.arange(256) / 256
    for j in range(2):
        assert np.max(np.abs(fine.values[j] / fine.radii[j] - dens.values(j, th2))) < 1e-12
    with pytest.raises(ValueError):
        as_samples(CircleDomain(), dens)


def test_coarser_grid_takes_every_other_sample():
    rng = np.random.default_rng(5)
    samples = BoundaryMeasureSamples(rng.uniform(0.5, 1.5, (3, 256)), (1.0, 0.2, 0.1))
    dom = CircleDomain((Hole(0.4, 0.2), Hole(-0.4, 0.1)))
    for n in (4, 64, 128):
        coarse = as_samples(dom, samples, n)
        assert coarse.values.tobytes() == samples.values[:, :: 256 // n].tobytes()
        assert coarse.radii.tobytes() == samples.radii.tobytes()


def test_rows_stack_into_one_table():
    # a tuple of equal-length rows, one per circle, is stacked into (k, n)
    n = 16
    samples = BoundaryMeasureSamples((np.full(n, 0.7), np.full(n, 0.7)), (1.0, 0.2))
    assert samples.values.shape == (2, n) and samples.radii.shape == (2,)
    assert (samples.k, samples.n) == (2, n)
    assert samples.values.tolist() == [[0.7] * n] * 2 and samples.radii.tolist() == [1.0, 0.2]
    assert not samples.values.flags.writeable and not samples.radii.flags.writeable
    again = BoundaryMeasureSamples(samples.values, samples.radii)
    assert np.array_equal(again.values, samples.values)


def test_ragged_rows_rejected():
    with pytest.raises(ValueError, match="ragged rows"):
        BoundaryMeasureSamples((np.ones(16), np.ones(32)), (1.0, 0.2))
    with pytest.raises(ValueError, match="align"):
        BoundaryMeasureSamples((np.ones(16), np.ones(16)), (1.0,))
    with pytest.raises(ValueError, match="align"):
        BoundaryMeasureSamples(np.ones(16), (1.0,))
    with pytest.raises(ValueError, match="powers of two"):
        BoundaryMeasureSamples((np.ones(24),), (1.0,))


def _heat_smooth_loop(samples, eps):
    """Reference: one FFT pair per circle."""
    rows = []
    for v, rho in zip(samples.values, samples.radii):
        coeff = np.fft.rfft(v)
        coeff *= np.exp(-((np.arange(coeff.size) / rho) ** 2) * eps)
        rows.append(np.fft.irfft(coeff, n=v.size))
    return np.array(rows)


def test_heat_smooth_table_matches_per_circle_loop():
    rng = np.random.default_rng(11)
    th = 2 * math.pi * np.arange(128) / 128
    vals = np.exp(0.3 * np.cos(np.outer(rng.integers(1, 9, 4), th)) + rng.uniform(-1, 1, (4, 1)))
    samples = BoundaryMeasureSamples(vals, (1.0, 0.3, 0.05, 0.2))
    for eps in (0.0, 1e-4, 1e-2, 0.3):
        ref = _heat_smooth_loop(samples, eps)
        assert np.max(np.abs(heat_smooth(samples, eps).values - ref)) <= 1e-15 * np.max(ref)


def _trig_resample_loop(vals, thetas):
    """Mode-by-mode reference for the band-limited interpolant."""
    n = len(vals)
    coeff = np.fft.rfft(vals) / n
    out = np.full(thetas.shape, coeff[0].real)
    for m in range(1, len(coeff)):
        w = 2.0 if 2 * m < n else 1.0  # Nyquist mode counted once
        out += w * (coeff[m].real * np.cos(m * thetas) - coeff[m].imag * np.sin(m * thetas))
    return out


def test_trig_resample_matches_mode_loop():
    # a finer grid samples the band-limited interpolant of the coarse one
    rng = np.random.default_rng(7)
    dom = CircleDomain((Hole(0.2j, 0.3),))
    for n in (4, 8, 16, 64, 256, 512):
        vals = 1.0 + 0.5 * rng.standard_normal((2, n))
        samples = BoundaryMeasureSamples(vals, (1.0, 0.3))
        for fine in sorted({2 * n, 1024}):
            th = 2 * math.pi * np.arange(fine) / fine
            got = as_samples(dom, samples, fine).values
            for j in range(2):
                ref = _trig_resample_loop(vals[j], th)
                assert np.max(np.abs(got[j] - ref)) <= 1e-13 * np.max(np.abs(ref))
            # and striding back down returns the samples themselves
            again = as_samples(dom, as_samples(dom, samples, fine), n).values
            assert np.max(np.abs(again - vals)) <= 1e-13 * np.max(np.abs(vals))


def test_normalize_idempotent():
    dom = CircleDomain()
    samples = as_samples(dom, BoundaryDensity(((0.7,),)))
    once = normalize(samples)
    twice = normalize(once)
    assert abs(once.total_mass() - 1.0) < 1e-12
    assert abs(twice.total_mass() - 1.0) < 1e-12


def test_normalize_rejects_degenerate():
    with pytest.raises(DomainError):
        normalize(BoundaryMeasureSamples((np.zeros(16),), (1.0,)))


def test_heat_smooth_preserves_mass():
    dom = CircleDomain((Hole(-0.2, 0.3),))
    n = 256
    th = 2 * math.pi * np.arange(n) / n
    vals = (np.exp(np.cos(3 * th)), 0.3 * np.exp(np.sin(2 * th)))
    samples = BoundaryMeasureSamples(vals, (1.0, 0.3))
    sm = heat_smooth(samples, 0.05)
    assert abs(sm.total_mass() - samples.total_mass()) < 1e-12 * samples.total_mass()


def test_heat_smooth_semigroup():
    n = 256
    th = 2 * math.pi * np.arange(n) / n
    samples = BoundaryMeasureSamples((np.exp(np.cos(4 * th)),), (1.0,))
    a = heat_smooth(heat_smooth(samples, 0.01), 0.02)
    b = heat_smooth(samples, 0.03)
    assert np.max(np.abs(a.values[0] - b.values[0])) < 1e-10


def test_heat_smooth_identity_at_zero():
    n = 128
    th = 2 * math.pi * np.arange(n) / n
    samples = BoundaryMeasureSamples((1.0 + 0.5 * np.cos(th),), (1.0,))
    out = heat_smooth(samples, 0.0)
    assert np.max(np.abs(out.values[0] - samples.values[0])) < 1e-14


def test_heat_smooth_damps_high_modes():
    n = 256
    th = 2 * math.pi * np.arange(n) / n
    samples = BoundaryMeasureSamples((1.0 + np.cos(40 * th),), (1.0,))
    out = heat_smooth(samples, 0.01)
    wiggle = np.max(out.values[0]) - np.min(out.values[0])
    # mode 40 is damped by exp(-40**2 * 0.01)
    assert wiggle < 3e-7
    assert wiggle < 1e-3 * (np.max(samples.values[0]) - np.min(samples.values[0]))


def test_heat_smooth_rejects_negative_eps():
    samples = BoundaryMeasureSamples((np.ones(16),), (1.0,))
    with pytest.raises(ValueError):
        heat_smooth(samples, -1e-3)
