import numpy as np
import pytest

from steklov_lab.spectral1d import (
    barycentric_weights,
    diff_matrix,
    gauss_legendre,
    interp_matrix,
    _lobatto_reference,
    lobatto,
)


def _diff_matrix_loop(x):
    b = barycentric_weights(x)
    n = len(x)
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                D[i, j] = (b[j] / b[i]) / (x[i] - x[j])
    np.fill_diagonal(D, -np.sum(D, axis=1))
    return D


def _interp_matrix_loop(x, xq):
    b = barycentric_weights(x)
    P = np.zeros((len(xq), len(x)))
    for q, t in enumerate(xq):
        hit = np.flatnonzero(np.isclose(t, x, rtol=0.0, atol=1e-14))
        if hit.size:
            P[q, hit[0]] = 1.0
            continue
        terms = b / (t - x)
        P[q] = terms / np.sum(terms)
    return P


@pytest.mark.parametrize("n", [2, 5, 16, 33, 64, 128])
@pytest.mark.parametrize("nodes", [lobatto, gauss_legendre])
def test_vectorized_matrices_equal_loop_reference(n, nodes):
    x = nodes(n, -0.7, 1.3)[0]
    rng = np.random.default_rng(n)
    # off-node queries, exact node hits and hits within the 1e-14 snap
    xq = np.concatenate([rng.uniform(-0.8, 1.4, 25), x[::3], x[:2] + 5e-15])
    assert np.array_equal(diff_matrix(x), _diff_matrix_loop(x))
    assert np.array_equal(interp_matrix(x, xq), _interp_matrix_loop(x, xq))


def test_interp_matrix_reproduces_polynomials():
    x = lobatto(12, 0.0, 2.0)[0]
    xq = np.array([0.0, 0.37, 1.5, 2.0])
    P = interp_matrix(x, xq)
    assert np.max(np.abs(P @ x**5 - xq**5)) < 1e-12
    assert np.max(np.abs(diff_matrix(x) @ x**5 - 5 * x**4)) < 1e-9


def _lobatto_direct(n, a, b):
    """Reference: the roots and weights recomputed from scratch on every call."""
    interior = np.polynomial.Legendre.basis(n - 1).deriv().roots()
    x = np.concatenate(([-1.0], np.real(interior), [1.0]))
    w = 2.0 / (n * (n - 1) * np.polynomial.Legendre.basis(n - 1)(x) ** 2)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


@pytest.mark.parametrize("n", [2, 3, 16, 64, 128])
def test_lobatto_scales_one_cached_reference(n):
    x, w = _lobatto_reference(n)
    assert _lobatto_reference(n)[0] is x
    assert not x.flags.writeable and not w.flags.writeable
    for a, b in [(-1.0, 1.0), (-0.37, 0.37), (-2.5, 2.5), (0.0, 1.3)]:
        t, wt = lobatto(n, a, b)
        rt, rw = _lobatto_direct(n, a, b)
        assert t.tobytes() == rt.tobytes() and wt.tobytes() == rw.tobytes()
        assert t.flags.writeable and wt.flags.writeable
    with pytest.raises(ValueError):
        lobatto(1, -1.0, 1.0)
