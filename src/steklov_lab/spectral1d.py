"""One-dimensional pseudospectral building blocks.

Gauss-Legendre and Legendre-Gauss-Lobatto nodes, barycentric interpolation,
and collocation differentiation matrices, all deterministic.  Used for the
nonperiodic coordinate of cylinder parametrizations; the periodic coordinate
is always handled by equispaced grids and FFTs.
"""

from __future__ import annotations

import functools

import numpy as np


def gauss_legendre(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


@functools.cache
def _lobatto_reference(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Lobatto nodes and weights on [-1, 1], read-only and computed once per n.

    Interior nodes are the roots of P'_{n-1} (a companion-matrix eigensolve);
    weights use the standard closed form 2 / (n (n-1) P_{n-1}(x)^2).
    """
    interior = np.polynomial.Legendre.basis(n - 1).deriv().roots()
    x = np.concatenate(([-1.0], np.real(interior), [1.0]))
    Pn1 = np.polynomial.Legendre.basis(n - 1)(x)
    w = 2.0 / (n * (n - 1) * Pn1**2)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def lobatto(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Legendre-Gauss-Lobatto nodes and weights on [a, b] (n >= 2 points)."""
    if n < 2:
        raise ValueError("need at least two Lobatto points")
    x, w = _lobatto_reference(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def barycentric_weights(x: np.ndarray) -> np.ndarray:
    """Barycentric weights of distinct nodes, normalized to unit max.

    Computed through log-magnitudes so that n ~ 100 node sets do not overflow.
    """
    x = np.asarray(x, dtype=float)
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    logs = -np.sum(np.log(np.abs(diff)), axis=1)
    signs = np.prod(np.sign(diff), axis=1)
    b = signs * np.exp(logs - np.max(logs))
    return b


def diff_matrix(x: np.ndarray) -> np.ndarray:
    """Polynomial collocation differentiation matrix on arbitrary nodes."""
    x = np.asarray(x, dtype=float)
    b = barycentric_weights(x)
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, np.inf)  # diagonal entries of the quotient are 0
    D = (b[None, :] / b[:, None]) / diff
    # negative-sum trick keeps row sums exactly zero
    np.fill_diagonal(D, -np.sum(D, axis=1))
    return D


def interp_matrix(x: np.ndarray, xq: np.ndarray) -> np.ndarray:
    """Barycentric interpolation matrix from nodes x to query points xq."""
    x = np.asarray(x, dtype=float)
    xq = np.atleast_1d(np.asarray(xq, dtype=float))
    b = barycentric_weights(x)
    diff = xq[:, None] - x[None, :]
    hit = np.abs(diff) <= 1e-14
    terms = b / np.where(hit, 1.0, diff)
    P = terms / np.sum(terms, axis=1, keepdims=True)
    # a query on a node takes that node's value exactly
    on_node = np.flatnonzero(hit.any(axis=1))
    P[on_node] = 0.0
    P[on_node, np.argmax(hit[on_node], axis=1)] = 1.0
    return P


def fourier_diff(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Spectral derivative along an equispaced periodic axis of period 2*pi."""
    n = values.shape[axis]
    freq = np.fft.fftfreq(n, d=1.0 / n)
    coeff = np.fft.fft(values, axis=axis)
    shape = [1] * values.ndim
    shape[axis] = n
    coeff *= (1j * freq).reshape(shape)
    out = np.fft.ifft(coeff, axis=axis)
    return out.real if np.isrealobj(values) else out
