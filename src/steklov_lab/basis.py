"""Harmonic spectral basis on circle domains and the eigensystem matrices.

The trial space is spanned by global harmonic functions with explicit
holomorphic data: the constant, ``Re z^m`` / ``Im z^m`` for the outer circle,
and per hole ``log|z - c_j|`` (carries flux) plus ``Re/Im (r_j/(z - c_j))^m``.
Scaling the hole terms by ``r_j^m`` keeps every trace O(1) on its own circle.

The stiffness matrix is assembled as the boundary integral
``A_ij = cint phi_i  d(phi_j)/d(eta) ds`` which equals the Dirichlet energy
pairing exactly for harmonic functions (Green); the mass matrix and weighted
mean vector come from the same trapezoid quadrature on every circle, which
is spectrally accurate for these analytic integrands.  All k circles are
evaluated in one call and cached as one (size, k, n_quad) trace table; the
normal derivatives from the same pass are used once, for the Dirichlet
block, and dropped.  Each matrix is one product over the k * n_quad
flattened boundary nodes; ``boundary_matrices`` is the one mass assembly
that every eigensolve in ``dtn`` starts from.  The one LAPACK call here is
the Cholesky factor of the Dirichlet block, whose inverse a basis forms on
its first solve and keeps for every later one (``inverse_factor``).
Off the boundary, ``dz_at`` differentiates given coefficient columns
directly, one Horner sum per circle, so no (size, npts) table is built for
interior points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import BoundaryMeasureSamples, CircleDomain, validate

MAX_DEGREE = 64
# rows at which the blocked inverse of the Cholesky factor stops splitting
INV_BLOCK = 64


class DegreeTooLarge(ValueError):
    pass


def _quad_size(M: int) -> int:
    """Quadrature points per circle: >= max(256, 8M), rounded up to a power of two."""
    n = max(256, 8 * M)
    p = 1
    while p < n:
        p *= 2
    return p


class HarmonicBasis:
    """Harmonic trial functions on a circle domain, degree M per boundary circle.

    Element order: constant; (Re z^m, Im z^m) for m = 1..M; then per hole
    log|z-c_j| followed by (Re w^m, Im w^m) with w = r_j/(z-c_j).  Size is
    1 + 2M + holes*(1 + 2M) = k*(2M + 1) for k boundary circles.
    """

    def __init__(self, domain: CircleDomain, M: int):
        if not (1 <= M <= MAX_DEGREE):
            raise DegreeTooLarge(f"degree M={M} outside [1, {MAX_DEGREE}]")
        validate(domain)
        self.domain = domain
        self.M = M
        self.n_quad = _quad_size(M)
        self._traces: np.ndarray | None = None
        self._dirichlet: np.ndarray | None = None
        self._inverse_factor: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.domain.k * (2 * self.M + 1)

    def thetas(self) -> np.ndarray:
        return 2.0 * math.pi * np.arange(self.n_quad) / self.n_quad

    def circle_points(self) -> np.ndarray:
        """Quadrature nodes of every boundary circle, (k, n_quad) complex."""
        c = np.array([0j] + [h.center for h in self.domain.holes])[:, None]
        return c + self.domain.radii()[:, None] * np.exp(1j * self.thetas())

    # -- pointwise evaluation -------------------------------------------------

    def _circle_variables(self, zf: np.ndarray):
        """(z - c_j or None, w, dw/dz) per circle, outer first: w = z, then r_j/(z - c_j)."""
        yield None, zf, 1.0
        for hole in self.domain.holes:
            d = zf - hole.center
            w = hole.radius / d
            yield d, w, -w * w / hole.radius

    def _holomorphic_parts(self, z: np.ndarray, eta: np.ndarray | None = None):
        """Values of all elements at points z, shape (size, len(z)).

        Given one direction eta per point, returns (vals, dn) with dn the real
        derivatives 2 Re(dF/dz * eta) of each element F.  Each circle is one
        cumulative power table: w = z on the outer circle or w = r_j/(z - c_j)
        for hole j, F = w^m and dF/dz = m w^(m-1) dw/dz.
        """
        zf = np.asarray(z, dtype=complex).ravel()
        M = self.M
        vals = np.empty((self.size, zf.size))
        vals[0] = 1.0
        if eta is not None:
            eta = np.ravel(eta)
            dn = np.zeros((self.size, zf.size))
        m = np.arange(1, M + 1)[:, None]
        i = 1
        for d, w, dw in self._circle_variables(zf):
            if d is not None:
                vals[i] = np.log(np.abs(d))
                if eta is not None:
                    dn[i] = 2.0 * (0.5 / d * eta).real
                i += 1
            pw = np.cumprod(np.broadcast_to(w, (M, zf.size)), axis=0)
            vals[i:i + 2 * M:2] = pw.real
            vals[i + 1:i + 2 * M:2] = pw.imag
            if eta is not None:
                # Re F rows take dF/2 = m w^(m-1) dw/2, Im F rows -i dF/2; -i, then
                # eta, then Re is the complex-table formula's order, pinned bitwise
                g = np.empty_like(pw)
                g[0] = 1.0
                g[1:] = pw[:-1]
                g *= 0.5 * m
                g *= dw
                dn[i + 1:i + 2 * M:2] = 2.0 * (g * -1j * eta).real
                g *= eta
                dn[i:i + 2 * M:2] = 2.0 * g.real
            i += 2 * M
        return vals if eta is None else (vals, dn)

    def values_at(self, z: np.ndarray) -> np.ndarray:
        """Element values at arbitrary points, shape (size, npts)."""
        return self._holomorphic_parts(z)

    def dz_at(self, z: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Wirtinger d/dz of the functions whose coefficients are the columns of cols.

        cols is (size, ncols); the result is (ncols, npts) complex, so
        grad u = 2*(Re, -Im) of each row.  On each circle the derivative is
        dw/dz times a polynomial in w whose coefficients come from the Re/Im
        column pairs, summed by Horner's rule; no per-element table is built.
        """
        zf = np.asarray(z, dtype=complex).ravel()
        cols = np.asarray(cols, dtype=float)
        if cols.ndim != 2 or cols.shape[0] != self.size:
            raise ValueError(f"cols must have shape ({self.size}, ncols), got {cols.shape}")
        M = self.M
        half_m = 0.5 * np.arange(1, M + 1)[:, None]
        out = np.zeros((cols.shape[1], zf.size), dtype=complex)
        i = 1
        for d, w, dw in self._circle_variables(zf):
            if d is not None:
                out += cols[i][:, None] * (0.5 / d)
                i += 1
            # d/dz of Re w^m is m w^(m-1) dw/2 and of Im w^m -i times that
            c = half_m * (cols[i:i + 2 * M:2] - 1j * cols[i + 1:i + 2 * M:2])
            acc = np.repeat(c[-1][:, None], zf.size, axis=1)
            for cm in c[-2::-1]:
                acc *= w
                acc += cm[:, None]
            acc *= dw
            out += acc
            i += 2 * M
        return out

    # -- cached boundary tables ------------------------------------------------

    def traces(self) -> np.ndarray:
        """Every element on every circle's quadrature nodes, (size, k, n_quad).

        The first call evaluates all k circles once; their normal derivatives,
        weighted by arc length, go into the Dirichlet block and are dropped.
        """
        if self._traces is None:
            k = self.domain.k
            # outward domain normal: e^(i theta) on the unit circle, minus that on holes
            sign = np.where(np.arange(k) == 0, 1.0, -1.0)
            eta = sign[:, None] * np.exp(1j * self.thetas())
            vals, dn = self._holomorphic_parts(self.circle_points(), eta)
            dn *= np.repeat(self.domain.radii() * (2.0 * math.pi / self.n_quad), self.n_quad)
            A = vals @ dn.T
            self._dirichlet = 0.5 * (A + A.T)
            self._traces = vals.reshape(self.size, k, self.n_quad)
        return self._traces

    def inverse_factor(self) -> np.ndarray:
        """Li = G^-1 for the Cholesky factor G of the non-constant Dirichlet block.

        Formed by ``dirichlet_inverse_factor`` on the first call, which is the
        basis's first solve, and kept for every later one; a basis used only
        for traces never forms it.
        """
        if self._inverse_factor is None:
            self._inverse_factor = dirichlet_inverse_factor(dirichlet_matrix(self))
        return self._inverse_factor


@dataclass(frozen=True)
class EigenSystemMatrices:
    """Stiffness A, weighted boundary mass B, and weighted mean vector m."""

    A: np.ndarray
    B: np.ndarray
    m: np.ndarray


def build_basis(domain: CircleDomain, M: int) -> HarmonicBasis:
    return HarmonicBasis(domain, M)


def dirichlet_matrix(basis: HarmonicBasis) -> np.ndarray:
    """Dirichlet energy Gram matrix via the boundary flux pairing, symmetrized."""
    basis.traces()  # forms the block with the trace table
    return basis._dirichlet


def _lower_inverse(L: np.ndarray) -> np.ndarray:
    """Inverse of a lower triangular L, exactly zero above the diagonal.

    With L = [[L11, 0], [L21, L22]] the inverse is [[Li11, 0], [Li21, Li22]]
    with Li21 = -Li22 L21 Li11, so above ``INV_BLOCK`` rows the work is two
    matrix products per split; ``np.linalg.inv`` of the whole factor runs
    LU on it and is several times slower at n = 484.
    """
    n = L.shape[0]
    if n <= INV_BLOCK:
        return np.tril(np.linalg.inv(L))
    h = n // 2
    Li = np.zeros_like(L)
    Li[:h, :h] = Li11 = _lower_inverse(L[:h, :h])
    Li[h:, h:] = Li22 = _lower_inverse(L[h:, h:])
    Li[h:, :h] = -(Li22 @ L[h:, :h]) @ Li11
    return Li


def dirichlet_inverse_factor(A: np.ndarray) -> np.ndarray:
    """Li = G^-1 with A' = G G^T the Cholesky factor (``potrf``) of A' = A[1:, 1:].

    A is a stiffness matrix whose element 0 is the constant, so A' is its
    positive definite block.  A non-finite entry of A' raises ValueError,
    and a block that is not positive definite LinAlgError.
    """
    Ap = A[1:, 1:]
    if not np.all(np.isfinite(Ap)):
        raise ValueError("Dirichlet or mass block has non-finite entries")
    try:
        return _lower_inverse(np.linalg.cholesky(Ap))
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError("Dirichlet block is not positive definite") from None


def boundary_matrices(
    basis: HarmonicBasis, samples: BoundaryMeasureSamples
) -> EigenSystemMatrices:
    """A, B, m for the weighted Steklov eigensystem A x = sigma B x.

    ``samples`` must sit on the basis quadrature grid (``basis.n_quad``
    points per circle); ``domain.as_samples`` puts any weight there.  The
    measure d(mu) = lambda ds is the table itself times 2 pi / n_quad, and
    B = F F^T with F the trace table P times sqrt(mu).  A non-finite or
    negative weight raises ValueError.
    """
    P = basis.traces().reshape(basis.size, -1)
    w = samples.values.reshape(-1) * (2.0 * math.pi / basis.n_quad)
    if not np.all(np.isfinite(w)):
        raise ValueError("boundary weight has non-finite values")
    if np.any(w < 0.0):
        raise ValueError("boundary weight has negative values")
    F = P * np.sqrt(w)
    # F @ F.T runs as BLAS syrk, so B is exactly symmetric
    return EigenSystemMatrices(A=dirichlet_matrix(basis), B=F @ F.T, m=P @ w)
