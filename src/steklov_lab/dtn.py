"""Weighted Steklov spectra on circle domains by Rayleigh-Ritz.

``steklov_spectrum`` solves the generalized symmetric problem
``A x = sigma B x`` on the complement of the constant with zero weighted
boundary mean: the weighted mean is subtracted from the mass block of the
non-constant elements (which deflates the constant exactly), and the
eigenvalues 1 / sigma of that block against their Dirichlet block are
computed by one solve, ``solve_eigensystem``.  Every request assembles the
mass matrix once (``boundary_matrices``) and takes every eigenpair by one
Cholesky reduction to a standard symmetric problem on ``numpy.linalg``
(the steps of LAPACK ``sygvd``, with the inverse of the factor built from
matrix products); a request for the first ``n_eigs`` values keeps the first
columns of that solve.  The Dirichlet block is the basis's own, so its
factor is too: a basis forms the inverse factor on its first solve and
every later solve on it reuses it (``HarmonicBasis.inverse_factor``).  No
run loads scipy: every kernel here runs on numpy's OpenBLAS, which
``_blas`` pinned.

sigma_0 = 0 is returned with the constant eigenvector.  All returned
eigenvalues are Rayleigh-Ritz upper bounds of the true Steklov eigenvalues
and decrease as the degree M grows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import HarmonicBasis, boundary_matrices, build_basis, dirichlet_inverse_factor
from .domain import CircleDomain, as_samples

CLUSTER_TOL = 1e-6


class MassMatrixDegenerate(ValueError):
    pass


class IndexOutOfRange(IndexError):
    pass


@dataclass
class SteklovSpectrum:
    """Discrete Steklov spectrum with eigenvectors in full basis coordinates.

    eigenvalues[0] is exactly 0 (constants).  Columns of ``eigenvectors`` are
    B-orthonormal and have zero weighted boundary mean.  ``clusters`` groups
    indices whose relative gap is below the clustering tolerance.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    clusters: list[list[int]]
    boundary_length: float
    metadata: dict = field(default_factory=dict)

    @property
    def sigma1(self) -> float:
        return float(self.eigenvalues[1])

    @property
    def sigma1_L(self) -> float:
        return self.sigma1 * self.boundary_length

    def cluster_of(self, i: int) -> list[int]:
        if not (0 <= i < len(self.eigenvalues)):
            raise IndexOutOfRange(f"eigenvalue index {i} out of range")
        for c in self.clusters:
            if i in c:
                return c
        raise IndexOutOfRange(f"index {i} not clustered")  # pragma: no cover

    def multiplicity(self, i: int) -> int:
        return len(self.cluster_of(i))


def _cluster(vals: np.ndarray, tol: float) -> list[list[int]]:
    """Runs of consecutive indices whose gaps are at most tol * max(1, |sigma|)."""
    if not vals.size:
        return []
    joined = np.diff(vals) <= tol * np.maximum(1.0, np.abs(vals[1:]))
    cuts = [0, *(np.flatnonzero(~joined) + 1).tolist(), vals.size]
    idx = list(range(vals.size))
    return [idx[a:b] for a, b in zip(cuts, cuts[1:])]


def steklov_spectrum(
    domain: CircleDomain,
    density,
    M: int = 16,
    n_eigs: int | None = None,
    *,
    basis: HarmonicBasis | None = None,
    cluster_tol: float = CLUSTER_TOL,
) -> SteklovSpectrum:
    """First ``n_eigs`` weighted Steklov eigenvalues (sigma_0 = 0 included).

    ``density`` is a BoundaryDensity or BoundaryMeasureSamples; a given
    ``basis`` must be built on ``domain``.  Every request solves the whole
    spectrum, and ``n_eigs`` keeps its first values; below 1 it raises
    ValueError.
    """
    _check_n_eigs(n_eigs)
    if basis is None:
        basis = build_basis(domain, M)
    elif basis.domain != domain:
        raise ValueError("basis was built on another domain")
    samples = as_samples(domain, density, basis.n_quad)
    sys_ = boundary_matrices(basis, samples)
    return solve_eigensystem(
        sys_.A, sys_.B, sys_.m, n_eigs, Li=basis.inverse_factor(),
        cluster_tol=cluster_tol, metadata={"M": basis.M, "n_quad": basis.n_quad},
    )


def _check_n_eigs(n_eigs: int | None) -> None:
    if n_eigs is not None and n_eigs < 1:
        raise ValueError(f"n_eigs must be at least 1 (sigma_0 counts), got {n_eigs}")


def solve_eigensystem(
    A: np.ndarray,
    B: np.ndarray,
    m: np.ndarray,
    n_eigs: int | None = None,
    *,
    Li: np.ndarray | None = None,
    cluster_tol: float = CLUSTER_TOL,
    metadata: dict | None = None,
) -> SteklovSpectrum:
    """Solve A x = sigma B x with constant deflation; element 0 must be the constant.

    Because element 0 is the constant, A[0] = 0 and B[0] = m.  With L = m[0]
    and primes marking the non-constant block, the problem on {m . x = 0} is
    A' x' = sigma S x' with S = B' - m' m'^T / L.  A' is positive definite,
    so it is solved as S z = mu A' z with sigma = 1 / mu: A' = G G^T
    (``potrf``) and Li = G^-1, the eigenpairs (mu, y) of the symmetrized
    C = Li S Li^T (``syevd``, as inside ``sygvd``) and z = Li^T y, so
    z^T A' z = 1 and x' = z / sqrt(mu) is B-orthonormal.  ``Li`` is that
    inverse factor of this A' from the caller: ``steklov_spectrum`` passes
    its basis's ``inverse_factor()``, formed on the basis's first solve.
    Called with A alone, the solve forms Li by the same
    ``dirichlet_inverse_factor``.  Directions with
    mu <= (n - 1) eps mu_max carry no boundary mass and are dropped:
    ``dropped`` counts them and ``rank`` the kept ones plus sigma_0, over
    the whole solve.  ``n_eigs`` keeps the first n_eigs values and columns
    of that solve.  A Dirichlet block that is not positive definite raises
    LinAlgError, and a non-finite entry of A' or B' or an ``n_eigs`` below
    1 raises ValueError; A' is checked where its factor is formed.
    """
    _check_n_eigs(n_eigs)

    n = A.shape[0]
    L_total = float(m[0])  # m against the constant element is the weighted length
    if not L_total > 0.0:
        raise MassMatrixDegenerate(f"weighted boundary length {L_total} is not positive")

    mp = m[1:]
    S = B[1:, 1:] - np.outer(mp, mp) / L_total
    if not np.all(np.isfinite(S)):
        raise ValueError("Dirichlet or mass block has non-finite entries")
    if Li is None:
        Li = dirichlet_inverse_factor(A)
    # the two triangles of C = Li S Li^T round differently and eigh reads one
    C = Li @ S @ Li.T
    mu, Y = np.linalg.eigh(0.5 * (C + C.T))
    mu, Y = mu[::-1], Y[:, ::-1]
    kept = int(np.count_nonzero(mu > (n - 1) * np.finfo(float).eps * abs(mu[0])))
    mu = mu[:kept]
    X = (Li.T @ Y[:, :kept]) / np.sqrt(mu)
    # sigma_0 = 0 with the constant, then sigma = 1 / mu with the columns
    vals = np.concatenate(([0.0], 1.0 / mu))
    vecs = np.zeros((n, vals.size))
    vecs[0, 0] = 1.0 / np.sqrt(L_total)
    vecs[0, 1:] = -(mp @ X) / L_total
    vecs[1:, 1:] = X
    vals, vecs = vals[:n_eigs], vecs[:, :n_eigs]
    md = dict(metadata or {})
    md.update({"dropped": n - 1 - kept, "rank": kept + 1})
    return SteklovSpectrum(
        eigenvalues=vals,
        eigenvectors=vecs,
        clusters=_cluster(vals, cluster_tol),
        boundary_length=L_total,
        metadata=md,
    )


def coarse_bound(gamma: int, k: int) -> float:
    """Upper bound for sigma_1 * L on genus gamma with k boundary components."""
    if gamma < 0 or k < 1:
        raise ValueError("need gamma >= 0 and k >= 1")
    return min(2.0 * (gamma + k) * np.pi, 8.0 * np.pi * ((gamma + 3) // 2))


def multiplicity_bound(i: int, gamma: int, orientable: bool = True) -> int:
    """Bound for the multiplicity of sigma_i.

    For orientable surfaces of genus gamma the bound is 4*gamma + 2i + 1.  For
    non-orientable ones pass the genus of the orientable double cover as gamma
    (i.e. 1 - chi - k); the bound is then 4*gamma + 4i + 3.
    """
    if i < 1:
        raise ValueError("multiplicity bounds apply to i >= 1")
    if orientable:
        return 4 * gamma + 2 * i + 1
    return 4 * gamma + 4 * i + 3


def multiplicity_check(
    spectrum, i: int, gamma: int, orientable: bool = True,
) -> tuple[int, int, bool]:
    """(multiplicity of sigma_i, bound, within_bound) for a computed spectrum.

    Accepts a SteklovSpectrum, a ClosedFormSpectrum, or a plain sequence of
    eigenvalues in nondecreasing order (sigma_0 first); the latter two are
    clustered at CLUSTER_TOL.
    """
    if hasattr(spectrum, "cluster_of"):
        mult = spectrum.multiplicity(i)
    else:
        vals = np.asarray(
            spectrum.eigenvalues if hasattr(spectrum, "eigenvalues") else spectrum,
            dtype=float,
        )
        if not (0 <= i < len(vals)):
            raise IndexOutOfRange(f"eigenvalue index {i} out of range")
        clusters = _cluster(vals, CLUSTER_TOL)
        mult = next(len(c) for c in clusters if i in c)
    bound = multiplicity_bound(i, gamma, orientable)
    return mult, bound, mult <= bound
