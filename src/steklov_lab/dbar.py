"""First-order d-bar boundary value problem on a flat cylinder.

Solves df/dz-bar = k on [-T, T] x S^1 with the boundary condition Re f = 0 on
both ends, where z = t + i*theta and df/dz-bar = (f_t + i f_theta)/2.  After a
Fourier transform in theta the modes decouple into first order ODEs
f_n' - n f_n = 2 k_n, coupled in pairs (n, -n) only through the boundary
condition.  Each mode takes one real global polynomial collocation solve on a
Legendre-Gauss-Lobatto grid, its real and imaginary parts as two right-hand
sides, with the particular solution anchored at the end from which the
homogeneous solution exp(n t) decays; the 2x2 complex boundary systems of all
pairs then give the homogeneous amplitudes at once.  The problem is solvable
iff the double integral of Re k vanishes; the kernel is the pure imaginary
constants, removed by a zero-mean gauge on Im f.

The second half of the module applies the solver: given a scalar field psi on
an annulus-type free boundary minimal surface whose compatibility integral
vanishes, it constructs an ambient conformal vector field Y = Y_tan + psi*nu
with x . Y = 0 on the boundary, and checks the second-variation identity
Q(Y, Y) = S(psi nu, psi nu) connecting the energy and area forms.  The
candidates for psi are one stacked closure (nu1, nu2, nu3, x.nu); every psi
handed out is a fixed linear combination of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spectral1d import diff_matrix, fourier_diff, interp_matrix, lobatto
from .surfaces import ParametricSurface, VariationField, _t_derivative, energy_form_Q, index_form_S

SOLVABILITY_TOL = 1e-8


class Unsolvable(ValueError):
    """The right-hand side violates the mean-value compatibility condition."""


class BoundarySystemSingular(RuntimeError):
    """A mode boundary system was numerically singular (resonance)."""


def _is_pow2(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


@dataclass
class DbarProblem:
    """Right-hand side k on the collocation grid of the cylinder [-T,T] x S^1."""

    T: float
    rhs: np.ndarray  # complex, shape (nt, ntheta)
    symmetry: str = "none"  # "none" | "moebius_odd"
    t_nodes: np.ndarray = field(default=None)
    t_weights: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.T <= 0.0:
            raise ValueError("half-length T must be positive")
        self.rhs = np.asarray(self.rhs, dtype=complex)
        nt, ntheta = self.rhs.shape
        if not (_is_pow2(nt) and _is_pow2(ntheta)):
            raise ValueError("grid sizes must be powers of two")
        if not np.all(np.isfinite(self.rhs)):
            raise ValueError("right-hand side must be finite")
        if self.symmetry not in ("none", "moebius_odd"):
            raise ValueError(f"unknown symmetry {self.symmetry!r}")
        if (self.t_nodes is None) != (self.t_weights is None):
            raise ValueError("give both t_nodes and t_weights, or neither")
        if self.t_nodes is None:
            self.t_nodes, self.t_weights = lobatto(nt, -self.T, self.T)
        t = self.t_nodes = np.asarray(self.t_nodes, dtype=float)
        self.t_weights = np.asarray(self.t_weights, dtype=float)
        if t.shape != (nt,) or self.t_weights.shape != (nt,):
            raise ValueError(f"t_nodes and t_weights must have length nt = {nt}")
        tol = 1e-12 * self.T
        if abs(t[0] + self.T) > tol or abs(t[-1] - self.T) > tol:
            raise ValueError("collocation grid must run from -T to T")
        if not np.allclose(t, -t[::-1], rtol=0.0, atol=tol):
            raise ValueError("collocation grid must be symmetric about t = 0")

    @property
    def thetas(self) -> np.ndarray:
        ntheta = self.rhs.shape[1]
        return 2.0 * math.pi * np.arange(ntheta) / ntheta


def cylinder_problem(T, rhs, nt=128, ntheta=128, symmetry="none") -> DbarProblem:
    """Build a DbarProblem by sampling a closure rhs(t, theta) on the grid.

    rhs sees the open grid (t a column, theta a row); the result is broadcast
    to (nt, ntheta), so a closure that ignores theta still fills the grid.
    """
    t, w = lobatto(nt, -T, T)
    th = 2.0 * math.pi * np.arange(ntheta) / ntheta
    k = np.empty((nt, ntheta), dtype=complex)
    k[...] = rhs(t[:, None], th[None, :])
    return DbarProblem(T=T, rhs=k, symmetry=symmetry, t_nodes=t, t_weights=w)


@dataclass
class DbarSolution:
    """Solution f = u + iv on the grid, plus its Fourier modes in theta.

    ``modes[:, n]`` holds f_n(t) at the Lobatto nodes in numpy FFT frequency
    order.  ``evaluate`` interpolates to arbitrary broadcastable (t, theta):
    one barycentric row per distinct t, the phases exp(i n theta) on theta's
    own shape, and one contraction over n.  On an open grid (t as a column,
    theta as a row) neither factor is formed per point.
    """

    T: float
    t_nodes: np.ndarray
    thetas: np.ndarray
    values: np.ndarray  # complex (nt, ntheta)
    modes: np.ndarray  # complex (nt, ntheta)
    solvability_residual: float
    tail_truncation: float
    conditioning: float
    symmetry: str = "none"
    symmetry_defect: float = 0.0

    def evaluate(self, t, theta) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        theta = np.asarray(theta, dtype=float)
        uniq, inv = np.unique(t, return_inverse=True)
        modes_at = (interp_matrix(self.t_nodes, uniq) @ self.modes)[inv.reshape(t.shape)]
        ntheta = self.modes.shape[1]
        phases = np.exp(1j * theta[..., None] * np.fft.fftfreq(ntheta, d=1.0 / ntheta))
        return np.einsum("...n,...n->...", modes_at, phases, optimize=True)

    def boundary_re_max(self) -> float:
        return float(max(np.max(np.abs(self.values[0].real)),
                         np.max(np.abs(self.values[-1].real))))


def dbar_apply(values: np.ndarray, t_nodes: np.ndarray) -> np.ndarray:
    """Discrete d-bar operator (f_t + i f_theta)/2 on the collocation grid."""
    D = diff_matrix(t_nodes)
    ft = D @ values
    fth = fourier_diff(np.asarray(values, dtype=complex), axis=1)
    return 0.5 * (ft + 1j * fth)


def dbar_residual(solution: DbarSolution, problem: DbarProblem) -> float:
    """Sup-norm PDE residual of a solution against its right-hand side."""
    r = dbar_apply(solution.values, solution.t_nodes) - problem.rhs
    return float(np.max(np.abs(r)))


def solve_dbar(problem: DbarProblem) -> DbarSolution:
    """Solve the cylinder d-bar problem; see the module docstring.

    One real collocation solve per mode, anchored at the decaying end, then
    the boundary amplitudes of all pairs (n, -n) at once.  Raises Unsolvable
    when |integral of Re k| exceeds SOLVABILITY_TOL times the L1 norm of k,
    and BoundarySystemSingular, before any solve, if a pair system is
    resonant (T near 0).
    """
    T = problem.T
    t = problem.t_nodes
    w = problem.t_weights
    nt, ntheta = problem.rhs.shape

    khat = np.fft.fft(problem.rhs, axis=1) / ntheta  # k_n(t_i)
    dtheta_mass = 2.0 * math.pi

    # Fredholm compatibility: the n = 0 mode carries the full obstruction
    integral_re_k = dtheta_mass * float(w @ khat[:, 0].real)
    l1 = dtheta_mass / ntheta * float(np.sum(w @ np.abs(problem.rhs)))
    if abs(integral_re_k) > SOLVABILITY_TOL * max(l1, 1e-300):
        raise Unsolvable(
            f"mean of Re k is {integral_re_k:.3e} (|k|_L1 = {l1:.3e}); "
            "the problem has no solution with Re f = 0 on the boundary"
        )

    # boundary systems of the pairs (n, -n), 1 <= n < ntheta/2
    n = np.arange(1, ntheta // 2)
    # math.exp: numpy's vectorized exp may differ in the last bit, and q sets
    # the reported conditioning
    q = np.array([math.exp(-2.0 * m * T) for m in n])
    det = 1.0 - q * q
    resonant = n[np.abs(det) < 1e-14]
    if resonant.size:
        raise BoundarySystemSingular(f"mode pair n = {resonant[0]} is resonant")

    # particular solutions; (Re, Im) of column j is g[:, j] and re_im[:, j]
    D = diff_matrix(t)
    eye = np.eye(nt)
    freqs = np.fft.fftfreq(ntheta, d=1.0 / ntheta)
    g = 2.0 * khat.view(float).reshape(nt, ntheta, 2)
    fhat = np.zeros_like(khat)
    re_im = fhat.view(float).reshape(nt, ntheta, 2)
    for j, fn in enumerate(freqs):
        if j == ntheta // 2:
            continue  # Nyquist column: no conjugate partner on the grid, left 0
        anchor = -1 if fn > 0 else 0
        A = D - fn * eye
        A[anchor] = eye[anchor]
        b = g[:, j].copy()
        b[anchor] = 0.0
        re_im[:, j] = np.linalg.solve(A, b)

    # n = 0: Re f0(+-T) = 0 by a linear ramp carrying the (sub-tolerance)
    # compatibility defect, Im f0 gauged to zero mean
    re_im[:, 0, 0] -= re_im[-1, 0, 0] * (t + T) / (2.0 * T)
    re_im[:, 0, 1] -= float(w @ re_im[:, 0, 1]) / (2.0 * T)

    # homogeneous parts A exp(n (t - T)) on +n and conj(B) exp(-n (t + T)) on -n
    r1 = -np.conj(fhat[-1, ntheta - n])  # boundary condition at t = +T
    r2 = -fhat[0, n]  # boundary condition at t = -T
    fhat[:, n] += (r1 - q * r2) / det * np.exp(n * (t[:, None] - T))
    fhat[:, ntheta - n] += np.conj((r2 - q * r1) / det) * np.exp(-n * (t[:, None] + T))

    defect = 0.0
    if problem.symmetry == "moebius_odd":
        # project onto f(-t, theta+pi) = -conj(f(t, theta)):
        # mode-wise f_n(t) <- (f_n(t) - (-1)^n conj(f_{-n}(-t))) / 2
        signs = np.where(np.arange(ntheta) % 2 == 0, 1.0, -1.0)
        partner = np.conj(fhat[::-1, (-np.arange(ntheta)) % ntheta])
        projected = 0.5 * (fhat - signs[None, :] * partner)
        defect = float(np.max(np.abs(projected - fhat)))
        fhat = projected
        # re-apply the gauge after projection
        fhat[:, 0] -= 1j * float(w @ fhat[:, 0].imag) / (2.0 * T)

    values = np.fft.ifft(fhat, axis=1) * ntheta
    return DbarSolution(
        T=T, t_nodes=t, thetas=problem.thetas,
        values=values, modes=fhat,
        solvability_residual=abs(integral_re_k),
        tail_truncation=float(np.max(np.abs(khat[:, ntheta // 2]))),
        conditioning=float(np.max((1.0 + q) / det, initial=1.0)),
        symmetry=problem.symmetry,
        symmetry_defect=defect,
    )


# -- conformal variation fields on annulus-type surfaces ----------------------


@dataclass
class ConformalFieldSpace:
    """Candidate normal components for conformal fields and their constraint.

    ``candidates`` is one closure (t, theta) -> (..., m) returning every raw
    candidate; candidate a scaled by ``scale[a]`` (its inverse L2 norm, or 0
    for a degenerate one) is ``psis[a]``.  ``constraint`` is the row of their
    compatibility integrals; ``kernel`` holds coefficient columns spanning the
    admissible subspace (constraint below threshold); ``gram`` is the L2 Gram
    matrix of the raw candidates over the surface.
    """

    labels: list
    candidates: callable
    scale: np.ndarray
    gram: np.ndarray
    gram_eigenvalues: np.ndarray
    constraint: np.ndarray
    kernel: np.ndarray
    dim_C: int
    dim_C1: int

    def _combination(self, coeffs):
        """The scalar closure sum_a coeffs[a] * psis[a]."""
        c = self.scale * coeffs
        return lambda t, theta: self.candidates(t, theta) @ c

    @property
    def psis(self) -> list:
        return [self._combination(e) for e in np.eye(len(self.labels))]

    def kernel_psi(self, column: int):
        return self._combination(self.kernel[:, column])

    def kernel_psis(self) -> list:
        return [self.kernel_psi(j) for j in range(self.dim_C1)]


def _shape_weight(surface: ParametricSurface, t, theta):
    """(phi_tt.nu + i phi_ttheta.nu) / |phi_t|^2, the d-bar datum per unit psi."""
    nu = surface.unit_normal(t, theta)
    lam2 = np.sum(surface.phi_t(t, theta) ** 2, axis=-1)
    h11 = np.sum(surface.phi_tt(t, theta) * nu, axis=-1)
    h12 = np.sum(surface.phi_ttheta(t, theta) * nu, axis=-1)
    return (h11 + 1j * h12) / lam2


def _compat_rhs(surface: ParametricSurface, psi):
    """Closure for k = psi (phi_tt.nu + i phi_ttheta.nu) / |phi_t|^2."""
    return lambda t, theta: psi(t, theta) * _shape_weight(surface, t, theta)


def compatibility_integral(surface: ParametricSurface, psi) -> float:
    """Integral of Re k over the parameter cylinder (the solvability pairing)."""
    _, wt, _, wth = surface.nodes()
    k = surface.sample(_compat_rhs(surface, psi))
    return float(wt @ np.sum(k.real, axis=1)) * wth


def _complement(unit: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the complement of a unit vector.

    One Householder reflection H maps unit to -sign(unit[k]) e_k, k its
    largest entry; the other columns of H span the complement and move
    continuously with unit.
    """
    k = int(np.argmax(np.abs(unit)))
    v = unit.copy()
    v[k] += math.copysign(1.0, unit[k])
    H = np.eye(len(unit)) - (2.0 / (v @ v)) * np.outer(v, v)
    return np.delete(H, k, axis=1)


def conformal_field_space(surface: ParametricSurface, svd_tol: float = 1e-8) -> ConformalFieldSpace:
    """Normal-component candidates {nu.e_i} and x.nu with their admissibility.

    Each candidate is normalized to unit L2 norm over the surface (degenerate
    candidates are kept with zero normalization and excluded from the count
    dim_C).  The kernel of the 1 x m constraint row below ``svd_tol`` spans
    the normal components for which build_conformal_variation is solvable.
    Gram matrix and constraint row each come from one quadrature of the
    sampled candidate table, since both are (bi)linear in the candidates.
    """
    if surface.n != 3:
        raise ValueError("conformal field candidates implemented for n = 3")

    def candidates(t, theta):
        nu = surface.unit_normal(t, theta)
        x_nu = np.sum(surface.phi(t, theta) * nu, axis=-1, keepdims=True)
        return np.concatenate([nu, x_nu], axis=-1)

    labels = ["nu1", "nu2", "nu3", "x.nu"]
    _, wt, _, wth = surface.nodes()
    table = surface.sample(candidates)
    weights = wt[:, None] * wth  # dt dtheta quadrature weights on the grid
    area_weights = surface.quotient_factor * weights * surface.conformal_factor_sq()
    gram = np.einsum("ij,ija,ijb->ab", area_weights, table, table, optimize=True)
    norms = np.sqrt(np.maximum(np.diag(gram), 0.0))
    live = norms > 1e-12
    scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=live)

    evals = np.linalg.eigvalsh(scale[:, None] * gram * scale[None, :])
    dim_C = int(np.sum(evals > 1e-8))

    # Re k = psi h11 / |phi_t|^2 is linear in psi: one integral gives the row
    re_k = surface.sample(lambda t, theta: _shape_weight(surface, t, theta).real)
    constraint = scale * np.einsum("ij,ija->a", weights * re_k, table, optimize=True)
    row_norm = np.linalg.norm(constraint)
    if row_norm <= svd_tol:
        kernel = np.eye(len(labels))
    else:
        kernel = _complement(constraint / row_norm)
    # drop kernel directions supported on degenerate (zero) candidates
    kernel = kernel[:, np.linalg.norm(kernel[live], axis=0) > 1e-12]

    return ConformalFieldSpace(
        labels=labels, candidates=candidates, scale=scale, gram=gram,
        gram_eigenvalues=evals, constraint=constraint,
        kernel=kernel, dim_C=dim_C, dim_C1=kernel.shape[1],
    )


@dataclass
class ConformalVariation:
    """Conformal field Y = u phi_t + v phi_theta + psi nu with certificates."""

    Y: VariationField
    psi: object
    solution: DbarSolution
    residual_diag: float
    residual_offdiag: float
    boundary_tangency: float


def build_conformal_variation(
    surface: ParametricSurface, psi, *, nt=128, ntheta=128,
) -> ConformalVariation:
    """Solve for the tangential part making Y = Y_tan + psi*nu conformal.

    psi must satisfy the compatibility condition (use conformal_field_space);
    Unsolvable propagates otherwise.  The returned field satisfies x . Y = 0
    along the boundary because Re f = 0 there, and carries the sup-norm
    conformality residuals measured on the surface grid.
    """
    problem = cylinder_problem(surface.T, _compat_rhs(surface, psi), nt=nt, ntheta=ntheta)
    sol = solve_dbar(problem)

    def Y_fn(t, theta):
        f = sol.evaluate(t, theta)
        u = f.real[..., None]
        v = f.imag[..., None]
        out = u * surface.phi_t(t, theta) + v * surface.phi_theta(t, theta)
        return out + np.asarray(psi(t, theta))[..., None] * surface.unit_normal(t, theta)

    Y = VariationField(Y_fn, kind="general")

    # conformality certificate on the surface tensor grid
    Yg = surface.sample(Y_fn)
    Yt = _t_derivative(surface, Yg)
    Yth = fourier_diff(Yg, axis=1)
    pt, pth = surface.first_derivatives()
    lam2 = surface.conformal_factor_sq()
    diag = np.abs(np.sum(Yt * pt, axis=-1) - np.sum(Yth * pth, axis=-1)) / lam2
    off = np.abs(np.sum(Yt * pth, axis=-1) + np.sum(Yth * pt, axis=-1)) / lam2

    tangency = 0.0
    for tb, _sign in surface.boundaries():
        x = surface.sample_circle(surface.phi, tb)
        Yb = surface.sample_circle(Y_fn, tb)
        tangency = max(tangency, float(np.max(np.abs(np.sum(x * Yb, axis=-1)))))

    return ConformalVariation(
        Y=Y, psi=psi, solution=sol,
        residual_diag=float(np.max(diag)),
        residual_offdiag=float(np.max(off)),
        boundary_tangency=tangency,
    )


@dataclass(frozen=True)
class AreaEnergyReport:
    q_value: float
    s_value: float
    residual: float


def verify_area_energy(surface: ParametricSurface, psi, Y) -> AreaEnergyReport:
    """Relative defect of Q(Y, Y) = S(psi nu, psi nu) for a conformal Y."""
    q = energy_form_Q(surface, Y, Y)

    def W(t, theta):
        return np.asarray(psi(t, theta))[..., None] * surface.unit_normal(t, theta)

    s = index_form_S(surface, VariationField(W, kind="normal"))
    return AreaEnergyReport(q_value=q, s_value=s, residual=abs(q - s) / (1.0 + abs(s)))
