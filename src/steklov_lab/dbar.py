"""First-order d-bar boundary value problem on a flat cylinder.

Solves df/dz-bar = k on [-T, T] x S^1 with the boundary condition Re f = 0 on
both ends, where z = t + i*theta and df/dz-bar = (f_t + i f_theta)/2.  After a
Fourier transform in theta the modes decouple into first order ODEs
f_n' - n f_n = 2 k_n, coupled in pairs (n, -n) only through the boundary
condition.  The particular solution of mode n is a real global polynomial
collocation solve on a Legendre-Gauss-Lobatto grid, anchored at the end from
which the homogeneous solution exp(n t) decays: t = T for n > 0, t = -T for
n <= 0.  The grid is symmetric, and the flip t -> -t maps the system of -n
onto that of n, so one factorization per |n| serves both modes, with the real
and imaginary parts of each as right-hand sides.  (On nodes symmetric only to
DbarProblem's tolerance, the modes n <= 0 are thus solved on the mirror of
the grid.)  The 2x2 complex boundary systems of all pairs then give the
homogeneous amplitudes at once.  The problem is solvable iff the double
integral of Re k vanishes; the kernel is the pure imaginary constants,
removed by a zero-mean gauge on Im f.

The second half of the module applies the solver: given a scalar field psi on
an annulus-type free boundary minimal surface whose compatibility integral
vanishes, it constructs an ambient conformal vector field Y = Y_tan + psi*nu
with x . Y = 0 on the boundary, and checks the second-variation identity
Q(Y, Y) = S(psi nu, psi nu) connecting the energy and area forms.  The
candidates for psi are one stacked closure (nu1, nu2, nu3, x.nu), whose
table is built once per grid and kept on the surface; every psi handed out
is a fixed linear combination of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral1d import diff_matrix, fourier_diff, interp_matrix, lobatto
from .surfaces import ParametricSurface, VariationField, coord_dot, energy_form_Q, index_form_S

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
    t_nodes: np.ndarray | None = None
    t_weights: np.ndarray | None = None

    def __post_init__(self):
        if not self.T > 0.0:
            raise ValueError("half-length T must be positive")
        self.rhs = np.asarray(self.rhs, dtype=complex)
        nt, ntheta = self.rhs.shape
        if not (_is_pow2(nt) and _is_pow2(ntheta)):
            raise ValueError("grid sizes must be powers of two")
        if not np.all(np.isfinite(self.rhs)):
            raise ValueError("right-hand side must be finite")
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


def cylinder_problem(T, rhs, nt=128, ntheta=128) -> DbarProblem:
    """Build a DbarProblem by sampling a closure rhs(t, theta) on the grid.

    rhs sees the open grid (t a column, theta a row); the result is broadcast
    to (nt, ntheta), so a closure that ignores theta still fills the grid.
    T must be positive; that is checked before rhs is called.
    """
    if not T > 0.0:
        raise ValueError("half-length T must be positive")
    t, w = lobatto(nt, -T, T)
    th = 2.0 * math.pi * np.arange(ntheta) / ntheta
    k = np.empty((nt, ntheta), dtype=complex)
    k[...] = rhs(t[:, None], th[None, :])
    return DbarProblem(T=T, rhs=k, t_nodes=t, t_weights=w)


@dataclass
class DbarSolution:
    """Solution f = u + iv on the grid, plus its Fourier modes in theta.

    ``modes[:, n]`` holds f_n(t) at the Lobatto nodes in numpy FFT frequency
    order.  ``evaluate`` interpolates to arbitrary broadcastable (t, theta):
    one barycentric row per distinct t, the phases exp(i n theta) on theta's
    own shape, and one contraction over n.  The program evaluates it only on
    open grids (t as a column, theta as a row), where neither factor is
    formed per point.  The contraction sums over n in an order that depends
    on how the inputs broadcast, so open and full inputs for the same points
    can differ in the last bits.
    """

    T: float
    t_nodes: np.ndarray
    thetas: np.ndarray
    values: np.ndarray  # complex (nt, ntheta)
    modes: np.ndarray  # complex (nt, ntheta)
    solvability_residual: float
    tail_truncation: float
    conditioning: float

    def evaluate(self, t, theta) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        theta = np.asarray(theta, dtype=float)
        uniq, inv = np.unique(t, return_inverse=True)
        modes_at = (interp_matrix(self.t_nodes, uniq) @ self.modes)[inv.reshape(t.shape)]
        ntheta = self.modes.shape[1]
        phases = np.exp(1j * theta[..., None] * np.fft.fftfreq(ntheta, d=1.0 / ntheta))
        return np.einsum("...n,...n->...", modes_at, phases, optimize=True)


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

    One real collocation factorization per |n|, shared by the modes n and -n
    through the grid's flip, each anchored at its decaying end; then the
    boundary amplitudes of all pairs (n, -n) at once.  Raises Unsolvable
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

    # particular solutions; (Re, Im) of column j is g[:, j] and re_im[:, j].
    # The column of n > 0 is anchored at t = T: x[-1] = 0 and
    # (D_r - n I) x[:-1] = g[:-1], with D_r = D[:-1, :-1].  The column of -n,
    # n >= 0, is anchored at t = -T; the grid is symmetric, so J D J = -D for
    # the flip J, and its system is the same one flipped:
    # (D_r - n I) y = -J g[1:] and x[1:] = J y.  So one factorization per n
    # serves both columns, with four right-hand sides.
    D_r = diff_matrix(t)[:-1, :-1]
    eye = np.eye(nt - 1)
    g = 2.0 * khat.view(float).reshape(nt, ntheta, 2)
    fhat = np.zeros_like(khat)
    re_im = fhat.view(float).reshape(nt, ntheta, 2)
    for m in range(ntheta // 2):  # the Nyquist column is left 0: no partner
        minus = -g[:0:-1, -m]  # rows 1: of column -m, flipped
        b = minus if m == 0 else np.concatenate([g[:-1, m], minus], axis=1)
        x = np.linalg.solve(D_r - m * eye, b)
        if m:
            re_im[:-1, m] = x[:, :2]
        re_im[:0:-1, -m] = x[:, -2:]

    # n = 0: Re f0(+-T) = 0 by a linear ramp carrying the (sub-tolerance)
    # compatibility defect, Im f0 gauged to zero mean
    re_im[:, 0, 0] -= re_im[-1, 0, 0] * (t + T) / (2.0 * T)
    re_im[:, 0, 1] -= float(w @ re_im[:, 0, 1]) / (2.0 * T)

    # homogeneous parts A exp(n (t - T)) on +n and conj(B) exp(-n (t + T)) on -n
    r1 = -np.conj(fhat[-1, ntheta - n])  # boundary condition at t = +T
    r2 = -fhat[0, n]  # boundary condition at t = -T
    fhat[:, n] += (r1 - q * r2) / det * np.exp(n * (t[:, None] - T))
    fhat[:, ntheta - n] += np.conj((r2 - q * r1) / det) * np.exp(-n * (t[:, None] + T))

    values = np.fft.ifft(fhat, axis=1) * ntheta
    return DbarSolution(
        T=T, t_nodes=t, thetas=problem.thetas,
        values=values, modes=fhat,
        solvability_residual=abs(integral_re_k),
        tail_truncation=float(np.max(np.abs(khat[:, ntheta // 2]))),
        conditioning=float(np.max((1.0 + q) / det, initial=1.0)),
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


def _candidates(surface: ParametricSurface, t, theta) -> np.ndarray:
    """The candidate table (nu1, nu2, nu3, x.nu) at (t, theta), read-only.

    The surface keeps the tables of the two grids used last, keyed by the
    shape and bytes of t and theta, so an input changed in place is a new
    key.  A psi is read on the mesh, the d-bar grid, the mesh, the boundary
    and the mesh again, and the d-bar datum and Y read nu from the same
    table: each grid's table, and its nu, is built once.
    """
    t = np.asarray(t, dtype=float)
    theta = np.asarray(theta, dtype=float)
    memo = surface._cache.setdefault("candidates", {})
    key = (t.shape, theta.shape, t.tobytes(), theta.tobytes())
    table = memo.pop(key, None)
    if table is None:
        if len(memo) >= 2:
            del memo[next(iter(memo))]  # the grid used least recently
        nu = surface.unit_normal(t, theta)
        x_nu = coord_dot(surface.phi(t, theta), nu)
        table = np.concatenate([nu, x_nu[..., None]], axis=-1)
        table.flags.writeable = False
    memo[key] = table
    return table


def _shape_weight(surface: ParametricSurface, t, theta):
    """(phi_tt.nu + i phi_ttheta.nu) / |phi_t|^2, the d-bar datum per unit psi.

    nu is read from the candidate table, which psi has built on this grid.
    """
    nu = _candidates(surface, t, theta)[..., :3]
    pt = surface.phi_t(t, theta)
    lam2 = coord_dot(pt, pt)
    h11 = coord_dot(surface.phi_tt(t, theta), nu)
    h12 = coord_dot(surface.phi_ttheta(t, theta), nu)
    return (h11 + 1j * h12) / lam2


def _compat_rhs(surface: ParametricSurface, psi):
    """Closure for k = psi (phi_tt.nu + i phi_ttheta.nu) / |phi_t|^2."""
    return lambda t, theta: psi(t, theta) * _shape_weight(surface, t, theta)


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


def conformal_field_space(surface: ParametricSurface) -> ConformalFieldSpace:
    """Normal-component candidates {nu.e_i} and x.nu with their admissibility.

    Each candidate is normalized to unit L2 norm over the surface (degenerate
    candidates are kept with zero normalization and excluded from the count
    dim_C).  The kernel of the 1 x m constraint row (every candidate when
    the row's norm is at most 1e-8) spans the normal components for which
    build_conformal_variation is solvable.
    Gram matrix and constraint row each come from one ``grid_moments``
    quadrature of the sampled candidate table, since both are (bi)linear in
    the candidates.  ``candidates`` reads ``_candidates``, which builds the
    table once per grid.
    """
    if surface.n != 3:
        raise ValueError("conformal field candidates implemented for n = 3")

    def candidates(t, theta):
        return _candidates(surface, t, theta)

    labels = ["nu1", "nu2", "nu3", "x.nu"]
    table = surface.sample(candidates)
    gram = surface.grid_moments(surface.conformal_factor_sq(), table, table)
    norms = np.sqrt(np.maximum(np.diag(gram), 0.0))
    live = norms > 1e-12
    scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=live)

    evals = np.linalg.eigvalsh(scale[:, None] * gram * scale[None, :])
    dim_C = int(np.sum(evals > 1e-8))

    # Re k = psi h11 / |phi_t|^2 is linear in psi: one integral gives the row
    re_k = surface.sample(lambda t, theta: _shape_weight(surface, t, theta).real)
    constraint = scale * surface.grid_moments(re_k, table)
    row_norm = np.linalg.norm(constraint)
    if row_norm <= 1e-8:
        kernel = np.eye(len(labels))
    else:
        kernel = _complement(constraint / row_norm)
    # drop kernel directions supported on degenerate (zero) candidates
    kernel = kernel[:, np.linalg.norm(kernel[live], axis=0) > 1e-12]

    return ConformalFieldSpace(
        labels=labels, candidates=candidates, scale=scale, gram=gram,
        constraint=constraint, kernel=kernel, dim_C=dim_C, dim_C1=kernel.shape[1],
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


def build_conformal_variation(surface: ParametricSurface, psi) -> ConformalVariation:
    """Solve for the tangential part making Y = Y_tan + psi*nu conformal.

    psi must satisfy the compatibility condition (use conformal_field_space);
    Unsolvable propagates otherwise.  The returned field satisfies x . Y = 0
    along the boundary because Re f = 0 there, and carries the sup-norm
    conformality residuals measured on the surface grid.  The d-bar problem
    is solved on cylinder_problem's default 128 x 128 grid.
    """
    problem = cylinder_problem(surface.T, _compat_rhs(surface, psi))
    sol = solve_dbar(problem)

    def Y_fn(t, theta):
        # psi nu first: on a new grid its candidate table pushes out the one
        # used least recently before the evaluation below allocates its own
        nu = _candidates(surface, t, theta)[..., :3]
        normal = np.asarray(psi(t, theta))[..., None] * nu
        f = sol.evaluate(t, theta)
        out = f.real[..., None] * surface.phi_t(t, theta)
        out = out + f.imag[..., None] * surface.phi_theta(t, theta)
        return out + normal

    # sampled as Y, the field the caller holds, so energy_form_Q reuses the tables
    Y = VariationField(Y_fn, kind="general")

    # conformality certificate on the surface tensor grid
    Yt, Yth = surface.grid_derivatives(surface.sample(Y))
    pt, pth = surface.first_derivatives()
    lam2 = surface.conformal_factor_sq()
    diag = np.abs(coord_dot(Yt, pt) - coord_dot(Yth, pth)) / lam2
    off = np.abs(coord_dot(Yt, pth) + coord_dot(Yth, pt)) / lam2

    x = surface.sample_boundary(surface.phi)
    tangency = float(np.max(np.abs(coord_dot(x, surface.sample_boundary(Y)))))

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
        return np.asarray(psi(t, theta))[..., None] * _candidates(surface, t, theta)[..., :3]

    s = index_form_S(surface, VariationField(W, kind="normal"))
    return AreaEnergyReport(q_value=q, s_value=s, residual=abs(q - s) / (1.0 + abs(s)))
