import gc
import math
import weakref

import numpy as np
import pytest

from steklov_lab.dbar import (
    SOLVABILITY_TOL,
    BoundarySystemSingular,
    DbarProblem,
    DbarSolution,
    Unsolvable,
    _candidates,
    _compat_rhs,
    _complement,
    build_conformal_variation,
    conformal_field_space,
    cylinder_problem,
    dbar_apply,
    dbar_residual,
    solve_dbar,
    verify_area_energy,
)
from steklov_lab.spectral1d import diff_matrix, interp_matrix, lobatto
from steklov_lab.surfaces import area_integral, critical_catenoid, flat_disk


def _boundary_re_max(sol):
    """Largest |Re f| on the two boundary circles t = -T and t = T."""
    return float(max(np.max(np.abs(sol.values[0].real)), np.max(np.abs(sol.values[-1].real))))


def _moebius_odd(modes, t_weights, T):
    """Projection of a solution onto f(-t, theta + pi) = -conj(f(t, theta)), regauged.

    Mode-wise f_n(t) <- (f_n(t) - (-1)^n conj(f_{-n}(-t))) / 2; returns the
    projected modes and the sup-norm change.
    """
    ntheta = modes.shape[1]
    signs = np.where(np.arange(ntheta) % 2 == 0, 1.0, -1.0)
    partner = np.conj(modes[::-1, (-np.arange(ntheta)) % ntheta])
    projected = 0.5 * (modes - signs[None, :] * partner)
    defect = float(np.max(np.abs(projected - modes)))
    projected[:, 0] -= 1j * float(t_weights @ projected[:, 0].imag) / (2.0 * T)
    return projected, defect


def _compatibility_integral(surface, psi):
    """Integral of Re k over the parameter cylinder (the solvability pairing)."""
    _, wt, _, wth = surface.nodes()
    k = surface.sample(_compat_rhs(surface, psi))
    return float(wt @ np.sum(k.real, axis=1)) * wth


def test_manufactured_solution_round_trip():
    # f = (T^2 - t^2) e^(i theta) + i t  has  Re f = 0 at t = +-T and zero
    # gauge mean, so the solver must reproduce it exactly
    T = 1.1

    def k(t, theta):
        return ((-2 * t - (T**2 - t**2)) * np.exp(1j * theta) + 1j) / 2.0

    prob = cylinder_problem(T, k, nt=64, ntheta=32)
    sol = solve_dbar(prob)
    tt, hh = np.meshgrid(sol.t_nodes, sol.thetas, indexing="ij")
    f = (T**2 - tt**2) * np.exp(1j * hh) + 1j * tt
    assert np.max(np.abs(sol.values - f)) < 1e-10
    assert dbar_residual(sol, prob) < 1e-10
    assert _boundary_re_max(sol) < 1e-10
    assert sol.solvability_residual < 1e-10
    assert sol.conditioning >= 1.0


def test_evaluate_interpolates():
    T = 1.1

    def k(t, theta):
        return ((-2 * t - (T**2 - t**2)) * np.exp(1j * theta) + 1j) / 2.0

    sol = solve_dbar(cylinder_problem(T, k, nt=64, ntheta=32))
    t0, th0 = 0.37 * T, 1.234
    expect = (T**2 - t0**2) * np.exp(1j * th0) + 1j * t0
    got = sol.evaluate(t0, th0)
    assert abs(got - expect) < 1e-9


def test_moebius_gauge_and_projection():
    # f = i cos(pi t / (2 T)) lies in the odd symmetry class; after the
    # zero-mean gauge the solver returns i (cos(pi t / 2T) - 2/pi)
    T = 0.8

    def k(t, theta):
        return np.broadcast_to(
            -1j * (math.pi / (2 * T)) * np.sin(math.pi * t / (2 * T)) / 2.0,
            np.broadcast(np.asarray(t), np.asarray(theta)).shape,
        ).astype(complex)

    prob = cylinder_problem(T, k, nt=64, ntheta=16)
    sol = solve_dbar(prob)
    modes, defect = _moebius_odd(sol.modes, prob.t_weights, T)
    assert defect < 1e-10
    tt = sol.t_nodes
    expect = 1j * (np.cos(math.pi * tt / (2 * T)) - 2.0 / math.pi)
    assert np.max(np.abs(modes[:, 0] - expect)) < 1e-10


def test_unsolvable_constant():
    prob = cylinder_problem(1.0, lambda t, th: np.ones_like(t * th, dtype=complex),
                            nt=32, ntheta=16)
    with pytest.raises(Unsolvable):
        solve_dbar(prob)


def test_fredholm_dichotomy_random():
    T = 0.9
    rng = np.random.default_rng(11)
    for _ in range(5):
        c = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))

        def raw(t, theta, c=c):
            out = np.zeros(np.broadcast(np.asarray(t), np.asarray(theta)).shape,
                           dtype=complex)
            for n in range(3):
                poly = sum(c[n, m] * np.asarray(t) ** m for m in range(5))
                out = out + poly * np.exp(1j * n * np.asarray(theta))
            return out

        prob = cylinder_problem(T, raw, nt=64, ntheta=16)
        mean = 2 * math.pi * float(prob.t_weights @ np.mean(prob.rhs.real, axis=1))
        area = 2 * T * 2 * math.pi
        fixed = DbarProblem(T=T, rhs=prob.rhs - mean / area,
                            t_nodes=prob.t_nodes, t_weights=prob.t_weights)
        sol = solve_dbar(fixed)
        assert dbar_residual(sol, fixed) < 1e-8
        assert _boundary_re_max(sol) < 1e-9

        broken = DbarProblem(T=T, rhs=fixed.rhs + 0.1,
                             t_nodes=prob.t_nodes, t_weights=prob.t_weights)
        with pytest.raises(Unsolvable):
            solve_dbar(broken)


def test_problem_validation():
    with pytest.raises(ValueError):
        DbarProblem(T=-1.0, rhs=np.zeros((8, 8), dtype=complex))
    for T in (0.0, -1.0, math.nan):  # refused before the right-hand side is sampled
        with pytest.raises(ValueError, match="positive"):
            cylinder_problem(T, lambda t, th: pytest.fail("sampled"), nt=8, ntheta=8)
    with pytest.raises(ValueError):
        DbarProblem(T=1.0, rhs=np.zeros((7, 8), dtype=complex))
    bad = np.zeros((8, 8), dtype=complex)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        DbarProblem(T=1.0, rhs=bad)
    # the collocation grid, when given, must be a full symmetric grid on [-T, T]
    rhs = np.zeros((32, 8), dtype=complex)
    t, w = lobatto(32, -1.1, 1.1)
    DbarProblem(T=1.1, rhs=rhs, t_nodes=t, t_weights=w)
    with pytest.raises(ValueError, match="both"):
        DbarProblem(T=1.1, rhs=rhs, t_nodes=t)
    t16, w16 = lobatto(16, -1.1, 1.1)
    with pytest.raises(ValueError, match="length"):
        DbarProblem(T=1.1, rhs=rhs, t_nodes=t16, t_weights=w16)
    with pytest.raises(ValueError, match="from -T to T"):
        DbarProblem(T=1.1, rhs=rhs, t_nodes=lobatto(32, -1.0, 1.0)[0], t_weights=w)
    moved = t.copy()
    moved[5] += 5e-6
    with pytest.raises(ValueError, match="symmetric"):
        DbarProblem(T=1.1, rhs=rhs, t_nodes=moved, t_weights=w)


def test_cylinder_problem_broadcasts_t_only_closure():
    # the closure ignores theta, as the CLI's unsolvable demo does
    prob = cylinder_problem(0.7, lambda t, th: np.ones_like(t, dtype=complex) * (1.0 + t),
                            nt=16, ntheta=8)
    tt, _ = np.meshgrid(prob.t_nodes, prob.thetas, indexing="ij")
    assert prob.rhs.shape == (16, 8)
    assert prob.rhs.flags.writeable
    assert np.array_equal(prob.rhs, (1.0 + tt).astype(complex))


def test_dbar_apply_on_holomorphic():
    # e^(n z) with z = t + i theta is killed by the discrete d-bar operator
    T = 0.7
    prob = cylinder_problem(T, lambda t, th: np.zeros_like(t * th, dtype=complex),
                            nt=32, ntheta=16)
    tt, hh = np.meshgrid(prob.t_nodes, prob.thetas, indexing="ij")
    hol = np.exp(2 * (tt + 1j * hh))
    r = dbar_apply(hol, prob.t_nodes)
    assert np.max(np.abs(r)) < 1e-9 * np.max(np.abs(hol))


@pytest.fixture(scope="module")
def catenoid_space():
    cat = critical_catenoid()
    return cat, conformal_field_space(cat)


def test_conformal_candidates_on_catenoid(catenoid_space):
    cat, cfs = catenoid_space
    assert cfs.labels == ["nu1", "nu2", "nu3", "x.nu"]
    assert cfs.dim_C == 4
    assert cfs.dim_C1 == 3
    # the three normal-vector components are compatible, the support
    # function is obstructed
    assert np.max(np.abs(cfs.constraint[:3])) < 1e-10
    assert abs(cfs.constraint[3]) > 1.0


def test_conformal_variations_are_conformal(catenoid_space):
    cat, cfs = catenoid_space
    for j in range(cfs.dim_C1):
        psi = cfs.kernel_psi(j)
        var = build_conformal_variation(cat, psi)
        assert var.residual_diag < 1e-6
        assert var.residual_offdiag < 1e-6
        assert var.boundary_tangency < 1e-8


def test_area_energy_identity(catenoid_space):
    cat, cfs = catenoid_space
    psi = cfs.kernel_psi(0)
    var = build_conformal_variation(cat, psi)
    rep = verify_area_energy(cat, psi, var.Y)
    assert rep.residual < 1e-5
    assert rep.s_value < 0


def test_obstructed_component_raises(catenoid_space):
    cat, cfs = catenoid_space
    xnu = cfs.psis[3]
    assert abs(_compatibility_integral(cat, xnu)) > 1.0
    with pytest.raises(Unsolvable):
        build_conformal_variation(cat, xnu)


def _evaluate_reference(sol, t, theta):
    """Per-point evaluation: a phase row exp(i n theta) for every point."""
    t = np.asarray(t, dtype=float)
    theta = np.asarray(theta, dtype=float)
    bshape = np.broadcast(t, theta).shape
    tf = np.broadcast_to(t, bshape).ravel()
    hf = np.broadcast_to(theta, bshape).ravel()
    uniq, inv = np.unique(tf, return_inverse=True)
    modes_at = interp_matrix(sol.t_nodes, uniq) @ sol.modes
    ntheta = sol.modes.shape[1]
    freqs = np.fft.fftfreq(ntheta, d=1.0 / ntheta)
    phases = np.exp(1j * hf[:, None] * freqs[None, :])
    return np.sum(modes_at[inv] * phases, axis=1).reshape(bshape)


def test_evaluate_matches_per_point_sum(catenoid_space):
    cat, cfs = catenoid_space
    sol = build_conformal_variation(cat, cfs.kernel_psi(0)).solution
    rng = np.random.default_rng(5)
    t_open, th_open = cat.mesh()
    points = {
        "open mesh": (t_open, th_open),
        "full meshgrid": tuple(np.broadcast_arrays(t_open, th_open)),
        "scattered": (rng.uniform(-cat.T, cat.T, 4096), rng.uniform(0.0, 2 * math.pi, 4096)),
        "0-d": (np.float64(0.3), np.float64(1.2)),
    }
    for name, (t, th) in points.items():
        ref = _evaluate_reference(sol, t, th)
        got = sol.evaluate(t, th)
        assert got.shape == ref.shape, name
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)), name


def _kernel_reference(constraint):
    """Complement of the constraint row from eigh(I - u u^T), eigenvalues > 1/2."""
    unit = constraint / np.linalg.norm(constraint)
    evals, vecs = np.linalg.eigh(np.eye(len(unit)) - np.outer(unit, unit))
    return vecs[:, evals > 0.5]


def test_candidate_table_matches_per_candidate_integrals(catenoid_space):
    cat, cfs = catenoid_space
    compat = np.array([_compatibility_integral(cat, p) for p in cfs.psis])
    row = np.linalg.norm(compat)
    assert np.max(np.abs(cfs.constraint - compat)) <= 1e-12 * row

    def raw(t, th):
        nu = cat.unit_normal(t, th)
        return [nu[..., 0], nu[..., 1], nu[..., 2], np.sum(cat.phi(t, th) * nu, axis=-1)]

    grids = [np.broadcast_to(g, cat.grid) for g in raw(*cat.mesh())]
    gram = np.array([[area_integral(cat, a * b) for b in grids] for a in grids])
    assert np.max(np.abs(cfs.gram - gram)) <= 1e-12 * np.max(np.abs(gram))

    K, ref = cfs.kernel, _kernel_reference(cfs.constraint)
    assert np.max(np.abs(K @ K.T - ref @ ref.T)) <= 1e-12
    assert np.max(np.abs(K.T @ K - np.eye(3))) <= 1e-14
    # u is close to e_4 (x.nu), so the kernel columns are close to nu1, nu2, nu3
    assert np.max(np.abs(K - np.eye(4)[:, :3])) <= 1e-12


def test_kernel_basis_moves_with_the_constraint(catenoid_space):
    _, cfs = catenoid_space
    u = cfs.constraint / np.linalg.norm(cfs.constraint)
    rng = np.random.default_rng(9)
    for _ in range(20):
        du = 6e-13 * rng.normal(size=4)
        v = (u + du) / np.linalg.norm(u + du)
        K, Kv = _complement(u), _complement(v)
        assert np.max(np.abs(Kv.T @ v)) <= 1e-15
        assert np.max(np.abs(K - Kv)) <= 1e-11


def test_flat_disk_space():
    cfs = conformal_field_space(flat_disk())
    assert cfs.dim_C == 1
    assert cfs.dim_C1 == 1
    assert np.max(np.abs(cfs.constraint)) < 1e-12


def _solve_dbar_reference(problem):
    """Per-mode solves: real n = 0, complex +n and -n, one 2x2 system per pair."""
    T = problem.T
    t = problem.t_nodes
    w = problem.t_weights
    nt, ntheta = problem.rhs.shape

    khat = np.fft.fft(problem.rhs, axis=1) / ntheta
    dtheta_mass = 2.0 * math.pi
    integral_re_k = dtheta_mass * float(w @ khat[:, 0].real)
    l1 = dtheta_mass / ntheta * float(np.sum(w @ np.abs(problem.rhs)))
    if abs(integral_re_k) > SOLVABILITY_TOL * max(l1, 1e-300):
        raise Unsolvable("mean of Re k")

    D = diff_matrix(t)
    fhat = np.zeros_like(khat)
    worst_cond = 1.0

    g0 = 2.0 * khat[:, 0]
    A0 = D.copy()
    A0[0] = 0.0
    A0[0, 0] = 1.0
    rhs_re = g0.real.copy()
    rhs_re[0] = 0.0
    p_re = np.linalg.solve(A0, rhs_re)
    p_re -= p_re[-1] * (t + T) / (2.0 * T)
    rhs_im = g0.imag.copy()
    rhs_im[0] = 0.0
    p_im = np.linalg.solve(A0, rhs_im)
    p_im -= float(w @ p_im) / (2.0 * T)
    fhat[:, 0] = p_re + 1j * p_im

    for n in range(1, ntheta // 2):
        gp = 2.0 * khat[:, n]
        gm = 2.0 * khat[:, ntheta - n]
        Ap = (D - n * np.eye(nt)).astype(complex)
        Ap[-1] = 0.0
        Ap[-1, -1] = 1.0
        bp = gp.copy()
        bp[-1] = 0.0
        pp = np.linalg.solve(Ap, bp)
        Am = (D + n * np.eye(nt)).astype(complex)
        Am[0] = 0.0
        Am[0, 0] = 1.0
        bm = gm.copy()
        bm[0] = 0.0
        pm = np.linalg.solve(Am, bm)

        q = math.exp(-2.0 * n * T)
        det = 1.0 - q * q
        if abs(det) < 1e-14:
            raise BoundarySystemSingular(f"mode pair n = {n} is resonant")
        worst_cond = max(worst_cond, (1.0 + q) / det)
        r1 = -np.conj(pm[-1])
        r2 = -pp[0]
        A = (r1 - q * r2) / det
        B = (r2 - q * r1) / det
        fhat[:, n] = pp + A * np.exp(n * (t - T))
        fhat[:, ntheta - n] = pm + np.conj(B) * np.exp(-n * (t + T))

    tail = float(np.max(np.abs(khat[:, ntheta // 2])))
    fhat[:, ntheta // 2] = 0.0

    values = np.fft.ifft(fhat, axis=1) * ntheta
    return DbarSolution(
        T=T, t_nodes=t, thetas=problem.thetas, values=values, modes=fhat,
        solvability_residual=abs(integral_re_k), tail_truncation=tail,
        conditioning=worst_cond,
    )


def _solve_dbar_column_loop(problem):
    """One real solve per Fourier column, each with its own anchored matrix.

    The anchor row of D - n I is replaced by the identity row: the last node
    for n > 0, the first for n <= 0.  The boundary amplitudes are as in
    solve_dbar.
    """
    T = problem.T
    t = problem.t_nodes
    w = problem.t_weights
    nt, ntheta = problem.rhs.shape
    khat = np.fft.fft(problem.rhs, axis=1) / ntheta
    integral_re_k = 2.0 * math.pi * float(w @ khat[:, 0].real)

    D = diff_matrix(t)
    eye = np.eye(nt)
    g = 2.0 * khat.view(float).reshape(nt, ntheta, 2)
    fhat = np.zeros_like(khat)
    re_im = fhat.view(float).reshape(nt, ntheta, 2)
    for j, fn in enumerate(np.fft.fftfreq(ntheta, d=1.0 / ntheta)):
        if j == ntheta // 2:
            continue
        anchor = -1 if fn > 0 else 0
        A = D - fn * eye
        A[anchor] = eye[anchor]
        b = g[:, j].copy()
        b[anchor] = 0.0
        re_im[:, j] = np.linalg.solve(A, b)
    re_im[:, 0, 0] -= re_im[-1, 0, 0] * (t + T) / (2.0 * T)
    re_im[:, 0, 1] -= float(w @ re_im[:, 0, 1]) / (2.0 * T)

    n = np.arange(1, ntheta // 2)
    q = np.array([math.exp(-2.0 * m * T) for m in n])
    det = 1.0 - q * q
    r1 = -np.conj(fhat[-1, ntheta - n])
    r2 = -fhat[0, n]
    fhat[:, n] += (r1 - q * r2) / det * np.exp(n * (t[:, None] - T))
    fhat[:, ntheta - n] += np.conj((r2 - q * r1) / det) * np.exp(-n * (t[:, None] + T))
    return DbarSolution(
        T=T, t_nodes=t, thetas=problem.thetas,
        values=np.fft.ifft(fhat, axis=1) * ntheta, modes=fhat,
        solvability_residual=abs(integral_re_k),
        tail_truncation=float(np.max(np.abs(khat[:, ntheta // 2]))),
        conditioning=float(np.max((1.0 + q) / det, initial=1.0)),
    )


def _relative_change(got, ref):
    """Largest sup-norm difference of values and modes, relative to ref's."""
    return max(np.max(np.abs(getattr(got, name) - getattr(ref, name)))
               / np.max(np.abs(getattr(ref, name))) for name in ("values", "modes"))


@pytest.mark.parametrize("nt", [8, 64, 128])
@pytest.mark.parametrize("ntheta", [2, 4, 16, 128])
@pytest.mark.parametrize("symmetry", ["none", "moebius_odd"])
def test_mode_loop_matches_per_pair_solves(nt, ntheta, symmetry):
    rng = np.random.default_rng(1000 * nt + ntheta + (symmetry == "none"))
    T = rng.uniform(0.2, 2.0)
    t, w = lobatto(nt, -T, T)
    k = rng.normal(size=(nt, ntheta)) + 1j * rng.normal(size=(nt, ntheta))
    k -= float(w @ k.real.mean(axis=1)) / (2.0 * T)  # remove the obstruction
    plain = solve_dbar(DbarProblem(T=T, rhs=k, t_nodes=t, t_weights=w))
    if symmetry == "moebius_odd":
        # k(t, theta) = conj k(-t, theta + pi) is the class whose solutions
        # are odd, so the odd part of a plain solve solves its projection
        k = 0.5 * (k + np.conj(np.roll(k[::-1], -(ntheta // 2), axis=1)))
    prob = DbarProblem(T=T, rhs=k, t_nodes=t, t_weights=w)
    ref, got = _solve_dbar_reference(prob), solve_dbar(prob)
    assert _relative_change(got, ref) <= 1e-11
    assert _relative_change(got, _solve_dbar_column_loop(prob)) <= 1e-11
    assert got.conditioning == ref.conditioning
    assert got.tail_truncation == ref.tail_truncation
    assert got.solvability_residual == ref.solvability_residual
    if symmetry == "moebius_odd":
        # the pairs (n, -n) are anchored at both ends, so they commute with
        # t -> -t exactly; mode 0 is anchored at t = -T alone and only
        # commutes up to the collocation error of this unresolved k_0
        odd, _ = _moebius_odd(plain.modes, w, T)
        assert np.max(np.abs(odd[:, 1:] - got.modes[:, 1:])) <= 1e-11 * np.max(np.abs(ref.modes))


def test_conditioning_is_the_n1_pair_formula():
    # the n = 1 pair is the worst conditioned; its q comes from libm exp, so the
    # reported figure does not depend on numpy's vectorized exp
    rng = np.random.default_rng(4)
    for T in rng.uniform(0.2, 2.0, 200):
        sol = solve_dbar(cylinder_problem(T, lambda t, th: t * np.exp(1j * th), nt=8, ntheta=4))
        q = math.exp(-2.0 * T)
        assert sol.conditioning == (1.0 + q) / (1.0 - q * q)


@pytest.mark.parametrize("ntheta", [2, 16, 128])
def test_modes_n_and_minus_n_share_one_solve(monkeypatch, ntheta):
    calls = []
    original = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda A, b: calls.append(A.shape) or original(A, b))
    T = 0.9
    sol = solve_dbar(cylinder_problem(T, lambda t, th: (T - t) * np.cos(3 * th) + 1j * t,
                                      nt=32, ntheta=ntheta))
    assert calls == [(31, 31)] * (ntheta // 2)
    assert sol.solvability_residual < 1e-12


@pytest.mark.parametrize("nt", [16, 128])
def test_pairing_holds_on_nodes_symmetric_to_tolerance(nt):
    # DbarProblem accepts nodes within 1e-12 T of symmetric.  The solve flips
    # the n > 0 system for the n <= 0 columns, exact only on a symmetric grid,
    # so on these nodes it departs from the column loop about as far as the
    # loop itself moves when the nodes move: below 1e-11 at nt = 16, near
    # 1e-10 at nt = 128, whose end spacing is 67 times finer
    rng = np.random.default_rng(77 + nt)
    T, ntheta = 1.3, 32
    symmetric, w = lobatto(nt, -T, T)
    t = symmetric.copy()
    t[1:-1] += 1e-13 * T * rng.uniform(-1.0, 1.0, nt - 2)
    k = rng.normal(size=(nt, ntheta)) + 1j * rng.normal(size=(nt, ntheta))
    k -= float(w @ k.real.mean(axis=1)) / (2.0 * T)
    prob = DbarProblem(T=T, rhs=k, t_nodes=t, t_weights=w)
    loop = _solve_dbar_column_loop(prob)
    moved = _relative_change(
        loop, _solve_dbar_column_loop(DbarProblem(T=T, rhs=k, t_nodes=symmetric, t_weights=w)))
    err = _relative_change(solve_dbar(prob), loop)
    assert err <= 3.0 * moved
    assert err <= (1e-11 if nt == 16 else 1e-9)


# -- one evaluation per field and grid -------------------------------------------


def test_candidate_memo_follows_its_inputs(catenoid_space):
    cat, cfs = catenoid_space
    t = np.linspace(-cat.T, cat.T, 9)[:, None]
    th = np.linspace(0.0, 2 * math.pi, 16, endpoint=False)[None, :]
    before = cfs.candidates(t, th)
    assert cfs.candidates(t.copy(), th.copy()) is before
    t *= 0.5  # changed in place: the memo must not answer from the old grid
    after = cfs.candidates(t, th)
    nu = cat.unit_normal(t, th)
    fresh = np.concatenate([nu, np.sum(cat.phi(t, th) * nu, axis=-1, keepdims=True)], axis=-1)
    assert np.array_equal(after, fresh)
    assert not np.array_equal(after, before)


def test_candidate_tables_of_the_two_grids_used_last_are_kept():
    cat = critical_catenoid(grid=(16, 32))
    built = []
    original = type(cat).unit_normal
    cat.unit_normal = lambda t, h: built.append(1) or original(cat, t, h)
    a, h = np.linspace(-cat.T, cat.T, 5)[:, None], np.zeros((1, 3))
    b, c = 0.5 * a, 0.25 * a
    first = _candidates(cat, a, h)
    assert not first.flags.writeable
    assert _candidates(cat, a.copy(), h.copy()) is first  # equal content
    _candidates(cat, b, h)
    _candidates(cat, a, h)  # a hit makes a the grid used last
    _candidates(cat, c, h)  # so c pushes out b, not a
    assert _candidates(cat, a, h) is first
    assert len(built) == 3
    _candidates(cat, b, h)
    assert len(built) == 4 and len(cat._cache["candidates"]) == 2


def test_compat_rhs_forms_the_normal_once_per_grid_point(monkeypatch):
    cat = critical_catenoid()
    cfs = conformal_field_space(cat)
    psi = cfs.kernel_psi(0)
    t, _ = lobatto(128, -cat.T, cat.T)
    th = 2.0 * math.pi * np.arange(128) / 128
    tt, hh = t[:, None], th[None, :]
    # the right-hand side as it was built before the normal was shared
    pt, pth = cat.phi_t(tt, hh), cat.phi_theta(tt, hh)
    nu = np.cross(pt, pth)
    nu = nu / np.linalg.norm(nu, axis=-1, keepdims=True)
    cand = np.concatenate([nu, np.sum(cat.phi(tt, hh) * nu, axis=-1, keepdims=True)], axis=-1)
    weight = (np.sum(cat.phi_tt(tt, hh) * nu, axis=-1)
              + 1j * np.sum(cat.phi_ttheta(tt, hh) * nu, axis=-1)) / np.sum(pt**2, axis=-1)
    ref = np.empty((128, 128), dtype=complex)
    ref[...] = (cand @ (cfs.scale * cfs.kernel[:, 0])) * weight

    normals = []
    original = type(cat)._normal_from_tangents
    monkeypatch.setattr(type(cat), "_normal_from_tangents",
                        lambda self, a, b: normals.append(a.shape) or original(self, a, b))
    rhs = cylinder_problem(cat.T, _compat_rhs(cat, psi)).rhs
    assert rhs.tobytes() == ref.tobytes()
    assert normals == [(128, 128, 3)]


def test_a_variation_request_evaluates_each_field_once_per_grid(monkeypatch):
    cat = critical_catenoid()
    normals, evaluations, inputs = [], [], set()
    original_normal = type(cat)._normal_from_tangents
    original_evaluate = DbarSolution.evaluate
    monkeypatch.setattr(type(cat), "_normal_from_tangents",
                        lambda self, a, b: normals.append(a.shape) or original_normal(self, a, b))
    monkeypatch.setattr(DbarSolution, "evaluate", lambda self, t, th: (
        evaluations.append((np.shape(t), np.shape(th))) or original_evaluate(self, t, th)))

    # every field of the request reads the surface through these closures
    def recording(fn):
        def closure(t, theta):
            inputs.add((np.shape(t), np.shape(theta)))
            return fn(t, theta)
        return closure

    for name in ("phi", "phi_t", "phi_theta", "phi_tt", "phi_ttheta", "phi_thetatheta"):
        setattr(cat, name, recording(getattr(cat, name)))
    cfs = conformal_field_space(cat)
    psi = cfs.kernel_psi(1)
    var = build_conformal_variation(cat, psi)
    rep = verify_area_energy(cat, psi, var.Y)
    assert rep.residual <= 1e-5
    # once per grid: the mesh, the d-bar grid and the two boundary circles
    assert sorted(normals) == [(2, 256, 3), (64, 256, 3), (128, 128, 3)]
    # only open grids, t a column and theta a row: so no caller's input shape
    # moves the last bits of the d-bar evaluation's sum over frequencies
    mesh, boundary, dbar_grid = ((64, 1), (1, 256)), ((2, 1), (1, 256)), ((128, 1), (1, 128))
    assert sorted(evaluations) == sorted([mesh, boundary])  # Y on the mesh and the boundary
    assert inputs == {mesh, boundary, dbar_grid}


def test_a_variation_request_leaves_no_reference_cycle():
    # the candidate tables and the sampled Y live on the surface, and Y, psi
    # and the field space close over it: reference counting alone frees all
    gc.disable()
    try:
        cat = critical_catenoid(grid=(32, 64))
        cfs = conformal_field_space(cat)
        psi = cfs.kernel_psi(0)
        var = build_conformal_variation(cat, psi)
        verify_area_energy(cat, psi, var.Y)
        alive = weakref.ref(cat)
        del cat, cfs, psi, var
        assert alive() is None
    finally:
        gc.enable()
