"""Dual solver: residual stencils, Newton behavior, continuation, recovery."""

import numpy as np
import pytest

from otgeo.grid import build_grid, integrate
from otgeo.transport import ReferenceMeasure
from otgeo.prox import align_null_moments
from otgeo.elliptic import (
    EllipticConfig,
    EllipticError,
    EllipticProblem,
    elliptic_residual,
    newton_step,
    recover_density,
    solve_elliptic,
)


def cosine_setup(n=64, nt=32, amp=0.3, eps=0.1):
    g = build_grid(1, n, nt, 1.0)
    x = g.axis_coords()
    ref = ReferenceMeasure.from_potential(amp * np.cos(2 * np.pi * x), g)
    ms = ref.stationary_density(g)
    return g, ref, ms, EllipticProblem(g, ref, eps, ms, ms)


def stationary_potential(problem):
    """u = eps t log Z + c solves the limit system for stationary marginals."""
    g = problem.grid
    t = g.time_nodes().reshape((-1,) + (1,) * g.dim)
    logz = problem.reference.log_normalizer
    return problem.eps * t * logz + np.zeros((g.n_time + 1,) + g.space_shape)


class TestResidual:
    def test_constant_potential_uniform_marginals(self):
        g = build_grid(1, 32, 8, 1.0)
        ref = ReferenceMeasure.from_potential(0.0, g)
        m0 = np.ones(32)
        prob = EllipticProblem(g, ref, 0.1, m0, m0, delta=0.5)
        res, norm = elliptic_residual(np.full((9, 32), 0.0), prob)
        assert norm < 1e-14

    def test_stationary_solution_has_small_residual(self):
        g, ref, ms, prob = cosine_setup()
        prob = prob.with_delta(1e-12)
        u = stationary_potential(prob)
        _, norm = elliptic_residual(u, prob)
        # interior rows vanish identically (u linear in t, flat in x);
        # boundary rows feel only the delta u term
        assert norm < 1e-10

    def test_matches_independent_loop_evaluation(self):
        rng = np.random.default_rng(8)
        g = build_grid(1, 10, 6, 0.8)
        x = g.axis_coords()
        ref = ReferenceMeasure.from_potential(0.2 * np.sin(2 * np.pi * x), g)
        m0 = np.exp(0.3 * np.cos(2 * np.pi * x))
        m0 /= integrate(m0, g)
        prob = EllipticProblem(g, ref, 0.12, m0, m0, delta=0.4)
        u = 0.2 * rng.standard_normal((7, 10))
        res, _ = elliptic_residual(u, prob)

        tau, h = g.tau, g.h
        V = ref.potential_V
        n, Nt = 10, 6
        for k in range(1, Nt):
            for i in range(n):
                ip, im = (i + 1) % n, (i - 1) % n
                utt = (u[k + 1, i] - 2 * u[k, i] + u[k - 1, i]) / tau ** 2
                ux = (u[k, ip] - u[k, im]) / (2 * h)
                uxx = (u[k, ip] - 2 * u[k, i] + u[k, im]) / h ** 2
                dtu_p = (u[k + 1, ip] - u[k - 1, ip]) / (2 * tau)
                dtu_m = (u[k + 1, im] - u[k - 1, im]) / (2 * tau)
                utx = (dtu_p - dtu_m) / (2 * h)
                vx = (V[ip] - V[im]) / (2 * h)
                expect = -utt + 2 * ux * utx - uxx * ux ** 2 - 0.12 * uxx + 0.12 * ux * vx
                assert res[k, i] == pytest.approx(expect, rel=1e-12, abs=1e-12)
        for i in range(n):
            ip, im = (i + 1) % n, (i - 1) % n
            dt0 = (-3 * u[0, i] + 4 * u[1, i] - u[2, i]) / (2 * tau)
            ux0 = (u[0, ip] - u[0, im]) / (2 * h)
            expect0 = -dt0 + 0.5 * ux0 ** 2 + 0.4 * u[0, i] - 0.12 * (np.log(m0[i]) + V[i])
            assert res[0, i] == pytest.approx(expect0, rel=1e-12, abs=1e-12)
            dtT = (3 * u[-1, i] - 4 * u[-2, i] + u[-3, i]) / (2 * tau)
            uxT = (u[-1, ip] - u[-1, im]) / (2 * h)
            expectT = -dtT + 0.5 * uxT ** 2 - 0.4 * u[-1, i] - 0.12 * (np.log(m0[i]) + V[i])
            assert res[-1, i] == pytest.approx(expectT, rel=1e-12, abs=1e-12)


class TestSpacetimeOperator:
    def test_interior_rows_of_the_residual(self):
        from otgeo.elliptic import spacetime_operator
        rng = np.random.default_rng(17)
        g, ref, ms, prob = cosine_setup(n=16, nt=8)
        u = 0.1 * rng.standard_normal((9, 16))
        res, _ = elliptic_residual(u, prob)
        np.testing.assert_allclose(spacetime_operator(u, prob), res[1:-1], rtol=0, atol=0)

    def test_reduces_to_linear_operator_at_flat_gradient(self):
        # for u with zero spatial gradient the operator is -u_tt (+ rho u)
        from otgeo.elliptic import spacetime_operator
        g, ref, ms, prob = cosine_setup(n=16, nt=8)
        t = g.time_nodes()
        u = (0.3 * t ** 2 - 0.1 * t)[:, None] * np.ones(16)
        got = spacetime_operator(u, prob)
        assert np.max(np.abs(got + 0.6)) < 1e-10


class TestNewton:
    def test_step_from_exact_solution_is_tiny(self):
        g, ref, ms, prob = cosine_setup(n=32, nt=16)
        prob = prob.with_delta(0.25)
        u, _, _ = solve_elliptic_at_delta(prob)
        u, _ = newton_step(u, prob)   # polish to rounding level
        _, step = newton_step(u, prob)
        assert step <= 1e-10

    def test_linear_regime_single_step(self):
        # for flat-gradient data the problem is linear: one step converges
        g = build_grid(1, 32, 16, 1.0)
        ref = ReferenceMeasure.from_potential(0.0, g)
        m0 = np.ones(32)
        prob = EllipticProblem(g, ref, 0.1, m0, m0, delta=0.5)
        u0 = np.zeros((17, 32))
        u1, _ = newton_step(u0, prob)
        _, norm = elliptic_residual(u1, prob)
        assert norm <= 1e-8

    def test_quadratic_contraction_near_solution(self):
        g, ref, ms, prob = cosine_setup(n=32, nt=16)
        prob = prob.with_delta(0.25)
        u, _, _ = solve_elliptic_at_delta(prob)
        x = g.axis_coords()
        t = g.time_nodes()[:, None]
        # smooth perturbation inside the Newton basin
        pert = 5e-2 * np.sin(2 * np.pi * x)[None, :] * np.cos(np.pi * t)
        trial = u + pert
        norms = [elliptic_residual(trial, prob)[1]]
        for _ in range(3):
            trial, _ = newton_step(trial, prob)
            norms.append(elliptic_residual(trial, prob)[1])
        # quadratic contraction: each step squares the error (up to a constant)
        assert norms[1] < 2.0 * norms[0] ** 2 or norms[1] < 1e-11
        assert norms[2] < 2.0 * norms[1] ** 2 or norms[2] < 1e-11
        assert norms[3] < 2.0 * norms[2] ** 2 or norms[3] < 1e-12

    def test_residual_is_passed_through(self):
        g, ref, ms, prob = cosine_setup(n=16, nt=8)
        x = g.axis_coords()
        u = 0.1 * np.sin(2 * np.pi * x)[None, :] * np.ones((9, 1))
        u1, step1 = newton_step(u, prob)
        u2, step2, (res2, norm2) = newton_step(u, prob, residual=elliptic_residual(u, prob))
        assert u1.tobytes() == u2.tobytes() and step1 == step2
        res, norm = elliptic_residual(u2, prob)
        assert res.tobytes() == res2.tobytes() and norm == norm2

    def test_each_newton_point_is_evaluated_once(self, monkeypatch):
        import otgeo.elliptic as ell
        g, ref, ms, prob = cosine_setup(n=16, nt=8)
        prob = EllipticProblem(g, ref, 0.1, np.roll(ms, 4), ms, delta=0.25)
        seen = []
        original = ell.elliptic_residual

        def counted(u, problem):
            seen.append(np.asarray(u).tobytes())
            return original(u, problem)

        monkeypatch.setattr(ell, "elliptic_residual", counted)
        _, steps, _ = solve_elliptic_at_delta(prob)
        assert steps >= 3
        assert len(seen) == len(set(seen))

    def test_solve_evaluates_each_point_once(self, monkeypatch):
        import otgeo.elliptic as ell
        g, ref, ms, _ = cosine_setup(n=16, nt=8)
        prob = EllipticProblem(g, ref, 0.1, np.roll(ms, 4), ms)
        seen = []
        original = ell.elliptic_residual

        def counted(u, problem):
            out = original(u, problem)
            seen.append((np.asarray(u).tobytes(), problem.delta, out[1]))
            return out

        monkeypatch.setattr(ell, "elliptic_residual", counted)
        _, _, rep = solve_elliptic(prob)
        assert len(seen) == len({(u, delta) for u, delta, _ in seen})
        # the last point evaluated is the final iterate
        assert rep.final_residual == seen[-1][2]


class TestLinearSolve:
    """The cached-order LU solve against scipy's own sparse direct solve."""

    @pytest.mark.parametrize("delta", [1.0, 1e-3, 1e-6])
    @pytest.mark.parametrize("case", ["1d-flat", "1d-conformal", "2d-varying-V"])
    def test_matches_spsolve_bitwise(self, case, delta):
        from scipy.sparse.linalg import spsolve
        from otgeo.elliptic import _assemble_jacobian, _solve_linear
        prob = jacobian_case(case, delta=delta)
        u = 0.3 * np.random.default_rng(23).standard_normal(
            (prob.grid.n_time + 1,) + prob.grid.space_shape)
        J = _assemble_jacobian(u, prob)
        rhs = -elliptic_residual(u, prob)[0].ravel()
        x = _solve_linear(J, rhs, prob.grid)
        assert x.tobytes() == spsolve(J.tocsc(), rhs).tobytes()

    def test_structure_mismatch_raises(self):
        from otgeo.elliptic import _assemble_jacobian, _solve_linear
        prob = jacobian_case("1d-conformal")
        u = np.zeros((prob.grid.n_time + 1,) + prob.grid.space_shape)
        J = _assemble_jacobian(u, prob)
        nnz = J.nnz
        J.eliminate_zeros()     # entries that vanish at u = 0 leave the structure
        assert J.nnz < nnz
        with pytest.raises(EllipticError, match="structure"):
            _solve_linear(J, np.ones(J.shape[0]), prob.grid)


class TestRecoverDensity:
    def test_zero_potential_gives_uniform(self):
        g = build_grid(1, 32, 8, 1.0)
        ref = ReferenceMeasure.from_potential(0.0, g)
        m = recover_density(np.zeros((9, 32)), ref, 0.1, g)
        assert np.max(np.abs(m.values - 1.0)) < 1e-14

    def test_linear_drift_gives_stationary(self):
        g, ref, ms, prob = cosine_setup(n=32, nt=16)
        u = stationary_potential(prob)
        m = recover_density(u, ref, prob.eps, g)
        assert np.max(np.abs(m.values - ms)) < 1e-12

    def test_overflow_guard(self):
        g = build_grid(1, 16, 8, 1.0)
        ref = ReferenceMeasure.from_potential(0.0, g)
        u = np.linspace(0, -2000.0, 9)[:, None] * np.ones(16)
        with pytest.raises(EllipticError, match="larger eps"):
            recover_density(u, ref, 1e-3, g)


def jacobian_case(case, delta=0.3):
    """Small problems covering each branch of the Jacobian."""
    if case.startswith("2d"):
        g = build_grid(2, 6, 4, 0.9)
        x = g.axis_coords()
        V = 0.2 * np.cos(2 * np.pi * x)[:, None] + 0.1 * np.sin(2 * np.pi * x)[None, :]
    elif case.startswith("1d-conformal"):
        g = build_grid(1, 8, 4, 0.9, lambda x: 1 + 0.3 * np.sin(2 * np.pi * x))
        V = 0.2 * np.cos(2 * np.pi * g.axis_coords())
    else:
        g = build_grid(1, 8, 4, 0.9)
        V = 0.2 * np.cos(2 * np.pi * g.axis_coords())
    ref = ReferenceMeasure.from_potential(V, g)
    m0 = np.exp(0.4 * np.sin(2 * np.pi * g.axis_coords()))
    if g.dim == 2:
        m0 = np.add.outer(m0, 0.5 * m0)
    m0 /= integrate(m0, g)
    rho = 0.4 if case.endswith("rho") else 0.0
    return EllipticProblem(g, ref, 0.15, m0, np.roll(m0, 3, axis=0), delta=delta, rho=rho)


def assert_jacobian_matches_finite_differences(u, prob):
    from otgeo.elliptic import _assemble_jacobian
    J = _assemble_jacobian(u, prob).toarray()
    h = 1e-6
    for col, ix in enumerate(np.ndindex(u.shape)):
        up, um = u.copy(), u.copy()
        up[ix] += h
        um[ix] -= h
        fd = ((elliptic_residual(up, prob)[0] - elliptic_residual(um, prob)[0])
              / (2 * h)).ravel()
        assert np.max(np.abs(fd - J[:, col])) < 5e-6


def solve_elliptic_at_delta(problem, config=None):
    from otgeo.elliptic import _solve_at_delta
    config = config or EllipticConfig()
    u = np.zeros((problem.grid.n_time + 1,) + problem.grid.space_shape)
    return _solve_at_delta(u, problem, config)


class TestSolveElliptic:
    def test_stationary_exactness(self):
        g, ref, ms, prob = cosine_setup()
        u, m, rep = solve_elliptic(prob)
        assert rep.objective == pytest.approx(-0.1 * ref.log_normalizer, abs=2e-6)
        assert np.max(np.abs(m.values - ms)) < 1e-6

    def test_uniform_marginals_flat_potential(self):
        g = build_grid(1, 32, 16, 1.0)
        ref = ReferenceMeasure.from_potential(0.0, g)
        m0 = np.ones(32)
        u, m, rep = solve_elliptic(EllipticProblem(g, ref, 0.1, m0, m0))
        assert np.max(np.abs(m.values - 1.0)) < 1e-8
        assert np.ptp(u.values) < 1e-8

    def test_positivity_precondition(self):
        g = build_grid(1, 32, 8, 1.0)
        ref = ReferenceMeasure.from_potential(0.0, g)
        m0 = np.zeros(32)
        m0[0] = 1.0 / g.h
        with pytest.raises(ValueError, match="strictly positive"):
            solve_elliptic(EllipticProblem(g, ref, 0.1, m0, np.ones(32)))

    def test_mass_drift_shrinks_under_refinement(self):
        drifts = []
        for (n, nt) in ((32, 16), (64, 32)):
            g = build_grid(1, n, nt, 1.0)
            x = g.axis_coords()
            ref = ReferenceMeasure.from_potential(0.0, g)
            q = np.exp(np.cos(2 * np.pi * x))
            q /= integrate(q, g)
            p = np.exp(0.8 * np.sin(2 * np.pi * x))
            p /= integrate(p, g)
            m0, m1 = align_null_moments(q, p, g)
            _, m, _ = solve_elliptic(EllipticProblem(g, ref, 0.1, m0, m1))
            drifts.append(max(abs(integrate(s, g) - 1.0) for s in m.values))
        assert drifts[1] < 0.35 * drifts[0]

    def test_max_principle_echo(self):
        # sup of d_t u is attained within one step of the time boundary
        g = build_grid(1, 48, 24, 1.0)
        x = g.axis_coords()
        ref = ReferenceMeasure.from_potential(0.0, g)
        q = np.exp(np.cos(2 * np.pi * x))
        q /= integrate(q, g)
        p = np.exp(0.8 * np.sin(2 * np.pi * x))
        p /= integrate(p, g)
        m0, m1 = align_null_moments(q, p, g)
        u, m, rep = solve_elliptic(EllipticProblem(g, ref, 0.1, m0, m1))
        du = (u.values[1:] - u.values[:-1]) / g.tau
        sup_interior = np.max(du[1:-1])
        sup_boundary = max(np.max(du[0]), np.max(du[-1]))
        assert sup_interior <= sup_boundary + 1e-8 * (1 + abs(sup_boundary))

    def test_gradient_bound_echo_stable_under_refinement(self):
        # |grad u|_inf <= C (1 + |u|_inf) with C stable across one refinement
        cs = []
        for (n, nt) in ((48, 24), (96, 48)):
            g = build_grid(1, n, nt, 1.0)
            x = g.axis_coords()
            ref = ReferenceMeasure.from_potential(0.0, g)
            q = np.exp(np.cos(2 * np.pi * x))
            q /= integrate(q, g)
            p = np.exp(0.8 * np.sin(2 * np.pi * x))
            p /= integrate(p, g)
            m0, m1 = align_null_moments(q, p, g)
            u, _, _ = solve_elliptic(EllipticProblem(g, ref, 0.1, m0, m1))
            from otgeo.grid import covariant_gradient, metric_norm_sq
            gn = np.sqrt(np.max(metric_norm_sq(covariant_gradient(u.values, g), g)))
            cs.append(gn / (1.0 + np.max(np.abs(u.values))))
        assert abs(cs[1] - cs[0]) <= 0.25 * max(cs)

    def test_conformal_metric_stationary(self):
        g = build_grid(1, 32, 16, 1.0, lambda x: 1 + 0.4 * np.cos(2 * np.pi * x))
        x = g.axis_coords()
        ref = ReferenceMeasure.from_potential(0.25 * np.sin(2 * np.pi * x), g)
        ms = ref.stationary_density(g)
        u, m, rep = solve_elliptic(EllipticProblem(g, ref, 0.1, ms, ms))
        assert rep.objective == pytest.approx(-0.1 * ref.log_normalizer, abs=2e-6)
        assert np.max(np.abs(m.values - ms)) < 1e-6

    def test_conformal_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        g = build_grid(1, 8, 4, 0.9, lambda x: 1 + 0.3 * np.sin(2 * np.pi * x))
        x = g.axis_coords()
        ref = ReferenceMeasure.from_potential(0.2 * np.cos(2 * np.pi * x), g)
        m0 = np.exp(0.4 * np.sin(2 * np.pi * x))
        m0 /= integrate(m0, g)
        prob = EllipticProblem(g, ref, 0.15, m0, np.roll(m0, 3), delta=0.3)
        u = 0.3 * rng.standard_normal((5, 8))
        assert_jacobian_matches_finite_differences(u, prob)

    @pytest.mark.parametrize("case", ["2d-varying-V", "1d-conformal-rho", "2d-varying-V-rho"])
    def test_jacobian_matches_finite_differences(self, case):
        prob = jacobian_case(case)
        u = 0.3 * np.random.default_rng(22).standard_normal(
            (prob.grid.n_time + 1,) + prob.grid.space_shape)
        assert_jacobian_matches_finite_differences(u, prob)

    def test_local_density_bound_constant_stable(self):
        # eps(log m + V) + kappa |grad u|^2 <= K / distances^2 with a fitted K
        # that barely moves under one refinement
        from otgeo.diagnostics import fit_local_bound_constant
        from otgeo.families import make_marginals
        ks = []
        for (n, nt) in ((64, 32), (128, 64)):
            g = build_grid(1, n, nt, 1.0)
            ref = ReferenceMeasure.from_potential(0.0, g)
            m0, m1 = make_marginals("bump_pair", {"width": 0.12, "centers": (0.0, 0.5)}, g)
            u, m, _ = solve_elliptic(EllipticProblem(g, ref, 0.1, m0, m1))
            ks.append(fit_local_bound_constant(m, u, ref, 0.1, g, kappa=0.25))
        assert abs(ks[1] - ks[0]) <= 0.25 * max(ks)

    def test_2d_stationary(self):
        g = build_grid(2, 12, 6, 1.0)
        x = g.axis_coords()
        V = 0.2 * np.cos(2 * np.pi * x)[:, None] + 0.1 * np.sin(2 * np.pi * x)[None, :]
        ref = ReferenceMeasure.from_potential(V, g)
        ms = ref.stationary_density(g)
        u, m, rep = solve_elliptic(EllipticProblem(g, ref, 0.1, ms, ms))
        assert rep.objective == pytest.approx(-0.1 * ref.log_normalizer, abs=2e-6)
        assert np.max(np.abs(m.values - ms)) < 1e-6
