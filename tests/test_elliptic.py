"""Dual solver: the closed-form pair and its defect, the dual Hessian,
Newton behavior, and the solve."""

import numpy as np
import pytest
from scipy.linalg import solveh_banded
from scipy.sparse.linalg import spsolve

from elliptic_reference import dual_hessian

from otgeo.grid import build_grid, integrate
from otgeo.transport import ReferenceMeasure, continuity_defect, dual_pair, dual_value
from otgeo.families import make_marginals
from otgeo.elliptic import (
    EllipticConfig,
    EllipticError,
    EllipticProblem,
    _apply,
    _band,
    _evaluate,
    _hessian_plan,
    _hessian_terms,
    _max_row_sum,
    newton_step,
    solve_elliptic,
)


def cosine_setup(n=64, nt=32, amp=0.3, eps=0.1):
    g = build_grid(1, n, nt, 1.0)
    x = g.axis_coords()
    ref = ReferenceMeasure.from_potential(amp * np.cos(2 * np.pi * x), g)
    ms = ref.stationary_density(g)
    return g, ref, ms, EllipticProblem(g, ref, eps, ms, ms)


def midpoint_multiplier(grid, slope):
    """``phi = slope t`` at the interval midpoints; ``slope = eps`` is the
    zero potential and ``slope = eps (1 - log Z)`` the stationary one."""
    t = grid.time_midpoints().reshape((-1,) + (1,) * grid.dim)
    return slope * t + np.zeros((grid.n_time,) + grid.space_shape)


def bump_problem(n=32, nt=16, metric=None, dim=1):
    g = build_grid(dim, n, nt, 1.0, metric)
    ref = ReferenceMeasure.from_potential(0.0, g)
    centers = (0.0, 0.5) if dim == 1 else ((0.0, 0.0), (0.5, 0.5))
    m0, m1 = make_marginals("bump_pair", {"width": 0.15, "centers": centers}, g)
    return EllipticProblem(g, ref, 0.1, m0, m1)


class TestResidual:
    """The continuity defect of the closed-form pair: Newton's residual."""

    def test_constant_potential_uniform_marginals(self):
        g = build_grid(1, 32, 8, 1.0)
        ref = ReferenceMeasure.from_potential(0.0, g)
        m0 = np.ones(32)
        m, w = dual_pair(midpoint_multiplier(g, 0.1), m0, m0, ref, 0.1, g)
        assert np.max(np.abs(continuity_defect(m, w))) < 1e-14

    def test_stationary_solution_has_small_residual(self):
        g, ref, ms, prob = cosine_setup()
        phi = midpoint_multiplier(g, prob.eps * (1.0 - ref.log_normalizer))
        assert _evaluate(phi, prob)[-1] < 1e-12

    def test_matches_independent_loop_evaluation(self):
        rng = np.random.default_rng(8)
        g = build_grid(1, 10, 6, 0.8, lambda x: 1 + 0.3 * np.sin(2 * np.pi * x))
        x = g.axis_coords()
        ref = ReferenceMeasure.from_potential(0.2 * np.sin(2 * np.pi * x), g)
        m0 = np.exp(0.3 * np.cos(2 * np.pi * x))
        m0 /= integrate(m0, g)
        m1 = np.roll(m0, 4)
        phi = 0.2 * rng.standard_normal((6, 10))
        m, w = dual_pair(phi, m0, m1, ref, 0.12, g)
        res = continuity_defect(m, w)

        tau, h, gm, sg = g.tau, g.h, g.metric, g.sqrt_g
        V = ref.potential_V
        n, Nt = 10, 6
        # face i between cells i and i + 1: metric gf, volume h sqrt(gf), and
        # the plain forward difference phix of phi
        gf = np.array([0.5 * (gm[i] + gm[(i + 1) % n]) for i in range(n)])
        phix = np.array([[(phi[k, (i + 1) % n] - phi[k, i]) / h for i in range(n)]
                         for k in range(Nt)])
        # cell average of the face |grad phi|^2 = phix^2 / gf, by face volumes
        gsq = np.array([[(np.sqrt(gf[i - 1]) * phix[k, i - 1] ** 2 / gf[i - 1]
                          + np.sqrt(gf[i]) * phix[k, i] ** 2 / gf[i]) / (2 * sg[i])
                         for i in range(n)] for k in range(Nt)])
        dens = np.empty((Nt + 1, n))
        dens[0], dens[-1] = m0, m1
        for j in range(1, Nt):
            for i in range(n):
                s = (phi[j, i] - phi[j - 1, i]) / tau + (gsq[j - 1, i] + gsq[j, i]) / 4
                dens[j, i] = np.exp(s / 0.12 - V[i] - 1)
        flux = np.array([[-0.25 * (dens[k, i] + dens[k, (i + 1) % n] + dens[k + 1, i]
                                   + dens[k + 1, (i + 1) % n]) * phix[k, i] / gf[i]
                          for i in range(n)] for k in range(Nt)])
        for k in range(Nt):
            for i in range(n):
                im = (i - 1) % n
                div = (np.sqrt(gf[i]) * flux[k, i] - np.sqrt(gf[im]) * flux[k, im]) / (h * sg[i])
                expect = (dens[k + 1, i] - dens[k, i]) / tau - div
                assert res[k, i] == pytest.approx(expect, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(m.values, dens, rtol=1e-13)


class TestRecoverDensity:
    """The pair's density at the multipliers of known potentials."""

    def test_zero_potential_gives_uniform(self):
        g = build_grid(1, 32, 8, 1.0)
        ref = ReferenceMeasure.from_potential(0.0, g)
        m, w = dual_pair(midpoint_multiplier(g, 0.1), np.ones(32), np.ones(32), ref, 0.1, g)
        assert np.max(np.abs(m.values - 1.0)) < 1e-14
        assert np.max(np.abs(w.values)) == 0.0

    def test_linear_drift_gives_stationary(self):
        g, ref, ms, prob = cosine_setup(n=32, nt=16)
        phi = midpoint_multiplier(g, prob.eps * (1.0 - ref.log_normalizer))
        m, _ = dual_pair(phi, ms, ms, ref, prob.eps, g)
        assert np.max(np.abs(m.values - ms)) < 1e-12

    def test_overflow_guard(self):
        # an exponent past the float range gives G = -inf, which no line
        # search step accepts; the pair is not formed
        g = build_grid(1, 16, 8, 1.0)
        ref = ReferenceMeasure.from_potential(0.0, g)
        prob = EllipticProblem(g, ref, 1e-3, np.ones(16), np.ones(16))
        phi = midpoint_multiplier(g, 2000.0)
        with np.errstate(all="raise"):
            value, m, w, defect, residual = _evaluate(phi, prob)
        assert value == -np.inf and residual == np.inf
        assert m is None and w is None and defect is None


def hessian_case(case):
    """Small problems with a varying V on each kind of grid."""
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
    return EllipticProblem(g, ref, 0.15, m0, np.roll(m0, 2, axis=0))


def dense(band, plan):
    """The symmetric matrix whose lower band is ``band``, on the free nodes
    in their natural order (the reference's)."""
    size = band.shape[1]
    H = np.zeros((size, size))
    for below in range(band.shape[0]):
        cols = np.arange(size - below)
        H[cols + below, cols] = H[cols, cols + below] = band[below, :size - below]
    free = plan.rank[1:]
    return H[np.ix_(free, free)]


def hessian(phi, problem):
    """``-Hess G`` at ``phi`` as the solver assembles it, dense in natural order."""
    g = problem.grid
    plan = _hessian_plan(g)
    return dense(_band(_hessian_terms(phi, _evaluate(phi, problem)[1], problem), plan, g), plan)


def assert_hessian_matches_finite_differences(problem, seed):
    """The assembled ``-Hess G`` against central differences of ``grad G``."""
    g = problem.grid
    phi = 0.05 * np.random.default_rng(seed).standard_normal((g.n_time,) + g.space_shape)
    free = np.arange(1, phi.size)
    H = hessian(phi, problem)
    weight = g.tau * np.broadcast_to(g.cell_volume, phi.shape)

    def gradient(p):
        return (weight * _evaluate(p, problem)[3]).ravel()[free]

    h = 1e-6
    for col, flat in enumerate(free):
        step = np.zeros(phi.size)
        step[flat] = h
        step = step.reshape(phi.shape)
        fd = (gradient(phi + step) - gradient(phi - step)) / (2 * h)
        assert np.max(np.abs(fd + H[:, col])) < 1e-8 * np.max(np.abs(H))
    np.testing.assert_allclose(H, H.T, rtol=0, atol=1e-14 * np.max(np.abs(H)))
    assert np.min(np.linalg.eigvalsh(H)) > 0


def plan_arrays(part):
    """Every array of a :func:`_hessian_plan`, nested tuples flattened."""
    if isinstance(part, np.ndarray):
        return [part]
    return [a for p in part for a in plan_arrays(p)] if isinstance(part, tuple) else []


class TestScatterAssembly:
    """The Hessian scattered into band storage against the sparse-product
    reference assembly, its matrix-free product, and the linear solves."""

    @pytest.mark.parametrize("case", ["1d-conformal", "1d-flat-varying-V", "2d-varying-V"])
    def test_matches_reference_assembly(self, case):
        problem = hessian_case(case)
        g = problem.grid
        phi = 0.05 * np.random.default_rng(31).standard_normal((g.n_time,) + g.space_shape)
        H = hessian(phi, problem)
        reference = dual_hessian(phi, _evaluate(phi, problem)[1], problem).toarray()
        assert np.max(np.abs(H - reference)) <= 1e-15 * np.max(np.abs(H))

    @pytest.mark.parametrize("case", ["1d-conformal", "2d-varying-V"])
    def test_max_row_sum_of_the_band(self, case):
        # the rounding allowance of the linear check reads |H|_inf off the band
        problem = hessian_case(case)
        g = problem.grid
        phi = 0.05 * np.random.default_rng(33).standard_normal((g.n_time,) + g.space_shape)
        plan = _hessian_plan(g)
        band = _band(_hessian_terms(phi, _evaluate(phi, problem)[1], problem), plan, g)
        expected = np.abs(dense(band, plan)).sum(axis=1).max()
        assert _max_row_sum(band) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("case", ["1d-conformal", "1d-flat-varying-V", "2d-varying-V"])
    def test_matrix_free_product_matches_reference(self, case):
        problem = hessian_case(case)
        g = problem.grid
        rng = np.random.default_rng(32)
        phi = 0.05 * rng.standard_normal((g.n_time,) + g.space_shape)
        m = _evaluate(phi, problem)[1]
        terms, plan = _hessian_terms(phi, m, problem), _hessian_plan(g)
        reference = dual_hessian(phi, m, problem)
        for _ in range(3):
            x = rng.standard_normal(phi.size - 1)              # the free nodes, natural order
            product = _apply(terms, x[plan.order - 1], plan, g)
            expected = (reference @ x)[plan.order - 1]
            assert np.max(np.abs(product - expected)) <= 1e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize("shape", [{}, {"metric": lambda x: 1 + 0.5 * np.sin(2 * np.pi * x)},
                                       {"n": 12, "nt": 6, "dim": 2}],
                             ids=["flat", "conformal", "2d"])
    def test_banded_solve_matches_spsolve(self, shape):
        # the systems of the first Newton steps; both solvers are backward
        # stable, so they differ by about cond(H) times the rounding unit
        problem = bump_problem(**shape)
        g = problem.grid
        plan = _hessian_plan(g)
        phi = np.zeros((g.n_time,) + g.space_shape)
        for _ in range(3):
            _, m, _, defect, _ = _evaluate(phi, problem)
            rhs = (g.tau * g.cell_volume * defect).ravel()
            band = _band(_hessian_terms(phi, m, problem), plan, g)
            solution = solveh_banded(band, rhs[plan.order], lower=True)[plan.rank[1:]]
            expected = spsolve(dual_hessian(phi, m, problem).tocsc(), rhs[1:])
            assert np.linalg.norm(solution - expected) <= 1e-12 * np.linalg.norm(expected)
            phi = newton_step(phi, problem)[0]

    def test_equal_grids_share_one_plan(self):
        metric = lambda x: 1 + 0.3 * np.sin(2 * np.pi * x)
        plan = _hessian_plan(build_grid(1, 12, 6, 1.0, metric))
        assert _hessian_plan(build_grid(1, 12, 6, 1.0, metric)) is plan
        assert _hessian_plan(build_grid(1, 12, 6, 1.0)) is not plan

    def test_plan_past_46340_unknowns(self):
        # 1-D 256x182 has 46 591 free unknowns, past sqrt(2^31): the plan builds,
        # and every term lands inside the band or in the spare slot past it
        g = build_grid(1, 256, 182, 1.0)
        plan = _hessian_plan(g)
        size = g.n_space * g.n_time - 1
        assert plan.shape == (g.n_space + 5, size)
        assert plan.positions.dtype == np.int64
        assert 0 <= plan.positions.min() and plan.positions.max() == size * plan.shape[0]
        assert np.array_equal(np.sort(plan.rank), np.arange(size + 1)) and plan.rank[0] == size
        _hessian_plan.cache_clear()

    @pytest.mark.parametrize("dim, n, nt", [(1, 32, 16), (1, 8, 4), (2, 16, 8), (2, 12, 6)])
    def test_band_width_of_the_folded_order(self, dim, n, nt):
        # each ring folded: n + 4 below the diagonal in 1-D, n^2 + 4 n in 2-D
        g = build_grid(dim, n, nt, 1.0)
        rows, columns = _hessian_plan(g).shape
        assert rows == (n + 4 if dim == 1 else n * n + 4 * n) + 1
        assert columns == n ** dim * nt - 1

    @pytest.mark.parametrize("case", ["1d-conformal", "2d-varying-V"])
    def test_newton_step_leaves_the_cached_plan_unchanged(self, case):
        # every Hessian is built on the plan's own index arrays
        problem = hessian_case(case)
        g = problem.grid
        arrays = plan_arrays(_hessian_plan(g))
        before = [a.copy() for a in arrays]
        phi = np.zeros((g.n_time,) + g.space_shape)
        newton_step(newton_step(phi, problem)[0], problem)
        assert not any(a.flags.writeable for a in arrays)
        assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(arrays, before))

    def test_indefinite_hessian_raises_with_iterate_and_history(self, monkeypatch):
        import otgeo.elliptic as ell
        problem = bump_problem(n=16, nt=8)
        original = ell._band
        monkeypatch.setattr(ell, "_band", lambda *args: -original(*args))
        with pytest.raises(EllipticError, match="linear solve failed") as info:
            solve_elliptic(problem)
        err = info.value
        assert not np.any(err.iterate) and err.iterate.shape == (8, 16)
        assert len(err.residual_history) == len(err.objective_history) == 1
        assert err.residual_history[0] == _evaluate(err.iterate, problem)[-1]


class TestNewton:
    def test_step_from_exact_solution_is_tiny(self):
        prob = bump_problem()
        _, _, rep = solve_elliptic(prob)
        phi, _, point = newton_step(rep.multiplier, prob)   # polish to rounding level
        _, step, _ = newton_step(phi, prob, point=point)
        assert step <= 1e-10

    def test_quadratic_contraction_near_solution(self):
        prob = bump_problem()
        g = prob.grid
        _, _, rep = solve_elliptic(prob)
        x = g.axis_coords()
        t = g.time_midpoints()[:, None]
        # smooth perturbation inside the Newton basin
        trial = rep.multiplier + 5e-3 * np.sin(2 * np.pi * x)[None, :] * np.cos(np.pi * t)
        point = _evaluate(trial, prob)
        norms = [point[-1]]
        for _ in range(3):
            trial, _, point = newton_step(trial, prob, point=point)
            norms.append(point[-1])
        # quadratic contraction: each step squares the error (up to a constant)
        assert norms[1] < 2.0 * norms[0] ** 2 or norms[1] < 1e-11
        assert norms[2] < 2.0 * norms[1] ** 2 or norms[2] < 1e-11
        assert norms[3] < 2.0 * norms[2] ** 2 or norms[3] < 1e-12

    def test_residual_is_passed_through(self):
        prob = bump_problem(n=16, nt=8)
        phi = 0.01 * np.sin(2 * np.pi * prob.grid.axis_coords())[None, :] * np.ones((8, 1))
        phi1, step1, point1 = newton_step(phi, prob)
        phi2, step2, point2 = newton_step(phi, prob, point=_evaluate(phi, prob))
        assert phi1.tobytes() == phi2.tobytes() and step1 == step2
        again = _evaluate(phi2, prob)
        assert again[0] == point2[0] == point1[0] and again[-1] == point2[-1]
        assert again[3].tobytes() == point2[3].tobytes()

    def test_non_finite_dual_value_raises_elliptic_error(self):
        # a jump of phi in time overflows the interior density, so G = -inf
        # and the point carries no pair to build the Hessian from
        prob = bump_problem(n=16, nt=8)
        phi = np.zeros((8, 16))
        phi[1:] = 1e3
        assert _evaluate(phi, prob)[0] == -np.inf
        with pytest.raises(EllipticError, match="not finite") as err:
            newton_step(phi, prob)
        assert err.value.iterate is phi

    def test_evaluation_minimizes_the_lagrangian_once(self, monkeypatch):
        # G and the pair come from one closed-form minimizer per point
        import otgeo.elliptic as ell
        import otgeo.transport as tr
        calls = []
        for module in (ell, tr):
            original = module._dual_minimizer
            monkeypatch.setattr(module, "_dual_minimizer",
                                lambda *args, f=original: calls.append(1) or f(*args))
        problem = bump_problem(n=16, nt=8)
        _evaluate(np.zeros((8, 16)), problem)
        assert len(calls) == 1

    def test_each_newton_point_is_evaluated_once(self, monkeypatch):
        import otgeo.elliptic as ell
        g, ref, ms, _ = cosine_setup(n=16, nt=8)
        prob = EllipticProblem(g, ref, 0.1, np.roll(ms, 4), ms)
        seen = []
        original = ell._evaluate

        def counted(phi, problem):
            seen.append(np.asarray(phi).tobytes())
            return original(phi, problem)

        monkeypatch.setattr(ell, "_evaluate", counted)
        _, _, rep = solve_elliptic(prob)
        assert rep.iterations >= 3
        assert len(seen) == len(set(seen))

    def test_solve_evaluates_each_point_once(self, monkeypatch):
        import otgeo.elliptic as ell
        prob = bump_problem(n=16, nt=8)
        seen = []
        original = ell._evaluate

        def counted(phi, problem):
            out = original(phi, problem)
            seen.append((np.asarray(phi).tobytes(), out[-1]))
            return out

        monkeypatch.setattr(ell, "_evaluate", counted)
        _, _, rep = solve_elliptic(prob)
        assert len(seen) == len({phi for phi, _ in seen})
        # the last point evaluated is the final iterate
        assert seen[-1] == (rep.multiplier.tobytes(), rep.final_residual)


class TestSolveElliptic:
    def test_stationary_exactness(self):
        g, ref, ms, prob = cosine_setup()
        u, m, rep = solve_elliptic(prob)
        assert rep.objective == pytest.approx(-0.1 * ref.log_normalizer, abs=1e-13)
        assert np.max(np.abs(m.values - ms)) < 1e-12

    def test_uniform_marginals_flat_potential(self):
        g = build_grid(1, 32, 16, 1.0)
        ref = ReferenceMeasure.from_potential(0.0, g)
        m0 = np.ones(32)
        u, m, rep = solve_elliptic(EllipticProblem(g, ref, 0.1, m0, m0))
        assert np.max(np.abs(m.values - 1.0)) < 1e-8
        assert np.ptp(u.values) < 1e-8

    def test_list_marginals_solved_as_arrays(self):
        # the same lists solve_prox takes; validate keeps check_marginals' arrays
        g = build_grid(1, 16, 8, 1.0)
        ref = ReferenceMeasure.from_potential(0.0, g)
        ones = [1.0] * 16
        problem = EllipticProblem(g, ref, 0.1, ones, ones)
        u, m, rep = solve_elliptic(problem)
        assert isinstance(problem.m0, np.ndarray) and isinstance(problem.m1, np.ndarray)
        assert np.max(np.abs(m.values - 1.0)) < 1e-8

    def test_positivity_precondition(self):
        # a negative cell or a mass off 1 is no probability density; an empty
        # cell is (test_odd_shift_and_empty_cells_solve)
        g = build_grid(1, 32, 8, 1.0)
        ref = ReferenceMeasure.from_potential(0.0, g)
        m0 = np.ones(32)
        m0[:2] = (-0.5, 2.5)
        with pytest.raises(ValueError, match="negative cell"):
            solve_elliptic(EllipticProblem(g, ref, 0.1, m0, np.ones(32)))
        with pytest.raises(ValueError, match="mass"):
            solve_elliptic(EllipticProblem(g, ref, 0.1, np.full(32, 1.5), np.ones(32)))

    def test_non_finite_marginal_rejected(self):
        g = build_grid(1, 16, 8, 1.0)
        m0 = np.ones(16)
        m0[3] = np.nan
        ref = ReferenceMeasure.from_potential(0.0, g)
        problem = EllipticProblem(g, ref, 0.1, m0, np.ones(16))
        with pytest.raises(ValueError, match="non-finite cell"):
            problem.validate()
        with pytest.raises(ValueError, match="non-finite cell"):
            solve_elliptic(problem)

    @pytest.mark.parametrize("eps", [np.nan, np.inf, -0.1])
    def test_non_finite_eps_rejected(self, eps):
        g = build_grid(1, 16, 8, 1.0)
        ref = ReferenceMeasure.from_potential(0.0, g)
        with pytest.raises(ValueError, match="eps must be finite and positive"):
            solve_elliptic(EllipticProblem(g, ref, eps, np.ones(16), np.ones(16)))

    @pytest.mark.parametrize("field,value", [
        ("newton_tolerance", np.nan), ("newton_tolerance", True),
    ])
    def test_config_rejects_non_finite_and_bool(self, field, value):
        # a NaN tolerance made the Newton loop stop at once and report success
        with pytest.raises(ValueError, match=field):
            EllipticConfig(**{field: value}).validate()

    def test_odd_shift_and_empty_cells_solve(self):
        # an odd shift moves mass between even and odd cells, and one loaded
        # cell leaves every other empty: the face fluxes do both
        g = build_grid(1, 32, 8, 1.0)
        ref = ReferenceMeasure.from_potential(0.0, g)
        m0 = 1.0 + 0.5 * np.random.default_rng(5).random(32)
        m0 /= integrate(m0, g)
        point = np.zeros(32)
        point[3] = 1.0 / g.h
        for m1 in (np.roll(m0, 3), point):
            _, m, rep = solve_elliptic(EllipticProblem(g, ref, 0.1, m0, m1))
            assert rep.final_residual < 1e-9 and np.min(m.values[1:-1]) > 0
            # the mass moves only by the remaining defect, below newton_tolerance
            assert max(abs(integrate(s, g) - 1.0) for s in m.values) < 1e-9

    def test_mass_is_conserved(self):
        for (n, nt) in ((32, 16), (64, 32)):
            g = build_grid(1, n, nt, 1.0)
            x = g.axis_coords()
            ref = ReferenceMeasure.from_potential(0.0, g)
            q = np.exp(np.cos(2 * np.pi * x))
            q /= integrate(q, g)
            p = np.exp(0.8 * np.sin(2 * np.pi * x))
            p /= integrate(p, g)
            m0, m1 = q, p
            _, m, _ = solve_elliptic(EllipticProblem(g, ref, 0.1, m0, m1))
            assert max(abs(integrate(s, g) - 1.0) for s in m.values) < 1e-12

    def test_report_matches_the_dual(self):
        prob = bump_problem(metric=lambda x: 1 + 0.5 * np.sin(2 * np.pi * x))
        u, m, rep = solve_elliptic(prob)
        args = (prob.m0, prob.m1, prob.reference, prob.eps, prob.grid)
        G = dual_value(rep.multiplier, *args)
        assert abs(rep.objective - G) <= 1e-12 * (1.0 + abs(rep.objective))
        assert rep.duality_gap <= 1e-12 and rep.certified_gap is None
        assert len(rep.residual_history) == len(rep.objective_history) == rep.iterations + 1
        assert rep.residual_history[-1] == rep.final_residual < 1e-9
        assert rep.objective_history[-1] == G
        assert np.all(np.diff(rep.objective_history) > -1e-14)

    def test_failure_carries_the_last_iterate_and_history(self):
        prob = bump_problem()
        with pytest.raises(EllipticError, match="did not converge") as info:
            solve_elliptic(prob, EllipticConfig(max_newton_iterations=1))
        err = info.value
        assert err.delta is None
        assert err.iterate.shape == (prob.grid.n_time,) + prob.grid.space_shape
        assert len(err.residual_history) == len(err.objective_history) == 2
        assert err.residual_history[1] == _evaluate(err.iterate, prob)[-1]

    def test_max_principle_echo(self):
        # sup of d_t u is attained within one step of the time boundary
        g = build_grid(1, 48, 24, 1.0)
        x = g.axis_coords()
        ref = ReferenceMeasure.from_potential(0.0, g)
        q = np.exp(np.cos(2 * np.pi * x))
        q /= integrate(q, g)
        p = np.exp(0.8 * np.sin(2 * np.pi * x))
        p /= integrate(p, g)
        m0, m1 = q, p
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
            m0, m1 = q, p
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
        assert rep.objective == pytest.approx(-0.1 * ref.log_normalizer, abs=1e-13)
        assert np.max(np.abs(m.values - ms)) < 1e-12

    def test_conformal_jacobian_matches_finite_differences(self):
        # the Jacobian of the dual gradient is the assembled -Hess G
        assert_hessian_matches_finite_differences(hessian_case("1d-conformal"), 21)

    @pytest.mark.parametrize("case", ["2d-varying-V", "1d-flat-varying-V"])
    def test_jacobian_matches_finite_differences(self, case):
        assert_hessian_matches_finite_differences(hessian_case(case), 22)

    def test_2d_stationary(self):
        g = build_grid(2, 12, 6, 1.0)
        x = g.axis_coords()
        V = 0.2 * np.cos(2 * np.pi * x)[:, None] + 0.1 * np.sin(2 * np.pi * x)[None, :]
        ref = ReferenceMeasure.from_potential(V, g)
        ms = ref.stationary_density(g)
        u, m, rep = solve_elliptic(EllipticProblem(g, ref, 0.1, ms, ms))
        assert rep.objective == pytest.approx(-0.1 * ref.log_normalizer, abs=1e-13)
        assert np.max(np.abs(m.values - ms)) < 1e-12
