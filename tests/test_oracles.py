"""Ground-truth oracles: circular and torus W2 against the transportation LP,
the McCann interpolant, the heat flow and its competitor."""

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm
from scipy.optimize import linprog

from otgeo.grid import build_grid, integrate, laplace_beltrami
from otgeo.transport import ROUNDING, ReferenceMeasure
from otgeo.prox import solve_prox
from otgeo.oracles import (
    circular_w2_oracle,
    flow_w2_oracle,
    heat_bound_window,
    heat_competitor_bound,
    heat_semigroup,
    mccann_midpoint,
    momentum_from_density_steps,
)


def circle_cost(grid):
    """Periodic squared distance between the nodes of one axis."""
    n = grid.n_space
    d = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    return (np.minimum(d, n - d) * grid.h) ** 2


def torus_cost(grid):
    """Periodic squared distance between the cells of the 2-D torus, in
    the order of ``ravel``."""
    c = circle_cost(grid)
    size = grid.n_space ** 2
    return (c[:, None, :, None] + c[None, :, None, :]).reshape(size, size)


def lp_w2(m0, m1, grid, cost):
    """Independent exact reference: the full transportation LP between the
    cells of the grid, with ground ``cost`` between them."""
    a = (m0 * grid.cell_volume).ravel()
    b = (m1 * grid.cell_volume).ravel()
    a, b = a / a.sum(), b / b.sum()
    n = a.size
    nvar = n * n
    rows = np.concatenate([np.repeat(np.arange(n), n), n + np.tile(np.arange(n), n)])
    cols = np.concatenate([np.arange(nvar), np.arange(nvar)])
    A = sparse.csr_matrix((np.ones(2 * nvar), (rows, cols)), shape=(2 * n, nvar))
    # HiGHS's default feasibility tolerances (1e-7) leave errors up to 2e-9
    # on marginals with near-empty cells; at 1e-10 its presolve declares some
    # of them infeasible, so it is off
    res = linprog(cost.ravel(), A_eq=A[:-1], b_eq=np.concatenate([a, b])[:-1],
                  bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10, "presolve": False})
    assert res.status == 0
    return res.fun


def _density(cells, g):
    m = np.asarray(cells, dtype=float)
    return m / integrate(m, g)


def _lp_instances(kind):
    """Marginal pairs ``(m0, m1, grid)`` of one kind, for the LP comparison."""
    rng = np.random.default_rng(12)
    if kind == "smooth":
        g = build_grid(1, 32, 4, 1.0)
        x = g.axis_coords()
        return [(_density(np.exp(rng.standard_normal() * np.sin(2 * np.pi * x)
                                 + 0.4 * rng.standard_normal() * np.cos(4 * np.pi * x)), g),
                 _density(np.exp(0.6 * np.cos(2 * np.pi * (x - rng.random()))), g), g)
                for _ in range(4)]
    if kind == "zero_cells":
        g = build_grid(1, 32, 4, 1.0)
        return [(_density(rng.random(32) * (rng.random(32) < 0.5), g),
                 _density(rng.random(32) * (rng.random(32) < 0.5), g), g) for _ in range(4)]
    if kind == "point_masses":
        g = build_grid(1, 40, 4, 1.0)
        pairs = (({0}, {28}), ({3}, {35}), ({0, 5}, {28}), ({0, 20}, {10, 30}))
        return [(_density(np.isin(np.arange(40), list(a)), g),
                 _density(np.isin(np.arange(40), list(b)), g), g) for a, b in pairs]
    if kind == "odd_n":
        g = build_grid(1, 33, 4, 1.0)
        return [(_density(rng.random(33) + 0.01, g), _density(rng.random(33) + 0.01, g), g)
                for _ in range(4)]
    if kind == "narrow_bumps":
        # antipodal bumps exp(-d^2 / 0.01), whose tails hold cells down to 1e-11
        out = []
        for n in (16, 19, 23, 26, 30, 33):
            g = build_grid(1, n, 4, 1.0)
            centre = rng.random()
            d = (g.axis_coords()[None, :] - np.array([centre, centre + 0.5])[:, None]) % 1.0
            m0, m1 = np.exp(-np.minimum(d, 1.0 - d) ** 2 / 0.01)
            out.append((_density(m0, g), _density(m1, g), g))
        return out
    # antipodal_tie: a plateau of optimal offsets
    from otgeo.families import make_marginals
    grids = [build_grid(1, n, 4, 1.0) for n in (16, 32)]
    return [make_marginals("bump_pair", {}, g) + (g,) for g in grids]


def _breakpoint_costs(p, q, g):
    """The shift cost at every breakpoint in ``[-2, 2)``, found by brute force."""
    from otgeo.oracles import _shift_cost
    cp, cq = np.cumsum(p), np.cumsum(q)
    base = np.unique((cp[:, None] - cq[None, :]).ravel() % 1.0)
    alphas = np.concatenate([base + k for k in (-2.0, -1.0, 0.0, 1.0)])
    xs = np.arange(g.n_space) * g.h
    return alphas, np.array([_shift_cost(cp, cq, xs, g.length, a) for a in alphas])


class TestCircularW2:
    def test_identical_measures(self):
        g = build_grid(1, 32, 4, 1.0)
        m = np.exp(np.cos(2 * np.pi * g.axis_coords()))
        m /= integrate(m, g)
        assert circular_w2_oracle(m, m, g) == pytest.approx(0.0, abs=1e-14)

    def test_point_masses_short_arc(self):
        g = build_grid(1, 40, 4, 1.0)
        m0 = np.zeros(40)
        m0[0] = 1.0 / g.h
        m1 = np.zeros(40)
        m1[12] = 1.0 / g.h
        assert circular_w2_oracle(m0, m1, g) == pytest.approx(0.09, abs=1e-12)
        # the same arc the other way round, where the optimal CDF offset is 1
        assert circular_w2_oracle(m0, np.roll(m1, 16), g) == pytest.approx(0.09, abs=1e-12)

    def test_point_masses_antipodal(self):
        g = build_grid(1, 40, 4, 1.0)
        m0 = np.zeros(40)
        m0[0] = 1.0 / g.h
        m1 = np.zeros(40)
        m1[20] = 1.0 / g.h
        assert circular_w2_oracle(m0, m1, g) == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize(
        "kind", ["smooth", "zero_cells", "point_masses", "odd_n", "antipodal_tie",
                 "narrow_bumps"])
    def test_matches_transportation_lp_on_random_instances(self, kind):
        for m0, m1, g in _lp_instances(kind):
            assert circular_w2_oracle(m0, m1, g) == pytest.approx(
                lp_w2(m0, m1, g, circle_cost(g)), abs=1e-10)

    @pytest.mark.parametrize("n", [16, 32])
    def test_antipodal_tie_returns_the_smallest_minimizer(self, n):
        # antipodal bumps have a plateau of optimal offsets; the search takes its left end
        from otgeo.families import make_marginals
        from otgeo.oracles import _optimal_shift
        g = build_grid(1, n, 4, 1.0)
        p, q = (m / m.sum() for m in make_marginals("bump_pair", {}, g))
        alphas, costs = _breakpoint_costs(p, q, g)
        plateau = alphas[costs <= costs.min() + 1e-13]
        assert plateau.max() - plateau.min() > 0.04
        alpha, best, _, _ = _optimal_shift(p, q, np.arange(n) * g.h, g.length)
        assert alpha == pytest.approx(plateau.min(), abs=1e-12)
        assert best == pytest.approx(costs.min(), abs=1e-15)

    def test_search_cost_is_logarithmic(self, monkeypatch):
        from otgeo import oracles
        from otgeo.families import make_marginals
        calls = {"slope": 0, "cost": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(oracles, "_shift_slope", counted("slope", oracles._shift_slope))
        monkeypatch.setattr(oracles, "_shift_cost", counted("cost", oracles._shift_cost))
        for n in (33, 64):
            g = build_grid(1, n, 4, 1.0)
            m0, m1 = make_marginals("bump_pair", {"centers": [0.1, 0.7]}, g)
            calls.update(slope=0, cost=0)
            circular_w2_oracle(m0, m1, g)
            assert calls["slope"] <= 2 * int(np.ceil(np.log2(2 * n * n)))
            assert calls["cost"] == 1

    def test_shift_slope_matches_central_differences(self):
        from otgeo.oracles import _shift_cost, _shift_slope
        rng = np.random.default_rng(14)
        n = 24
        xs = np.arange(n) / n
        for _ in range(10):
            p = rng.random(n) * (rng.random(n) < 0.7)
            q = rng.random(n) + 0.01
            cp, cq = np.cumsum(p / p.sum()), np.cumsum(q / q.sum())
            base = np.unique((cp[:, None] - cq[None, :]).ravel() % 1.0)
            breaks = np.concatenate([base - 1.0, base, base + 1.0])
            for i in np.argsort(np.diff(breaks))[-5:]:
                a, d = 0.5 * (breaks[i] + breaks[i + 1]), 0.25 * (breaks[i + 1] - breaks[i])
                fd = (_shift_cost(cp, cq, xs, 1.0, a + d)
                      - _shift_cost(cp, cq, xs, 1.0, a - d)) / (2 * d)
                assert _shift_slope(cp, cq, a) / n ** 2 == pytest.approx(fd, abs=1e-10)

    def test_cdf_ending_just_below_one(self):
        # these marginals' cumulative sums end below 1 by a rounding error
        from otgeo.families import make_marginals
        g = build_grid(1, 64, 32, 1.0)
        m0, m1 = make_marginals("bump_pair", {"width": 0.08, "centers": [
            0.5366333278673542, 0.03663332786735429]}, g)
        assert circular_w2_oracle(m0, m1, g) == pytest.approx(
            lp_w2(m0, m1, g, circle_cost(g)), abs=1e-10)
        assert integrate(mccann_midpoint(m0, m1, g), g) == pytest.approx(1.0, abs=1e-12)

    def test_shift_cost_is_convex_in_the_offset(self):
        # the bisection on the sign of the slope relies on convexity of the quantile cost
        from otgeo.oracles import _shift_cost
        rng = np.random.default_rng(13)
        g = build_grid(1, 24, 4, 1.0)
        xs = g.axis_coords()
        p = rng.random(24) + 0.05
        q = rng.random(24) + 0.05
        p, q = p / p.sum(), q / q.sum()
        cp, cq = np.cumsum(p), np.cumsum(q)
        alphas = np.linspace(-0.5, 0.5, 301)
        costs = np.array([_shift_cost(cp, cq, xs, 1.0, a) for a in alphas])
        d2 = costs[2:] - 2 * costs[1:-1] + costs[:-2]
        assert np.min(d2) > -1e-9


class TestMcCannMidpoint:
    def test_unit_mass_and_location(self):
        g = build_grid(1, 64, 4, 1.0)
        x = g.axis_coords()
        kappa = 1.0 / (2 * np.pi * 0.08) ** 2
        q = np.exp(kappa * (np.cos(2 * np.pi * x) - 1))
        q /= integrate(q, g)
        mid = mccann_midpoint(q, np.roll(q, 16), g)
        assert integrate(mid, g) == pytest.approx(1.0, abs=1e-12)
        assert abs(x[np.argmax(mid)] - 0.125) < 2 * g.h

    def test_endpoints_reproduce_marginals(self):
        g = build_grid(1, 32, 4, 1.0)
        x = g.axis_coords()
        q = np.exp(np.cos(2 * np.pi * x))
        q /= integrate(q, g)
        p = np.roll(q, 5)
        back = mccann_midpoint(q, p, g, t=0.0)
        assert np.max(np.abs(back - q)) < 1e-10
        forward = mccann_midpoint(q, p, g, t=1.0)
        assert np.max(np.abs(forward - p)) < 1e-10


class TestFlowW2:
    def test_identical_measures(self):
        g = build_grid(2, 8, 4, 1.0)
        m = np.ones(g.space_shape)
        assert flow_w2_oracle(m, m, g) == pytest.approx(0.0, abs=1e-12)

    def test_translation_upper_bound(self):
        g = build_grid(2, 12, 4, 1.0)
        x = g.axis_coords()
        kappa = 1.0 / (2 * np.pi * 0.12) ** 2
        q = np.exp(kappa * (np.cos(2 * np.pi * x[:, None]) - 1)
                   + kappa * (np.cos(2 * np.pi * x[None, :]) - 1))
        q /= integrate(q, g)
        shifted = np.roll(q, 3, axis=0)   # translate by 0.25 in x
        val = flow_w2_oracle(q, shifted, g)
        assert val <= 0.0625 + 1e-10

    @pytest.mark.parametrize("n, family", [(8, "bump_pair"), (12, "bump_pair"),
                                           (12, "point_like")])
    def test_matches_transportation_lp(self, n, family):
        # at HiGHS's default 1e-7 feasibility the same LP misses the second
        # 8^2 bump pair by 1.0e-9 and the third 12^2 one by 4.5e-9
        from otgeo.families import make_marginals
        g = build_grid(2, n, 4, 1.0)
        rng = np.random.default_rng(n)
        params = ([{"centers": rng.random((2, 2)).tolist()} for _ in range(3)]
                  if family == "bump_pair" else [{"smoothing_steps": 1}])
        for p in params:
            m0, m1 = make_marginals(family, p, g)
            assert flow_w2_oracle(m0, m1, g) == pytest.approx(
                lp_w2(m0, m1, g, torus_cost(g)), abs=1e-14)

    def test_non_product_pair_raises(self):
        from otgeo.families import make_marginals
        g = build_grid(2, 8, 4, 1.0)
        m0, m1 = make_marginals("step", {}, g)
        for oracle in (flow_w2_oracle, mccann_midpoint):
            with pytest.raises(ValueError, match="product"):
                oracle(m0, m1, g)
        # the floor makes the step pair a sum, not a product
        m0, m1 = make_marginals("step", {"floor": 0.0}, g)
        assert flow_w2_oracle(m0, m1, g) > 0

    def test_midpoint_is_the_product_of_the_axis_midpoints(self):
        from otgeo.families import make_marginals
        g2 = build_grid(2, 16, 4, 1.0)
        g1 = build_grid(1, 16, 4, 1.0)
        m0, m1 = make_marginals("bump_pair", {"centers": [[0.1, 0.3], [0.6, 0.45]]}, g2)
        axis = [make_marginals("bump_pair", {"centers": c}, g1) for c in ([0.1, 0.6], [0.3, 0.45])]
        mid = mccann_midpoint(m0, m1, g2)
        expected = np.multiply.outer(*(mccann_midpoint(a, b, g1) for a, b in axis))
        assert np.max(np.abs(mid - expected)) <= 1e-13 * np.max(expected)
        assert integrate(mid, g2) == pytest.approx(1.0, abs=1e-12)
        assert flow_w2_oracle(m0, m1, g2) == pytest.approx(
            sum(circular_w2_oracle(a, b, g1) for a, b in axis), abs=1e-15)


class TestHeatFlow:
    def test_heat_semigroup_preserves_mass_and_smooths(self):
        g = build_grid(1, 64, 4, 1.0)
        m = np.zeros(64)
        m[10] = 1.0 / g.h
        out = heat_semigroup(m, 1e-3, g)
        assert integrate(out, g) == pytest.approx(1.0, abs=1e-12)
        assert np.max(out) < np.max(m)

    @pytest.mark.parametrize("g", [
        build_grid(1, 32, 4, 1.0),
        build_grid(1, 32, 4, 1.0, lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x)),
        build_grid(2, 12, 4, 1.0)], ids=["flat-1d", "conformal-1d", "flat-2d"])
    def test_heat_semigroup_is_the_exponential_of_the_grid_laplacian(self, g):
        size = int(np.prod(g.space_shape))
        lap = np.stack([laplace_beltrami(e.reshape(g.space_shape), g).ravel()
                        for e in np.eye(size)], axis=1)
        m = np.random.default_rng(3).random(g.space_shape)
        m /= integrate(m, g)
        times = np.array([-1.0, 0.0, 1e-4, 1e-3, 1e-2])
        out = heat_semigroup(m, times, g)
        assert out.shape == times.shape + g.space_shape
        assert np.array_equal(out[0], m) and np.array_equal(out[1], m)
        for t, slice_t in zip(times[2:], out[2:]):
            exact = expm(t * lap) @ m.ravel()
            assert np.linalg.norm(slice_t.ravel() - exact) <= 1e-13 * np.linalg.norm(exact)
        assert np.max(np.abs(integrate(out, g) - 1.0)) <= 1e-13
        # a point mass stays nonnegative up to rounding: no spectral undershoot
        point = np.zeros(g.space_shape)
        point.flat[0] = 1.0
        for slice_t in heat_semigroup(point / integrate(point, g), times[2:], g):
            assert np.min(slice_t) >= -1e-13 * np.max(slice_t)

    def test_flux_solve_gives_discrete_feasibility(self):
        g = build_grid(2, 12, 6, 1.0)
        x = g.axis_coords()
        t = g.time_nodes()
        path = 1.0 + 0.3 * np.sin(2 * np.pi * (x[None, :, None] - 0.2 * t[:, None, None])) \
            * np.cos(2 * np.pi * x[None, None, :])
        w = momentum_from_density_steps(path, g)
        from otgeo.grid import divergence_g
        resid = (path[1:] - path[:-1]) / g.tau - divergence_g(w, g)
        assert np.max(np.abs(resid)) < 1e-10


class TestHeatCompetitor:
    def test_uniform_family_is_stationary(self):
        g = build_grid(1, 32, 12, 1.0)
        ref = ReferenceMeasure.from_potential(0.0, g)
        m = np.ones(32)
        bound, parts = heat_competitor_bound(m, m, ref, 0.1, g)
        # F >= 0 for unit-mass data and V = 0 (Jensen), up to the rounding of
        # the entropy sum of a curve that is uniform to rounding
        assert -ROUNDING <= bound <= 1e-8

    def test_dominates_the_optimal_value(self):
        g = build_grid(1, 48, 24, 1.0)
        x = g.axis_coords()
        ref = ReferenceMeasure.from_potential(0.0, g)
        kappa = 1.0 / (2 * np.pi * 0.1) ** 2
        q = np.exp(kappa * (np.cos(2 * np.pi * x) - 1))
        q /= integrate(q, g)
        m0, m1 = q, np.roll(q, 24)
        _, _, _, rep = solve_prox(m0, m1, ref, 0.1, g)
        bound, parts = heat_competitor_bound(m0, m1, ref, 0.1, g)
        assert np.isfinite(bound)
        assert bound >= rep.objective - 1e-6

    def test_dominates_the_optimal_value_on_the_conformal_circle(self):
        from otgeo.families import make_marginals
        g = build_grid(1, 32, 16, 1.0, lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x))
        ref = ReferenceMeasure.from_potential(0.0, g)
        m0, m1 = make_marginals("bump_pair", {"width": 0.15}, g)
        _, _, _, rep = solve_prox(m0, m1, ref, 0.1, g)
        bound, parts = heat_competitor_bound(m0, m1, ref, 0.1, g)
        assert np.isfinite(bound) and bound >= rep.objective
        assert parts["middle_objective"] <= bound

    def test_beta_must_exceed_one(self):
        g = build_grid(1, 32, 12, 1.0)
        ref = ReferenceMeasure.from_potential(0.0, g)
        with pytest.raises(ValueError, match="beta"):
            heat_competitor_bound(np.ones(32), np.ones(32), ref, 0.1, g, beta=1.0)

    @pytest.mark.parametrize("n_time,beta,match", [
        (2, 2.0, "window nodes"), (1, 2.0, "window nodes"), (12, 1.0, "beta"),
        (12, 0.5, "beta")])
    def test_window_rules(self, n_time, beta, match):
        # the rules the CLI checks before any solve, with the bound's own window
        with pytest.raises(ValueError, match=match):
            heat_bound_window(n_time, beta)
        assert heat_bound_window(3) == (1, 2) and heat_bound_window(12, 1.5) == (4, 8)

    def test_bound_stable_under_refinement(self):
        # nonincreasing under refinement for fixed data, within a 5% margin
        from otgeo.families import make_marginals
        bounds = []
        for (n, nt) in ((64, 32), (128, 64)):
            g = build_grid(1, n, nt, 1.0)
            ref = ReferenceMeasure.from_potential(0.0, g)
            m0, m1 = make_marginals("bump_pair", {"width": 0.1, "centers": (0.0, 0.5)}, g)
            b, _ = heat_competitor_bound(m0, m1, ref, 0.1, g)
            bounds.append(b)
        assert bounds[1] <= 1.05 * bounds[0]
