"""Primal solver: prox cells, space-time solves, projection, full solves."""

import numpy as np
import pytest

from otgeo.grid import build_grid, cell_average, covariant_gradient, face_average, integrate
from otgeo.transport import DensityPath, MomentumField, ReferenceMeasure, continuity_residual
import otgeo.prox as prox
from otgeo.families import make_marginals
from otgeo.prox import (
    ProxConfig,
    ProxError,
    _apply_operator,
    _end_coupling,
    _entropy_prox,
    _kinetic_prox,
    _solve,
    _weighted_projection,
    anderson_fixed_point,
    project_continuity,
    solve_prox,
    spacetime_poisson,
)
from prox_reference import pointwise_prox, prox_root

CONFORMAL = lambda x: 1.0 + 0.4 * np.cos(2.0 * np.pi * x)
# one space-time kernel serves every grid: flat 1-D (n even and odd), flat 2-D
# and the conformal circle
GRID_KINDS = [(1, 12, None), (1, 13, None), (2, 6, None), (1, 12, CONFORMAL), (1, 13, CONFORMAL)]
GRID_KIND_IDS = ["flat-12", "flat-13", "flat2d-6", "conformal-12", "conformal-13"]


def smooth_pair(grid, width=0.08):
    x = grid.axis_coords()
    kappa = 1.0 / (2.0 * np.pi * width) ** 2
    q = np.exp(kappa * (np.cos(2 * np.pi * x) - 1.0))
    p = np.roll(q, grid.n_space // 2)
    return q / integrate(q, grid), p / integrate(p, grid)


def assert_certified(rep, config=None):
    """The certified gap F - G of a returned solve lies in its stop window."""
    scale = 1.0 + abs(rep.objective)
    assert -1e-12 * scale <= rep.certified_gap <= (config or ProxConfig()).gap_tolerance * scale


def off_kernel(grid):
    """Projector off the kernel of the space-time operator, the constants,
    sqrt(g)-orthogonally."""
    wgt = np.broadcast_to(grid.sqrt_g, (grid.n_time,) + grid.space_shape)

    def project(f):
        return f - np.sum(f * wgt) / np.sum(wgt)
    return project


class TestPointwiseProx:
    def test_identity_when_kernel_inactive(self):
        m, w = pointwise_prox(0.5, np.zeros(1), 1.0, 0.0, 0.0)
        assert m == pytest.approx(0.5, abs=1e-11)
        assert np.all(w == 0.0)

    def test_cubic_root_case(self):
        m, w = pointwise_prox(0.0, np.array([np.sqrt(2.0)]), 1.0, 0.0, 0.0)
        assert m == pytest.approx(0.465571, abs=1e-5)
        assert w[0] / np.sqrt(2.0) == pytest.approx(0.317672, abs=1e-5)
        # first-order condition: (m - a)(m + sigma)^2 = sigma |b|^2 / 2
        assert m * (m + 1.0) ** 2 == pytest.approx(1.0, abs=1e-10)

    def test_vacuum_branch(self):
        m, w = pointwise_prox(-1.0, np.zeros(1), 1.0, 0.0, 0.0)
        assert m == 0.0 and np.all(w == 0.0)

    def test_entropy_cells_strictly_positive(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(500) * 3.0
        m = prox_root(a, 0.0, 1.0, 0.1, 0.0)
        assert np.all(m > 0)
        f = (m - a) / 1.0 + 0.1 * (np.log(m) + 1.0)
        assert np.max(np.abs(f)) < 1e-12

    def test_root_residuals_below_tolerance(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(5000) * 2
        bsq = rng.random(5000) * 5
        V = rng.standard_normal(5000) * 0.5

        def residual(m, a, bsq, eps, V):
            f = (m - a) / 0.8 - bsq / (2.0 * (m + 0.8) ** 2)
            if eps > 0:
                return f + eps * (np.log(m) + V + 1.0)
            return np.where(m == 0.0, 0.0, f)

        for eps in (0.0, 0.05, 0.3):
            m = prox_root(a, bsq, 0.8, eps, V)
            assert np.max(np.abs(residual(m, a, bsq, eps, V))) <= 1e-12

        # the closed forms of solve_prox against the reference root; f' >= 1/sigma,
        # so a residual of 1e-12 pins m to 1e-12 sigma: compare relative to m + sigma
        def agrees(m, ref):
            return np.max(np.abs(m - ref) / (ref + 0.8)) <= 1e-12

        wide = np.concatenate([bsq, 10.0 ** rng.uniform(-3.0, 6.0, 5000)])
        aa = np.concatenate([a, a])
        m = _kinetic_prox(aa, wide, 0.8)
        ref = prox_root(aa, wide, 0.8, 0.0, 0.0)
        assert np.any(m == 0.0) and np.array_equal(m == 0.0, ref == 0.0)  # vacuum cells
        # the cells mix both roots: Cardano's and, off the vacuum, the
        # trigonometric one of a negative discriminant
        s, q = aa + 0.8, 0.4 * wide
        trig = q * (s ** 3 / 27.0 + 0.25 * q) < 0
        assert np.any(trig & (ref > 0)) and np.any(~trig & (ref > 0))
        assert np.max(np.abs(residual(m, aa, wide, 0.0, 0.0))) <= 1e-12 and agrees(m, ref)
        assert _kinetic_prox(aa[0], wide[0], 0.8) == m[0]                 # a scalar cell
        for eps in (0.05, 0.3):
            m = _entropy_prox(a, 0.8, eps, V)
            assert np.max(np.abs(residual(m, a, 0.0, eps, V))) <= 1e-12
            assert agrees(m, prox_root(a, 0.0, 0.8, eps, V))
        # b = 0 leaves m = a, to full relative precision also for a << sigma
        small = 10.0 ** rng.uniform(-12.0, 1.0, 100)
        assert np.max(np.abs(_kinetic_prox(small, 0.0, 0.8) / small - 1.0)) <= 1e-15
        # Wright omega underflow tail, a / (sigma eps) <= -745
        tail = _entropy_prox(np.array([-745.0, -800.0, -1e4]) * 0.8 * 0.05, 0.8, 0.05, 0.0)
        assert np.all(np.isfinite(tail)) and np.all(tail >= 0.0)

    def test_underflowing_root_is_zero(self):
        # f at the smallest normal float is already >= 0: the root is 0 in
        # double precision, where the Wright omega form underflows too
        a = np.array([-80.0])
        m = prox_root(a, 0.0, 0.8, 0.1, 0.0)
        assert m[0] == 0.0 and m[0] == _entropy_prox(a, 0.8, 0.1, 0.0)[0]

    def test_exhausted_root_budget_raises(self):
        a = np.random.default_rng(4).standard_normal(50)
        with pytest.raises(ProxError, match="did not reach"):
            prox_root(a, 1.0, 0.8, 0.1, 0.0, max_iter=2)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            pointwise_prox(0.1, np.zeros(1), -1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            pointwise_prox(0.1, np.zeros(1), 1.0, -0.1, 0.0)

    @pytest.mark.parametrize("branch", ["x<-50", "-50<=x<-2", "-2<=x<1", "1<=x<1e20", "x>=1e20"])
    def test_wright_omega_matches_scipy(self, branch):
        from scipy.special import wrightomega
        rng = np.random.default_rng(6)
        sample, edges = {
            "x<-50": (-10.0 ** rng.uniform(np.log10(50.0), 4.0, 4000),
                          [-50.000001, -744.0, -745.0, -746.0, -1e300]),
            "-50<=x<-2": (rng.uniform(-50.0, -2.0, 4000), [-50.0, -2.0000001]),
            "-2<=x<1": (rng.uniform(-2.0, 1.0, 4000), [-2.0, 0.0, 0.9999999]),
            "1<=x<1e20": (10.0 ** rng.uniform(0.0, 20.0, 4000), [1.0, 1e20]),
            "x>=1e20": (10.0 ** rng.uniform(20.0, 300.0, 4000), [1.0000001e20, 1e300]),
        }[branch]
        x = np.concatenate([sample, edges])
        got, ref = prox._wright_omega(x), wrightomega(x)
        assert prox._wright_omega(x[-1]) == got[-1]                       # a scalar argument
        assert np.all(np.isfinite(got)) and np.all(got >= 0.0)
        # relative to the value, down to the subnormal range of exp(x)
        assert np.all(np.abs(got - ref) <= 1e-14 * ref + np.finfo(float).smallest_subnormal)
        if branch == "x<-50":
            assert np.count_nonzero(x <= -746.0) > 100 and np.all(got[x <= -746.0] == 0.0)


class TestSpacetimePoisson:
    def test_zero_rhs(self):
        g = build_grid(1, 16, 8, 1.0)
        assert np.all(spacetime_poisson(np.zeros((8, 16)), g) == 0.0)

    def test_eigenfunction(self):
        g = build_grid(1, 64, 32, 1.0)
        t = g.time_midpoints()
        x = g.axis_coords()
        rhs = np.cos(np.pi * t / g.horizon)[:, None] * np.sin(2 * np.pi * x)[None, :]
        phi = spacetime_poisson(rhs, g)
        lam_t = (2 - 2 * np.cos(np.pi / g.n_time)) / g.tau ** 2
        lam_x = (2 * np.sin(np.pi / g.n_space) / g.h) ** 2
        # exact eigenvector of the discrete operator ...
        assert np.max(np.abs(phi * (lam_t + lam_x) - rhs)) < 1e-12
        # ... whose eigenvalue matches the continuum one to O(h^2 + tau^2)
        cont = (np.pi / g.horizon) ** 2 + 4 * np.pi ** 2
        assert lam_t + lam_x == pytest.approx(cont, rel=5e-3)

    @pytest.mark.parametrize("dim,metric", [(1, None), (1, CONFORMAL), (2, None)])
    def test_forward_apply_recovers_rhs(self, dim, metric):
        rng = np.random.default_rng(2)
        g = build_grid(dim, 12, 10, 1.0, metric)
        # remove the kernel content so rhs is exactly solvable
        rhs = off_kernel(g)(rng.standard_normal((10,) + g.space_shape))
        phi = spacetime_poisson(rhs, g)
        back = _apply_operator(phi, g, weighted=False)
        assert np.linalg.norm(back - rhs) <= 1e-9 * np.linalg.norm(rhs)

    def test_shape_validation(self):
        g = build_grid(1, 16, 8, 1.0)
        with pytest.raises(ValueError):
            spacetime_poisson(np.zeros((9, 16)), g)

    @pytest.mark.parametrize("dim,n,metric", GRID_KINDS, ids=GRID_KIND_IDS)
    def test_direct_solve(self, dim, n, metric):
        rng = np.random.default_rng(3)
        g = build_grid(dim, n, 8, 1.0, metric)
        shape = (8,) + g.space_shape
        project = off_kernel(g)
        wgt = np.broadcast_to(g.sqrt_g, shape)
        wr = np.sqrt(wgt).ravel()
        for weighted in (False, True):
            rhs = rng.standard_normal(shape)
            phi = spacetime_poisson(rhs, g, weighted=weighted)
            res = project(_apply_operator(phi, g, weighted) - rhs)
            assert np.linalg.norm(res) <= 1e-12 * np.linalg.norm(rhs)
            # sqrt(g)-weighted pseudo-inverse of the operator, column by column
            cols = [_apply_operator(e.reshape(shape), g, weighted).ravel() for e in np.eye(wr.size)]
            sym = wr[:, None] * np.array(cols).T / wr[None, :]
            expected = (np.linalg.pinv(sym) @ (wr * rhs.ravel()) / wr).reshape(shape)
            assert np.max(np.abs(phi - expected)) <= 1e-10 * np.max(np.abs(expected))
            content = phi - project(phi)
            assert (np.sqrt(np.sum(content ** 2 * wgt))
                    <= 1e-13 * np.sqrt(np.sum(phi ** 2 * wgt)))

    @pytest.mark.parametrize("dim,n,metric", GRID_KINDS, ids=GRID_KIND_IDS)
    def test_masked_modes_are_the_kernel(self, dim, n, metric):
        # the pseudo-inverse drops one mode, the constants, on even and odd grids
        g = build_grid(dim, n, 8, 1.0, metric)
        shape = (8,) + g.space_shape
        for weighted in (False, True):
            cols = [spacetime_poisson(e.reshape(shape), g, weighted).ravel()
                    for e in np.eye(int(np.prod(shape)))]
            assert np.linalg.matrix_rank(np.array(cols)) == len(cols) - 1
            assert np.max(np.abs(spacetime_poisson(np.ones(shape), g, weighted))) < 1e-12

    def test_failed_spectral_checks_raise(self, monkeypatch):
        import otgeo.prox as prox
        g = build_grid(1, 14, 8, 1.0, lambda x: 1.0 + 0.3 * np.sin(2.0 * np.pi * x))
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda S: (eigh(S)[0] * (1 + 1e-9), eigh(S)[1]))
        with pytest.raises(ProxError, match="inaccurate"):
            prox._space_eigenbasis(g)

    @pytest.mark.parametrize("dim,n,metric", GRID_KINDS, ids=GRID_KIND_IDS)
    def test_coupling_solve(self, dim, n, metric):
        # K = I + T (x) cell_average(face_average(.)) applied by its stencils
        g = build_grid(dim, n, 8, 1.0, metric)
        rhs = np.random.default_rng(6).standard_normal((7,) + g.space_shape)
        m = _solve(rhs, "coupling", g)
        pair = cell_average(face_average(m, g), g)
        back = m + 0.5 * pair
        back[1:] += 0.25 * pair[:-1]
        back[:-1] += 0.25 * pair[1:]
        assert np.max(np.abs(back - rhs)) <= 1e-12 * np.max(np.abs(rhs))

    @pytest.mark.parametrize("dim,n,metric", GRID_KINDS, ids=GRID_KIND_IDS)
    def test_weighted_projection_is_the_constrained_minimizer(self, dim, n, metric):
        # the output is feasible, and the objective's gradient there is the
        # adjoint of the continuity operator applied to phi (KKT)
        g = build_grid(dim, n, 6, 1.0, metric)
        rng = np.random.default_rng(7)
        m0, m1 = (1.0 + rng.random(g.space_shape) for _ in range(2))
        m0, m1 = m0 / integrate(m0, g), m1 / integrate(m1, g)
        shape = (6,) + g.space_shape
        qa, qb = (rng.standard_normal(shape + (dim,)) for _ in range(2))
        qc = rng.standard_normal((5,) + g.space_shape)
        m, w, phi = _weighted_projection(qa, qb, qc, m0, m1, g, _end_coupling(m0, m1, g))
        assert continuity_residual(DensityPath(m, g), MomentumField(w, g))[1] < 1e-10
        # d/dm_int of |A m - qa|^2 / 2 + |m_int - qc|^2 / 2 = -D^T phi, and w - qb = -grad phi
        da = face_average(0.5 * (m[:-1] + m[1:]), g) - qa
        back = cell_average(da, g)
        grad_m = 0.5 * (back[:-1] + back[1:]) + m[1:-1] - qc
        assert np.max(np.abs(grad_m + (phi[:-1] - phi[1:]) / g.tau)) < 1e-10
        assert np.max(np.abs(w - qb + covariant_gradient(phi, g))) < 1e-12


class TestProjectContinuity:
    @pytest.mark.parametrize("metric", [None, CONFORMAL])
    def test_projection_feasible_and_idempotent(self, metric):
        rng = np.random.default_rng(3)
        g = build_grid(1, 32, 16, 1.0, metric)
        m0, m1 = smooth_pair(g, width=0.15)
        m = DensityPath(np.tile(m0, (17, 1)), g)
        w = MomentumField(rng.standard_normal((16, 32, 1)), g)
        mp, wp = project_continuity(m, w, m0, m1, g)
        assert continuity_residual(mp, wp)[1] < 1e-9
        mp2, wp2 = project_continuity(mp, wp, m0, m1, g)
        assert np.max(np.abs(mp2.values - mp.values)) < 1e-9
        assert np.max(np.abs(wp2.values - wp.values)) < 1e-9

    def test_flat_projection_machine_accurate(self):
        rng = np.random.default_rng(4)
        g = build_grid(1, 32, 16, 1.0)
        m0, m1 = smooth_pair(g, width=0.15)
        m = DensityPath(np.tile(m0, (17, 1)), g)
        w = MomentumField(rng.standard_normal((16, 32, 1)), g)
        mp, wp = project_continuity(m, w, m0, m1, g)
        assert continuity_residual(mp, wp)[1] < 1e-12

    def test_already_feasible_pair_unchanged(self):
        g = build_grid(1, 32, 16, 1.0)
        m0, m1 = smooth_pair(g, width=0.15)
        frac = (np.arange(17) / 16)[:, None]
        vals = (1 - frac) * m0 + frac * m1
        from otgeo.oracles import momentum_from_density_steps
        wv = momentum_from_density_steps(vals, g)
        mp, wp = project_continuity(DensityPath(vals, g), MomentumField(wv, g), m0, m1, g)
        assert np.max(np.abs(mp.values - vals)) < 1e-12
        assert np.max(np.abs(wp.values - wv)) < 1e-12

    def test_projection_closer_to_feasible_points(self):
        # the projection of z is closer to ANY feasible pair than z is
        rng = np.random.default_rng(5)
        g = build_grid(1, 32, 16, 1.0)
        m0, m1 = smooth_pair(g, width=0.15)
        frac = (np.arange(17) / 16)[:, None]
        feasible_m = (1 - frac) * m0 + frac * m1
        from otgeo.oracles import momentum_from_density_steps
        feasible_w = momentum_from_density_steps(feasible_m, g)

        vals = feasible_m + 0.3 * rng.standard_normal((17, 32))
        vals[0], vals[-1] = m0, m1
        wv = feasible_w + rng.standard_normal((16, 32, 1))
        mp, wp = project_continuity(DensityPath(vals, g), MomentumField(wv, g), m0, m1, g)

        def dist(mv, wvv):
            dm = np.sum((mv - feasible_m)[1:-1] ** 2 * g.cell_volume) * g.tau
            dw = np.sum(g.metric[:, None] * (wvv - feasible_w) ** 2
                        * g.cell_volume[:, None]) * g.tau
            return dm + dw

        assert dist(mp.values, wp.values) <= dist(vals, wv) + 1e-12


class TestSolveProx:
    def test_uniform_rest(self):
        g = build_grid(1, 64, 32, 1.0)
        ref = ReferenceMeasure.from_potential(0.0, g)
        m0 = np.ones(64)
        m, w, u, rep = solve_prox(m0, m0, ref, 0.1, g)
        assert abs(rep.objective) < 1e-8
        assert np.max(np.abs(w.values)) < 1e-6
        assert np.max(np.abs(m.values - 1.0)) < 1e-6

    def test_stationary_closed_form(self):
        g = build_grid(1, 64, 32, 1.0)
        x = g.axis_coords()
        ref = ReferenceMeasure.from_potential(0.3 * np.cos(2 * np.pi * x), g)
        ms = ref.stationary_density(g)
        m, w, u, rep = solve_prox(ms, ms, ref, 0.1, g)
        assert rep.objective == pytest.approx(-0.1 * ref.log_normalizer, abs=2e-6)
        # u is linear in t and constant in x up to solver tolerance
        assert np.max(np.std(u.values, axis=1)) < 1e-5

    def test_zero_cell_marginal_solved(self):
        # L1 data: one loaded cell against the uniform density
        g = build_grid(1, 32, 8, 1.0)
        ref = ReferenceMeasure.from_potential(0.0, g)
        m0 = np.zeros(32)
        m0[0] = 1.0 / g.h
        m, _, _, rep = solve_prox(m0, np.ones(32), ref, 0.1, g)
        assert_certified(rep)
        assert rep.final_residual < 1e-10 and np.min(m.values[1:-1]) > 0

    def test_negative_cell_rejected(self):
        g = build_grid(1, 32, 8, 1.0)
        ref = ReferenceMeasure.from_potential(0.0, g)
        m0 = np.ones(32)
        m0[:2] = (-0.5, 2.5)
        with pytest.raises(ValueError, match="negative cell"):
            solve_prox(m0, np.ones(32), ref, 0.1, g)

    def test_wrong_mass_rejected(self):
        g = build_grid(1, 32, 8, 1.0)
        ref = ReferenceMeasure.from_potential(0.0, g)
        with pytest.raises(ValueError, match="mass"):
            solve_prox(np.full(32, 1.5), np.ones(32), ref, 0.1, g)

    @pytest.mark.parametrize("offset,stops", [(1e-16, True), (1e-10, False)])
    def test_rounding_size_negative_gap_stops(self, monkeypatch, offset, stops):
        # F = G at the optimum up to rounding, so a first gap check that reads
        # F - G = -1e-16 must end the solve; -1e-10 is no rounding and must not
        g = build_grid(1, 32, 16, 1.0)
        ref = ReferenceMeasure.from_potential(0.0, g)
        m0, m1 = smooth_pair(g, width=0.12)
        objectives, value, dual = [], prox.functional_value, prox.dual_value

        def recorded(*args):
            objectives.append(value(*args))
            return objectives[-1]

        def shifted(*args):
            return objectives[-1] + offset if len(objectives) == 1 else dual(*args)

        monkeypatch.setattr(prox, "functional_value", recorded)
        monkeypatch.setattr(prox, "dual_value", shifted)
        rep = solve_prox(m0, m1, ref, 0.1, g)[3]
        first = ProxConfig().stagnation_window
        if stops:
            assert rep.iterations == first and len(objectives) == 1
            assert -2e-16 <= rep.certified_gap < 0.0
        else:
            assert rep.iterations > first and len(objectives) > 1
            assert_certified(rep)

    def test_budget_exhaustion_carries_state(self):
        from otgeo.prox import ProxError
        g = build_grid(1, 32, 16, 1.0)
        ref = ReferenceMeasure.from_potential(0.0, g)
        m0, m1 = smooth_pair(g)
        cfg = ProxConfig(max_outer_iterations=5, stagnation_window=2)
        with pytest.raises(ProxError) as err:
            solve_prox(m0, m1, ref, 0.1, g, cfg)
        assert err.value.best is not None
        assert len(err.value.history) == 5

    def test_two_bump_certificates(self):
        g = build_grid(1, 64, 32, 1.0)
        ref = ReferenceMeasure.from_potential(0.0, g)
        m0, m1 = smooth_pair(g)
        m, w, u, rep = solve_prox(m0, m1, ref, 0.1, g)
        assert rep.iterations <= 120
        assert rep.duality_gap <= 1e-4 * (1.0 + abs(rep.objective))
        assert_certified(rep)
        assert rep.final_residual < 1e-10
        assert np.min(m.values[1:-1]) > 0
        assert abs(u.terminal_pairing(m1)) < 1e-10
        # feasibility history is nonincreasing over the trailing half
        tail = rep.residual_history[len(rep.residual_history) // 2:]
        assert np.all(np.diff(tail) <= 1e-12)

    @pytest.mark.parametrize("n_space,n_time,metric,width,projections", [
        (64, 32, None, 0.08, 90),
        (32, 16, lambda x: 1.0 + 0.5 * np.sin(2.0 * np.pi * x), 0.15, 40),
    ], ids=["flat-64x32", "conformal-32x16"])
    def test_projection_count_of_benchmark_instances(self, n_space, n_time, metric, width,
                                                     projections):
        # the instances of the gated benchmark workloads: a cheaper ADMM map
        # evaluation must not be bought with more evaluations
        g = build_grid(1, n_space, n_time, 1.0, metric)
        m0, m1 = make_marginals("bump_pair", {"width": width}, g)
        rep = solve_prox(m0, m1, ReferenceMeasure.from_potential(0.0, g), 0.1, g)[3]
        assert rep.iterations <= projections
        assert_certified(rep)

    def test_swap_symmetry(self):
        g = build_grid(1, 48, 24, 1.0)
        ref = ReferenceMeasure.from_potential(0.0, g)
        x = g.axis_coords()
        q = np.exp(np.cos(2 * np.pi * x))
        q /= integrate(q, g)
        p = np.exp(0.7 * np.sin(2 * np.pi * x))
        p /= integrate(p, g)
        m0, m1 = q, p
        mf, _, _, repf = solve_prox(m0, m1, ref, 0.1, g)
        mb, _, _, repb = solve_prox(m1, m0, ref, 0.1, g)
        assert repf.objective == pytest.approx(repb.objective, abs=1e-6)
        assert np.max(np.abs(mf.values - mb.values[::-1])) < 1e-4

    def test_two_bump_value_bracketed_by_oracle_and_competitor(self):
        # W2^2/(2T) - c eps |log eps|  <=  B_eps  <=  heat competitor bound
        from otgeo.oracles import circular_w2_oracle, heat_competitor_bound
        g = build_grid(1, 64, 32, 1.0)
        ref = ReferenceMeasure.from_potential(0.0, g)
        m0, m1 = smooth_pair(g)
        eps = 0.05
        _, _, _, rep = solve_prox(m0, m1, ref, eps, g)
        w2sq = circular_w2_oracle(m0, m1, g)
        bound, _ = heat_competitor_bound(m0, m1, ref, eps, g)
        assert rep.objective >= w2sq / 2 - eps * abs(np.log(eps)) - 1e-7
        assert rep.objective <= bound + 1e-7

    def test_penalty_sweep_agrees(self):
        g = build_grid(1, 32, 16, 1.0)
        ref = ReferenceMeasure.from_potential(0.0, g)
        m0, m1 = smooth_pair(g, width=0.12)
        reports = [solve_prox(m0, m1, ref, 0.1, g, ProxConfig(penalty=r))[3]
                   for r in (0.5, 1.0, 2.0)]
        values = [rep.objective for rep in reports]
        assert max(values) - min(values) <= 1e-9
        for rep in reports:
            assert rep.converged
            assert rep.duality_gap <= 1e-4 * (1.0 + abs(rep.objective))
            assert_certified(rep)

    def test_conformal_metric_solve(self):
        g = build_grid(1, 32, 16, 1.0, CONFORMAL)
        ref = ReferenceMeasure.from_potential(0.0, g)
        m0, m1 = smooth_pair(g, width=0.15)
        m, w, u, rep = solve_prox(m0, m1, ref, 0.1, g)
        assert rep.converged
        assert rep.duality_gap <= 1e-4 * (1.0 + abs(rep.objective))
        assert_certified(rep)

    def test_2d_torus_solve(self):
        g = build_grid(2, 12, 8, 1.0)
        ref = ReferenceMeasure.from_potential(0.0, g)
        m0, m1 = make_marginals("bump_pair", {"width": 0.2}, g)
        m, w, u, rep = solve_prox(m0, m1, ref, 0.1, g)
        assert rep.converged
        assert rep.final_residual < 1e-10
        assert rep.duality_gap <= 1e-4 * (1.0 + abs(rep.objective))
        assert_certified(rep)
        assert np.min(m.values[1:-1]) > 0

    def test_2d_desk_case_certifies(self):
        g = build_grid(2, 16, 8, 1.0)
        ref = ReferenceMeasure.from_potential(0.0, g)
        m0, m1 = make_marginals("bump_pair", {}, g)
        rep = solve_prox(m0, m1, ref, 0.1, g)[3]
        assert rep.iterations <= 300
        assert_certified(rep)

    @pytest.mark.parametrize("family,params,config", [
        ("bump_pair", {"width": 0.12}, ProxConfig()),
        ("point_like", {"smoothing_steps": 1}, ProxConfig(gap_tolerance=1e-6)),
    ])
    def test_iterations_count_projections(self, monkeypatch, family, params, config):
        g = build_grid(1, 64, 32, 1.0)
        ref = ReferenceMeasure.from_potential(0.0, g)
        m0, m1 = make_marginals(family, params, g)
        projections, points, images = [0], [], []
        project, accelerate = prox._weighted_projection, prox.anderson_fixed_point

        def counted(*args):
            projections[0] += 1
            return project(*args)

        def recorded(apply, x, max_evaluations):
            def record(y):
                image, stop = apply(y)
                points.append(y.copy())
                images.append(image)
                return image, stop
            return accelerate(record, x, max_evaluations)

        monkeypatch.setattr(prox, "_weighted_projection", counted)
        monkeypatch.setattr(prox, "anderson_fixed_point", recorded)
        rep = solve_prox(m0, m1, ref, 0.1, g, config)[3]
        assert rep.iterations == len(rep.residual_history) == projections[0] == len(points)
        assert_certified(rep, config)
        # a rejected extrapolation is followed by the plain image of the step before
        rejected = sum(np.array_equal(points[i], images[i - 2]) for i in range(2, len(points)))
        assert rejected == 0 if family == "bump_pair" else rejected > 0


class TestAnderson:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_linear_contraction(self, dim):
        # on an affine map the extrapolation from dim differences is exact, so
        # evaluation dim + 2 sits at the fixed point; one more absorbs the
        # rounding of the normal equations
        rng = np.random.default_rng(dim)
        A = rng.standard_normal((dim, dim))
        A *= 0.9 / np.linalg.norm(A, 2)
        b = rng.standard_normal(dim)
        fixed = np.linalg.solve(np.eye(dim) - A, b)

        def apply(x):
            image = A @ x + b
            return image, np.linalg.norm(image - fixed) <= 1e-12

        evaluations, stop = anderson_fixed_point(apply, np.zeros(dim), dim + 3)
        assert stop
