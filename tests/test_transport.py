"""Functional ingredients: kernel, entropy, energy, continuity residual."""

import numpy as np
import pytest

from otgeo.elliptic import EllipticProblem, solve_elliptic
from otgeo.families import make_marginals
from otgeo.grid import build_grid, covariant_gradient, face_average, integrate, metric_norm_sq
from otgeo.oracles import momentum_from_density_steps
from otgeo.prox import project_continuity, solve_prox
from otgeo.transport import (
    DensityPath,
    MomentumField,
    ReferenceMeasure,
    bb_kernel,
    check_marginals,
    continuity_residual,
    dual_pair,
    dual_value,
    energy_slice,
    functional_value,
    relative_entropy,
)


@pytest.fixture
def flat64():
    return build_grid(1, 64, 16, 1.0)


@pytest.fixture
def cosine_reference(flat64):
    x = flat64.axis_coords()
    return ReferenceMeasure.from_potential(0.3 * np.cos(2 * np.pi * x), flat64)


class TestBBKernel:
    def test_closure_at_origin(self):
        assert bb_kernel(np.zeros(2), 0.0) == 0.0

    def test_infeasible_branch(self):
        assert bb_kernel(np.array([1.0]), 0.0) == np.inf

    def test_unit_value(self):
        assert bb_kernel(np.array([1.0, 1.0]), 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            bb_kernel(np.array([1.0]), -0.1)

    def test_joint_convexity_on_random_pairs(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            p1, p2 = rng.standard_normal(2), rng.standard_normal(2)
            m1, m2 = rng.random() + 0.05, rng.random() + 0.05
            for theta in (0.25, 0.5, 0.75):
                mix = bb_kernel(theta * p1 + (1 - theta) * p2, theta * m1 + (1 - theta) * m2)
                sep = theta * bb_kernel(p1, m1) + (1 - theta) * bb_kernel(p2, m2)
                assert mix <= sep + 1e-12


class TestRelativeEntropy:
    def test_uniform_zero(self, flat64):
        ref = ReferenceMeasure.from_potential(0.0, flat64)
        assert relative_entropy(np.ones(64), ref, flat64) == pytest.approx(0.0, abs=1e-14)

    def test_half_circle_step_gives_log_two(self, flat64):
        ref = ReferenceMeasure.from_potential(0.0, flat64)
        m = np.zeros(64)
        m[:32] = 2.0
        assert relative_entropy(m, ref, flat64) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_jensen_floor_for_random_densities(self, flat64, cosine_reference):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = rng.random(64) + 1e-3
            m /= integrate(m, flat64)
            val = relative_entropy(m, cosine_reference, flat64)
            assert val >= -cosine_reference.log_normalizer - 1e-12

    def test_negative_density_rejected(self, flat64, cosine_reference):
        m = np.ones(64)
        m[3] = -1e-9
        with pytest.raises(ValueError):
            relative_entropy(m, cosine_reference, flat64)

    def test_log_convexity_inequality(self):
        # (log b - log a) a <= b - a with equality iff a == b
        rng = np.random.default_rng(4)
        a = rng.random(10000) * 10 + 1e-6
        b = rng.random(10000) * 10 + 1e-6
        lhs = (np.log(b) - np.log(a)) * a
        assert np.all(lhs <= b - a + 1e-12)
        assert np.all(np.abs((np.log(a) - np.log(a)) * a) <= 1e-15)


class TestFunctionalValue:
    def test_uniform_rest_curve_costs_nothing(self, flat64):
        ref = ReferenceMeasure.from_potential(0.0, flat64)
        m = DensityPath(np.ones((17, 64)), flat64)
        w = MomentumField(np.zeros((16, 64, 1)), flat64)
        assert functional_value(m, w, ref, 0.1) == pytest.approx(0.0, abs=1e-15)

    def test_stationary_curve_closed_form(self, flat64, cosine_reference):
        ms = cosine_reference.stationary_density(flat64)
        m = DensityPath(np.tile(ms, (17, 1)), flat64)
        w = MomentumField(np.zeros((16, 64, 1)), flat64)
        eps = 0.1
        expected = -eps * flat64.horizon * cosine_reference.log_normalizer
        assert functional_value(m, w, cosine_reference, eps) == pytest.approx(expected, rel=1e-12)

    def test_equal_but_distinct_grids(self, flat64, cosine_reference):
        twin = build_grid(1, 64, 16, 1.0)
        ms = cosine_reference.stationary_density(flat64)
        m = DensityPath(np.tile(ms, (17, 1)), flat64)
        w = MomentumField(np.zeros((16, 64, 1)), twin)
        expected = -0.1 * flat64.horizon * cosine_reference.log_normalizer
        assert functional_value(m, w, cosine_reference, 0.1) == pytest.approx(expected, rel=1e-12)
        with pytest.raises(ValueError, match="different grids"):
            functional_value(m, MomentumField(np.zeros((8, 64, 1)), build_grid(1, 64, 8, 1.0)),
                             cosine_reference, 0.1)

    def test_infeasible_kernel_branch_flagged(self, flat64):
        ref = ReferenceMeasure.from_potential(0.0, flat64)
        vals = np.ones((17, 64))
        vals[5:8] = 0.0
        m = DensityPath(vals, flat64)
        w = MomentumField(np.ones((16, 64, 1)), flat64)
        assert functional_value(m, w, ref, 0.1) == np.inf

    def test_time_reversal_symmetry(self, flat64, cosine_reference):
        rng = np.random.default_rng(5)
        vals = rng.random((17, 64)) + 0.2
        vals /= np.array([integrate(s, flat64) for s in vals])[:, None]
        wv = 0.3 * rng.standard_normal((16, 64, 1))
        fwd = functional_value(DensityPath(vals, flat64),
                               MomentumField(wv, flat64), cosine_reference, 0.07)
        rev = functional_value(DensityPath(vals[::-1].copy(), flat64),
                               MomentumField(-wv[::-1].copy(), flat64),
                               cosine_reference, 0.07)
        assert fwd == pytest.approx(rev, rel=1e-12)

    def test_matches_cell_loop_reference(self):
        # second implementation: bb_kernel per face and relative_entropy per node;
        # face i lies between cells i and i + 1, with g_f the mean of their metrics
        g = build_grid(1, 24, 6, 1.0, lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x))
        ref = ReferenceMeasure.from_potential(0.3 * np.cos(2 * np.pi * g.axis_coords()), g)
        rng = np.random.default_rng(8)
        vals = rng.random((7, 24)) + 0.1
        vals[2, 3] = 0.0                     # 0 log 0 = 0
        wv = rng.standard_normal((6, 24, 1))
        eps, tau, h = 0.07, g.tau, g.h
        gm = g.metric
        kinetic = 0.0
        for k in range(6):
            for i in range(24):
                j = (i + 1) % 24
                gf = 0.5 * (gm[i] + gm[j])
                face_m = 0.25 * (vals[k, i] + vals[k, j] + vals[k + 1, i] + vals[k + 1, j])
                kinetic += tau * h * np.sqrt(gf) * bb_kernel(np.sqrt(gf) * wv[k, i], face_m)
        entropy = sum((0.5 if k in (0, 6) else 1.0) * tau * relative_entropy(vals[k], ref, g)
                      for k in range(7))
        got = functional_value(DensityPath(vals, g), MomentumField(wv, g), ref, eps)
        assert got == pytest.approx(kinetic + eps * entropy, rel=1e-13)

    def test_negative_density_rejected(self, flat64, cosine_reference):
        vals = np.ones((17, 64))
        vals[3, 5] = -1e-3
        with pytest.raises(ValueError, match="m >= 0"):
            functional_value(DensityPath(vals, flat64),
                             MomentumField(np.zeros((16, 64, 1)), flat64), cosine_reference, 0.1)

    @pytest.mark.parametrize("route", ["prox", "elliptic"])
    def test_solver_objective_is_functional_value(self, route):
        # both solvers report F_eps through functional_value itself, bit for bit
        g = build_grid(1, 32, 16, 1.0, lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x))
        ref = ReferenceMeasure.from_potential(0.0, g)
        m0, m1 = make_marginals("bump_pair", {"width": 0.15}, g)
        if route == "prox":
            m, w, _, rep = solve_prox(m0, m1, ref, 0.1, g)
        else:
            u, m, rep = solve_elliptic(EllipticProblem(g, ref, 0.1, m0, m1))
            _, w = dual_pair(rep.multiplier, m0, m1, ref, 0.1, g)
        assert rep.objective == functional_value(m, w, ref, 0.1)


class TestEnergySlice:
    def test_uniform_constant_zero(self, flat64):
        ref = ReferenceMeasure.from_potential(0.0, flat64)
        assert energy_slice(np.ones(64), np.full(64, 1.3), ref, 0.1, flat64) == \
            pytest.approx(0.0, abs=1e-14)

    def test_stationary_closed_form(self, flat64, cosine_reference):
        ms = cosine_reference.stationary_density(flat64)
        got = energy_slice(ms, np.full(64, 0.2), cosine_reference, 0.1, flat64)
        assert got == pytest.approx(0.1 * cosine_reference.log_normalizer, rel=1e-12)

    def test_energy_matches_objective_identity_for_stationary(self, flat64, cosine_reference):
        # E = B/T - (2 eps / T) int int m (log m + V), exact for the rest curve
        eps, T = 0.1, flat64.horizon
        ms = cosine_reference.stationary_density(flat64)
        m = DensityPath(np.tile(ms, (17, 1)), flat64)
        w = MomentumField(np.zeros((16, 64, 1)), flat64)
        B = functional_value(m, w, cosine_reference, eps)
        ent = T * relative_entropy(ms, cosine_reference, flat64)
        E = energy_slice(ms, np.zeros(64), cosine_reference, eps, flat64)
        assert E == pytest.approx(B / T - 2 * eps / T * ent, rel=1e-12)


class TestContinuityResidual:
    def test_rest_curve_is_feasible(self, flat64):
        m = DensityPath(np.ones((17, 64)), flat64)
        w = MomentumField(np.zeros((16, 64, 1)), flat64)
        _, norm = continuity_residual(m, w)
        assert norm == 0.0

    def test_flux_construction_is_exact(self, flat64):
        # moving profile with the momentum solved from the discrete flux problem
        x = flat64.axis_coords()
        t = flat64.time_nodes()
        vals = 1.0 + 0.4 * np.sin(2 * np.pi * (x[None, :] - 0.3 * t[:, None]))
        m = DensityPath(vals, flat64)
        w = MomentumField(momentum_from_density_steps(vals, flat64), flat64)
        _, norm = continuity_residual(m, w)
        assert norm < 1e-12

    def test_norm_matches_independent_evaluation(self, flat64):
        rng = np.random.default_rng(6)
        vals = rng.random((17, 64)) + 0.5
        wv = rng.standard_normal((16, 64, 1))
        r, norm = continuity_residual(DensityPath(vals, flat64),
                                      MomentumField(wv, flat64))
        # second implementation: index loops; the flux leaves cell i through
        # face i and enters through face i - 1
        tau, h = flat64.tau, flat64.h
        acc = 0.0
        for k in range(16):
            for i in range(64):
                div = (wv[k, i, 0] - wv[k, (i - 1) % 64, 0]) / h
                ri = (vals[k + 1, i] - vals[k, i]) / tau - div
                assert ri == pytest.approx(r[k, i], rel=1e-12, abs=1e-12)
                acc += ri * ri * h * tau
        assert norm == pytest.approx(np.sqrt(acc), rel=1e-12)


DUAL_CASES = {
    "flat-1d": (1, 16, 6, None),
    "conformal-1d": (1, 13, 6, lambda x: 1.0 + 0.4 * np.cos(2 * np.pi * x)),
    "flat-2d": (2, 6, 4, None),
}


def dual_instance(case, seed):
    """A grid, a cosine reference and a random marginal pair."""
    dim, n, nt, metric = DUAL_CASES[case]
    g = build_grid(dim, n, nt, 1.0, metric)
    x = g.axis_coords()
    ref = ReferenceMeasure.from_potential(
        0.3 * np.cos(2 * np.pi * (x if dim == 1 else x[:, None] + x[None, :])), g)
    rng = np.random.default_rng(seed)
    m0, m1 = (1.0 + 0.5 * rng.random(g.space_shape) for _ in range(2))
    return g, ref, m0 / integrate(m0, g), m1 / integrate(m1, g), rng


class TestDualValue:
    @pytest.mark.parametrize("case", sorted(DUAL_CASES))
    def test_weak_duality(self, case):
        # G(phi) <= F(m, w) for every phi and every feasible pair
        g, ref, m0, m1, rng = dual_instance(case, 11)
        shape = (g.n_time,) + g.space_shape
        for trial in range(4):
            frac = np.linspace(0.0, 1.0, g.n_time + 1).reshape((-1,) + (1,) * g.dim)
            vals = (1.0 - frac) * m0 + frac * m1 + 0.05 * rng.random((g.n_time + 1,) + shape[1:])
            wv = 0.1 * rng.standard_normal(shape + (g.dim,))
            m, w = project_continuity(DensityPath(vals, g), MomentumField(wv, g), m0, m1, g)
            assert np.min(m.values) > 0 and continuity_residual(m, w)[1] < 1e-12
            F = functional_value(m, w, ref, 0.1)
            for amplitude in (0.0, 0.01, 0.1, 1.0):
                G = dual_value(amplitude * rng.standard_normal(shape), m0, m1, ref, 0.1, g)
                assert G <= F

    @pytest.mark.parametrize("case", sorted(DUAL_CASES))
    def test_gradient_is_continuity_residual(self, case):
        # the cv-weighted gradient of G is tau times the continuity residual of
        # the Lagrangian's minimizer m = exp(s / eps - V - 1), w = -M grad phi
        # with the face density M and the cell average of the face |grad phi|^2
        g, ref, m0, m1, rng = dual_instance(case, 12)
        eps, tau = 0.1, g.tau
        phi = 0.05 * rng.standard_normal((g.n_time,) + g.space_shape)
        grad = covariant_gradient(phi, g)
        gsq = metric_norm_sq(grad, g)
        s = (phi[1:] - phi[:-1]) / tau + 0.25 * (gsq[:-1] + gsq[1:])
        m = np.concatenate([m0[None], np.exp(s / eps - ref.potential_V - 1.0), m1[None]])
        face_m = face_average(0.5 * (m[:-1] + m[1:]), g)
        r, _ = continuity_residual(DensityPath(m, g), MomentumField(-face_m * grad, g))
        cv = np.broadcast_to(g.cell_volume, g.space_shape)
        h = 1e-6
        fd = np.empty_like(phi)
        for idx in np.ndindex(phi.shape):
            step = np.zeros_like(phi)
            step[idx] = h
            fd[idx] = (dual_value(phi + step, m0, m1, ref, eps, g)
                       - dual_value(phi - step, m0, m1, ref, eps, g)) / (2 * h) / cv[idx[1:]]
        assert np.max(np.abs(fd - tau * r)) <= 1e-6 * np.max(np.abs(tau * r))

    @pytest.mark.parametrize("case", sorted(DUAL_CASES))
    def test_pair_attains_the_dual_value(self, case):
        # G is the Lagrangian F + tau sum_k integrate(phi[k] r[k]) at dual_pair
        g, ref, m0, m1, rng = dual_instance(case, 13)
        phi = 0.05 * rng.standard_normal((g.n_time,) + g.space_shape)
        m, w = dual_pair(phi, m0, m1, ref, 0.1, g)
        assert m.values[0].tobytes() == m0.tobytes() and m.values[-1].tobytes() == m1.tobytes()
        r, _ = continuity_residual(m, w)
        lagrangian = functional_value(m, w, ref, 0.1) + g.tau * np.sum(phi * r * g.cell_volume)
        G = dual_value(phi, m0, m1, ref, 0.1, g)
        assert G == pytest.approx(lagrangian, rel=1e-12, abs=1e-13)

    def test_no_gap_on_the_rest_curve(self):
        # no duality gap at the optimum: between equal stationary marginals the
        # rest curve is optimal, and phi_k = k tau eps (1 - log Z) reproduces it
        # through s = eps (log m_s + V + 1)
        g = build_grid(1, 32, 8, 1.0)
        x = g.axis_coords()
        ref = ReferenceMeasure.from_potential(0.3 * np.cos(2 * np.pi * x), g)
        ms = ref.stationary_density(g)
        F = functional_value(DensityPath(np.tile(ms, (9, 1)), g),
                             MomentumField(np.zeros((8, 32, 1)), g), ref, 0.1)
        phi = np.tile((0.1 * (1.0 - ref.log_normalizer) * g.tau * np.arange(8))[:, None],
                      (1, 32))
        assert dual_value(phi, ms, ms, ref, 0.1, g) == pytest.approx(F, rel=1e-12, abs=1e-14)


class TestValidation:
    def test_density_path_invariants(self, flat64):
        vals = np.ones((17, 64))
        DensityPath(vals, flat64).validate()
        bad = vals.copy()
        bad[3, 5] = -0.1
        with pytest.raises(ValueError, match="negative"):
            DensityPath(bad, flat64).validate()
        off = vals * 1.01
        with pytest.raises(ValueError, match="mass"):
            DensityPath(off, flat64).validate()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_marginal_rejected(self, flat64, value):
        # nan < 0 and |nan - 1| > 1e-8 are both false: only an explicit test rejects it
        m0 = np.ones(64)
        m0[5] = value
        with pytest.raises(ValueError, match="m0 has a non-finite cell"):
            check_marginals(m0, np.ones(64), flat64)
        with pytest.raises(ValueError, match="m1 has a non-finite cell"):
            check_marginals(np.ones(64), m0, flat64)

    def test_momentum_field_shape(self, flat64):
        with pytest.raises(ValueError, match="shape"):
            MomentumField(np.zeros((16, 64)), flat64).validate()

    def test_potential_normalization(self, flat64):
        from otgeo.transport import Potential
        rng = np.random.default_rng(7)
        u = Potential(rng.standard_normal((17, 64)), flat64)
        m1 = np.ones(64)
        shifted = u.normalize(m1)
        assert abs(shifted.terminal_pairing(m1)) < 1e-10

    def test_reference_normalizer_consistency(self, flat64, cosine_reference):
        z = integrate(np.exp(-cosine_reference.potential_V), flat64)
        assert cosine_reference.log_normalizer == pytest.approx(np.log(z), abs=1e-10)
