"""Diagnostics: report schema, per-check behavior on closed-form instances."""

import functools
import json

import numpy as np
import pytest

from otgeo.grid import build_grid, covariant_gradient, integrate, metric_norm_sq
from otgeo.transport import (
    ReferenceMeasure,
    energy_profile,
    energy_slice,
    entropy_density,
    relative_entropy,
)
from otgeo.prox import ProxConfig, solve_prox
from otgeo.elliptic import EllipticProblem, solve_elliptic
from otgeo.families import make_marginals
from otgeo.diagnostics import (
    DiagnosticsReport,
    SweepSpec,
    calibrate_tol_conv,
    check_displacement_convexity,
    check_duality,
    check_energy,
    check_interior_bounds,
    check_time_scaling,
    entropy_profile,
    epsilon_sweep,
    interior_quantities,
)


@pytest.fixture(scope="module")
def stationary_solution():
    g = build_grid(1, 64, 32, 1.0)
    x = g.axis_coords()
    ref = ReferenceMeasure.from_potential(0.3 * np.cos(2 * np.pi * x), g)
    ms = ref.stationary_density(g)
    m, w, u, rep = solve_prox(ms, ms, ref, 0.1, g)
    return g, ref, ms, m, w, u, rep


@pytest.fixture(scope="module")
def bump_solution():
    g = build_grid(1, 64, 32, 1.0)
    x = g.axis_coords()
    ref = ReferenceMeasure.from_potential(0.0, g)
    kappa = 1.0 / (2 * np.pi * 0.08) ** 2
    q = np.exp(kappa * (np.cos(2 * np.pi * x) - 1))
    q /= integrate(q, g)
    m0, m1 = q, np.roll(q, 32)
    m, w, u, rep = solve_prox(m0, m1, ref, 0.1, g)
    return g, ref, (m0, m1), m, w, u, rep


class TestCheckEnergy:
    def test_stationary_energy_equals_eps_log_z(self, stationary_solution):
        g, ref, ms, m, w, u, rep = stationary_solution
        entry = check_energy(m, u, ref, 0.1, g, objective=rep.objective)
        assert entry.passed
        assert entry.values["mean_energy"] == pytest.approx(
            0.1 * ref.log_normalizer, abs=1e-8)
        assert entry.values["drift"] < 1e-8

    def test_uniform_energy_is_zero(self):
        g = build_grid(1, 32, 16, 1.0)
        ref = ReferenceMeasure.from_potential(0.0, g)
        m0 = np.ones(32)
        m, w, u, rep = solve_prox(m0, m0, ref, 0.1, g)
        entry = check_energy(m, u, ref, 0.1, g, objective=rep.objective)
        assert entry.passed
        assert abs(entry.values["mean_energy"]) < 1e-10

    def test_energy_ceiling_recorded_with_bound(self, bump_solution):
        g, ref, (m0, m1), m, w, u, rep = bump_solution
        from otgeo.oracles import heat_competitor_bound
        bound, _ = heat_competitor_bound(m0, m1, ref, 0.1, g)
        entry = check_energy(m, u, ref, 0.1, g, objective=rep.objective,
                             upper_bound=bound)
        assert entry.passed
        assert entry.values["mean_energy"] <= entry.values["energy_ceiling"]


class TestCheckDuality:
    def test_stationary_gap_tiny_and_potential_flat(self, stationary_solution):
        g, ref, ms, m, w, u, rep = stationary_solution
        entry = check_duality(u, m, w, ref, 0.1, g, objective=rep.objective)
        assert entry.passed
        assert entry.values["gap"] < 1e-8
        # u-hat is essentially zero after normalization for the rest curve
        assert entry.values["c_hat"] < 1e-3

    def test_bump_case_certified(self, bump_solution):
        g, ref, _, m, w, u, rep = bump_solution
        entry = check_duality(u, m, w, ref, 0.1, g, objective=rep.objective)
        assert entry.passed
        assert entry.values["gap"] <= 1e-4 * (1 + abs(rep.objective))
        assert entry.values["c_hat"] > 0


class TestDisplacementConvexity:
    def test_calibrated_tolerance_is_small(self, stationary_solution):
        g, ref, *_ = stationary_solution
        tol = calibrate_tol_conv(ref, 0.1, g)
        assert 0 < tol < 1e-3

    def test_stationary_second_differences_vanish(self, stationary_solution):
        g, ref, ms, m, w, u, rep = stationary_solution
        entry = check_displacement_convexity(m, u, 0.1, g, tol_conv=1e-6, reference=ref)
        assert entry.passed
        assert np.max(np.abs(entry.values["second_differences"])) < 1e-6

    def test_bump_case_convex_with_nonnegative_lambda(self, bump_solution):
        g, ref, _, m, w, u, rep = bump_solution
        tol = calibrate_tol_conv(ref, 0.1, g)
        entry = check_displacement_convexity(m, u, 0.1, g, tol_conv=tol, reference=ref)
        assert entry.passed
        assert entry.values["lambda_eps"] >= 0.0
        assert entry.values["min_second_difference"] >= -tol

    @pytest.mark.parametrize("potential,asserted", [
        (None, True), (0.0, True), (0.3, False)], ids=["no-reference", "zero", "cosine"])
    def test_sign_asserted_only_for_grid_convex_potential(self, bump_solution, potential,
                                                          asserted):
        # tol_conv = -1e9 asks for second differences >= 1e9, which no profile
        # has: the check fails exactly when it asserts the sign
        g, _, _, m, w, u, rep = bump_solution
        ref = None if potential is None else ReferenceMeasure.from_potential(
            potential * np.cos(2 * np.pi * g.axis_coords()), g)
        entry = check_displacement_convexity(m, u, 0.1, g, tol_conv=-1e9, reference=ref)
        assert entry.passed is not asserted

    def test_entropy_profile_values(self):
        g = build_grid(1, 32, 4, 1.0)
        from otgeo.transport import DensityPath
        m = DensityPath(np.ones((5, 32)), g)
        assert np.max(np.abs(entropy_profile(m, g))) < 1e-14


def _solve(route, grid, ref, m0, m1, eps):
    """F and the density path of one solve by ``route`` (prox or elliptic)."""
    if route == "prox":
        m, _, _, rep = solve_prox(m0, m1, ref, eps, grid)
    else:
        _, m, rep = solve_elliptic(EllipticProblem(grid, ref, eps, m0, m1))
    return rep.objective, m.values


class TestTimeScaling:
    @staticmethod
    def prox_objective(m0, m1, ref, calls):
        def solve(grid, eps):
            calls.append((grid, eps))
            return _solve("prox", grid, ref, m0, m1, eps)[0]
        return solve

    def test_double_horizon(self, bump_solution):
        g, ref, (m0, m1), m, w, u, rep = bump_solution
        calls = []
        entry = check_time_scaling(rep.objective, self.prox_objective(m0, m1, ref, calls),
                                   0.1, g, ProxConfig().gap_tolerance)
        # one solve, at twice the horizon and a quarter of the eps on the same time grid
        (g2, eps2), = calls
        assert (g2.horizon, g2.n_time, g2.n_space, eps2) == (2.0, g.n_time, g.n_space, 0.025)
        assert entry.passed
        assert entry.values["defect"] == abs(rep.objective - 2 * entry.values["objective_2T"])
        assert entry.threshold["defect"] == pytest.approx(
            1e-10 * (1 + rep.objective + 2 * (1 + entry.values["objective_2T"])))

    def test_perturbed_objective_fails(self, bump_solution):
        # a 1e-8 relative error is far inside the old bound F_2 <= 2 F_1 + 1e-4;
        # the defect reads 3.3 times the two solves' certified tolerances
        g, ref, (m0, m1), m, w, u, rep = bump_solution
        entry = check_time_scaling(rep.objective * (1 + 1e-8),
                                   self.prox_objective(m0, m1, ref, []), 0.1, g,
                                   ProxConfig().gap_tolerance)
        assert not entry.passed
        assert entry.values["objective_2T"] <= 2 * rep.objective + 1e-4


def _invariance_case(name):
    """Grid, reference and marginals of one invariance instance."""
    if name == "flat-cosine":
        g = build_grid(1, 64, 32, 1.0)
        ref = ReferenceMeasure.from_potential(0.3 * np.cos(2 * np.pi * g.axis_coords()), g)
        return g, ref, make_marginals("bump_pair", {"width": 0.12}, g)
    if name == "conformal":
        # the metric as node values, so that a torus of another length keeps them
        g = build_grid(1, 32, 16, 1.0, 1.0 + 0.5 * np.sin(2 * np.pi * np.arange(32) / 32))
        return g, ReferenceMeasure.from_potential(0.0, g), make_marginals(
            "bump_pair", {"width": 0.15}, g)
    g = build_grid(2, 16, 8, 1.0)
    return g, ReferenceMeasure.from_potential(0.0, g), make_marginals("bump_pair", {}, g)


@functools.lru_cache(maxsize=None)
def _invariance_base(name, route):
    g, ref, (m0, m1) = _invariance_case(name)
    return (g, ref, m0, m1) + _solve(route, g, ref, m0, m1, 0.1)


# per solve: the prox route's certified tolerance, rounding on the dual route
SOLVE_TOLERANCE = {"prox": ProxConfig().gap_tolerance, "elliptic": 1e-13}


@pytest.mark.parametrize("route", ["prox", "elliptic"])
@pytest.mark.parametrize("case", ["flat-cosine", "conformal", "2d"])
class TestExactInvariances:
    """Two exact symmetries of the discrete problem beside the horizon
    identity: time reversal, and the length of the torus."""

    def test_time_reversal(self, case, route):
        g, ref, m0, m1, F, m = _invariance_base(case, route)
        F_rev, m_rev = _solve(route, g, ref, m1, m0, 0.1)
        assert abs(F_rev - F) <= SOLVE_TOLERANCE[route] * ((1 + abs(F)) + (1 + abs(F_rev)))
        if route == "elliptic":
            assert np.max(np.abs(m_rev[::-1] - m)) <= 1e-11 * np.max(m)

    def test_length_scaling(self, case, route):
        # on a torus of length lam with marginals m / lam^d and eps lam^2:
        # F = lam^2 (F_1(eps) - eps T d log lam), the path m / lam^d
        g, ref, m0, m1, F, m = _invariance_base(case, route)
        lam, d = 2.0, g.dim
        gl = build_grid(d, g.n_space, g.n_time, g.horizon, g.metric, lam)
        refl = ReferenceMeasure.from_potential(ref.potential_V, gl)
        F_lam, m_lam = _solve(route, gl, refl, m0 / lam ** d, m1 / lam ** d, 0.1 * lam ** 2)
        expected = lam ** 2 * (F - 0.1 * g.horizon * d * np.log(lam))
        assert abs(F_lam - expected) <= SOLVE_TOLERANCE[route] * (
            (1 + abs(F_lam)) + lam ** 2 * (1 + abs(F)))
        if route == "elliptic":
            assert np.max(np.abs(m_lam * lam ** d - m)) <= 1e-11 * np.max(m)


class TestSweep:
    def test_uniform_family_residuals_vanish(self):
        g = build_grid(1, 32, 16, 1.0)
        spec = SweepSpec(eps_list=(0.2, 0.1), family="uniform", grid=g)
        entry = epsilon_sweep(spec)
        assert np.all(np.abs(entry.values["residuals"]) < 1e-8)

    def test_spec_validation(self):
        g = build_grid(1, 32, 16, 1.0)
        with pytest.raises(ValueError, match="decreasing"):
            SweepSpec(eps_list=(0.1, 0.2), grid=g).validate()
        with pytest.raises(ValueError, match="grid"):
            SweepSpec(eps_list=(0.2, 0.1)).validate()
        with pytest.raises(ValueError, match="product"):
            SweepSpec(family="step", grid=build_grid(2, 8, 4, 1.0)).validate()

    def test_2d_sweep_uses_flow_oracle(self):
        g = build_grid(2, 12, 8, 1.0)
        spec = SweepSpec(eps_list=(0.2, 0.1), family="bump_pair",
                         family_params={"width": 0.2}, grid=g)
        entry = epsilon_sweep(spec)
        assert entry.values["w2_squared"] > 0
        assert entry.values["residuals_positive"]
        assert all(p["midpoint_l1"] > 0 for p in entry.values["per_eps"])


class TestInteriorBounds:
    def test_uniform_family_trivial(self):
        g = build_grid(1, 32, 16, 1.0)
        ref = ReferenceMeasure.from_potential(0.0, g)
        m0 = np.ones(32)
        m, w, u, rep = solve_prox(m0, m0, ref, 0.1, g)
        entry = check_interior_bounds(
            [{"m": m, "u": u, "eps": 0.1, "sup_m0": 1.0}], g,
            expect_roughening=False)
        assert entry.passed
        row = entry.values["rows"][0]
        assert row["sup_m"] == pytest.approx(1.0, abs=1e-6)
        assert abs(row["grad_u_sq"]) < 1e-8


class TestWholePathQuadrature:
    """The path forms against the per-slice loops they replaced: the same
    arithmetic, so the same bits."""

    @pytest.mark.parametrize("g", [
        build_grid(1, 32, 16, 1.0, lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x)),
        build_grid(2, 8, 8, 1.0)], ids=["conformal-1d", "flat-2d"])
    def test_path_forms_match_the_slice_loops(self, g):
        from otgeo.families import make_marginals
        eps, (a, b) = 0.1, (0.25, 0.75)
        ref = ReferenceMeasure.from_potential(0.0, g)
        m0, m1 = make_marginals("bump_pair", {"width": 0.12}, g)
        m, _, u, _ = solve_prox(m0, m1, ref, eps, g)
        mv, uv, t = m.values, u.values, g.time_nodes()

        def dirichlet(f):
            return integrate(metric_norm_sq(covariant_gradient(f, g), g), g)

        assert np.array_equal(energy_profile(m, u, ref, eps), [
            energy_slice(mv[j], uv[j], ref, eps, g) for j in range(1, g.n_time)])
        assert np.array_equal(entropy_profile(m, g),
                              [integrate(entropy_density(s), g) for s in mv])
        assert np.array_equal(relative_entropy(mv, ref, g),
                              [relative_entropy(s, ref, g) for s in mv])

        inside = [k for k in range(g.n_time + 1) if a - 1e-12 <= t[k] <= b + 1e-12]
        grad_u_sq = log_m_l1 = grad_sqrt_m = global_energy = 0.0
        for k in inside:
            grad_u_sq += g.tau * dirichlet(uv[k])
            log_m_l1 += g.tau * integrate(np.abs(np.log(mv[k])), g)
            grad_sqrt_m += g.tau * dirichlet(np.sqrt(mv[k]))
        for wk, mk, uk in zip(g.time_weights(), mv, uv):
            global_energy += wk * (integrate(mk * metric_norm_sq(covariant_gradient(uk, g), g), g)
                                   + eps * integrate(entropy_density(mk), g))
        got = interior_quantities(m, u, eps, g, (a, b))
        assert (got["grad_u_sq"], got["eps_log_m_l1"], got["grad_sqrt_m_sq"],
                got["global_energy"]) == (grad_u_sq, eps * log_m_l1, grad_sqrt_m, global_energy)


class TestReportPlumbing:
    def test_json_schema_and_csv_rows(self, stationary_solution):
        g, ref, ms, m, w, u, rep = stationary_solution
        report = DiagnosticsReport()
        report.add(check_energy(m, u, ref, 0.1, g, objective=rep.objective))
        report.add(check_duality(u, m, w, ref, 0.1, g, objective=rep.objective))
        payload = report.as_dict()
        text = json.dumps(payload)  # must be JSON-serializable
        assert "entries" in payload
        for e in payload["entries"]:
            assert {"check", "inputs_digest", "grid", "threshold", "values",
                    "passed", "required"} <= set(e)
        rows = report.csv_rows()
        assert len(rows) == 2
        assert all(r["inputs_digest"] for r in rows)
        assert report.all_required_passed()

    def test_digest_changes_with_inputs(self, stationary_solution):
        g, ref, ms, m, w, u, rep = stationary_solution
        e1 = check_energy(m, u, ref, 0.1, g)
        e2 = check_energy(m, u, ref, 0.2, g)
        assert e1.inputs_digest != e2.inputs_digest
