"""Acceptance suite: the structural claims at desk scale, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines.  Tolerances are fixed here, not tuned at runtime; the only
calibrated quantity is the second-difference tolerance of the convexity
check, which is defined as three times the measured noise of the
stationary instance on the same grid.
"""

import time

import numpy as np
import pytest

from otgeo.grid import (
    build_grid,
    covariant_gradient,
    divergence_g,
    integrate,
    metric_dot,
)
from otgeo.transport import (
    DensityPath,
    MomentumField,
    ReferenceMeasure,
    continuity_residual,
    relative_entropy,
)
from otgeo.prox import (
    ProxConfig,
    _entropy_prox,
    _kinetic_prox,
    project_continuity,
    solve_prox,
    spacetime_poisson,
)
from otgeo.elliptic import EllipticProblem, solve_elliptic
from otgeo.oracles import heat_competitor_bound
from otgeo.families import make_marginals
from otgeo.diagnostics import (
    calibrate_tol_conv,
    check_displacement_convexity,
    check_duality,
    check_energy,
    check_interior_bounds,
    SweepSpec,
    epsilon_sweep,
)
from prox_reference import apply_operator, prox_root

EPS = 0.1


def report(criterion, passed, detail):
    line = f"criterion {criterion}: {'PASS' if passed else 'FAIL'} [{detail}]"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def grid64():
    return build_grid(1, 64, 32, 1.0)


@pytest.fixture(scope="module")
def flat_reference(grid64):
    return ReferenceMeasure.from_potential(0.0, grid64)


@pytest.fixture(scope="module")
def two_bump(grid64):
    return make_marginals("bump_pair", {"width": 0.08, "centers": (0.0, 0.5)}, grid64)


@pytest.fixture(scope="module")
def two_bump_solution(grid64, flat_reference, two_bump):
    m0, m1 = two_bump
    return solve_prox(m0, m1, flat_reference, EPS, grid64)


def test_criterion_1_stationary_exactness(grid64):
    x = grid64.axis_coords()
    ref = ReferenceMeasure.from_potential(0.3 * np.cos(2 * np.pi * x), grid64)
    ms = ref.stationary_density(grid64)
    target = -EPS * ref.log_normalizer

    t0 = time.perf_counter()
    _, _, _, rep_p = solve_prox(ms, ms, ref, EPS, grid64)
    t_prox = time.perf_counter() - t0
    t0 = time.perf_counter()
    _, _, rep_e = solve_elliptic(EllipticProblem(grid64, ref, EPS, ms, ms))
    t_ell = time.perf_counter() - t0

    err_p = abs(rep_p.objective - target)
    err_e = abs(rep_e.objective - target)
    passed = err_p <= 2e-6 and err_e <= 2e-6 and t_prox < 30 and t_ell < 30
    report(1, passed,
           f"stationary exactness: prox err {err_p:.2e}, elliptic err {err_e:.2e}, "
           f"runtimes {t_prox:.1f}s/{t_ell:.1f}s")


def test_criterion_2_energy_conservation(grid64, flat_reference, two_bump,
                                         two_bump_solution):
    t0 = time.perf_counter()
    m0, m1 = two_bump
    m, w, u, rep = two_bump_solution
    entry = check_energy(m, u, flat_reference, EPS, grid64, objective=rep.objective)
    drift_coarse = entry.values["drift"]
    tol = 0.02 * (1.0 + abs(entry.values["mean_energy"]))

    fine = build_grid(1, 128, 64, 1.0)
    f0, f1 = make_marginals("bump_pair", {"width": 0.08, "centers": (0.0, 0.5)}, fine)
    ref_f = ReferenceMeasure.from_potential(0.0, fine)
    mf, wf, uf, repf = solve_prox(f0, f1, ref_f, EPS, fine)
    entry_f = check_energy(mf, uf, ref_f, EPS, fine, objective=repf.objective)
    drift_fine = entry_f.values["drift"]
    elapsed = time.perf_counter() - t0

    passed = (drift_coarse <= tol and drift_fine <= 0.65 * drift_coarse
              and elapsed < 120)
    report(2, passed,
           f"energy drift {drift_coarse:.2e} <= {tol:.2e}; refinement ratio "
           f"{drift_fine / drift_coarse:.2f}; {elapsed:.0f}s")


def test_criterion_3_duality_identity(grid64, flat_reference, two_bump_solution):
    gaps = []

    # uniform
    g = grid64
    m0 = np.ones(64)
    m, w, u, rep = solve_prox(m0, m0, flat_reference, EPS, g)
    e = check_duality(u, m, w, flat_reference, EPS, g, objective=rep.objective)
    gaps.append(("uniform", e.values["gap"], e.threshold["gap"], e.passed))

    # stationary with cosine potential
    x = g.axis_coords()
    ref = ReferenceMeasure.from_potential(0.3 * np.cos(2 * np.pi * x), g)
    ms = ref.stationary_density(g)
    m, w, u, rep = solve_prox(ms, ms, ref, EPS, g)
    e = check_duality(u, m, w, ref, EPS, g, objective=rep.objective)
    gaps.append(("stationary", e.values["gap"], e.threshold["gap"], e.passed))

    # two bumps
    m, w, u, rep = two_bump_solution
    e = check_duality(u, m, w, flat_reference, EPS, g, objective=rep.objective)
    gaps.append(("two-bump", e.values["gap"], e.threshold["gap"], e.passed))

    # conformal metric
    gc = build_grid(1, 32, 16, 1.0, lambda xx: 1 + 0.4 * np.cos(2 * np.pi * xx))
    refc = ReferenceMeasure.from_potential(0.0, gc)
    c0, c1 = make_marginals("bump_pair", {"width": 0.15}, gc)
    m, w, u, rep = solve_prox(c0, c1, refc, EPS, gc)
    e = check_duality(u, m, w, refc, EPS, gc, objective=rep.objective)
    gaps.append(("conformal", e.values["gap"], e.threshold["gap"], e.passed))

    passed = all(ok for _, _, _, ok in gaps)
    detail = "; ".join(f"{name} gap {gap:.1e}" for name, gap, _, _ in gaps)
    report(3, passed, "duality identity: " + detail)


def test_criterion_4_displacement_convexity(grid64, flat_reference, two_bump_solution):
    tol_conv = calibrate_tol_conv(flat_reference, EPS, grid64)
    m, w, u, rep = two_bump_solution
    entry = check_displacement_convexity(m, u, EPS, grid64, tol_conv,
                                         reference=flat_reference)
    lam = entry.values["lambda_eps"]
    min_d2 = entry.values["min_second_difference"]

    # the chord inequality with the fitted constant holds at every node
    phi = np.asarray(entry.values["entropy_profile"])
    t = grid64.time_nodes()
    T = grid64.horizon
    chord = (1 - t / T) * phi[0] + (t / T) * phi[-1] + lam * t * (T - t) / (2 * T ** 2)
    chord_ok = bool(np.all(phi <= chord + 1e-9 * (1 + np.abs(chord))))

    passed = entry.passed and lam >= 0.0 and chord_ok
    report(4, passed,
           f"displacement convexity: min second difference {min_d2:.3e} >= "
           f"-{tol_conv:.1e}; fitted semiconvexity constant {lam:.3g}")


def test_criterion_5_epsilon_rate(grid64):
    t0 = time.perf_counter()
    spec = SweepSpec(eps_list=(0.2, 0.1, 0.05, 0.025), family="bump_pair",
                     family_params={"width": 0.18, "centers": (0.0, 0.5)},
                     grid=grid64)
    entry = epsilon_sweep(spec)
    elapsed = time.perf_counter() - t0
    v = entry.values
    passed = (v["residuals_positive"] and v["residuals_monotone"]
              and 0.8 <= v["rate_slope"] <= 1.2 and elapsed < 900)
    report(5, passed,
           f"eps->0 rate: slope {v['rate_slope']:.3f} in [0.8, 1.2], residuals "
           f"{np.array2string(np.asarray(v['residuals']), precision=4)}, {elapsed:.0f}s")


def test_criterion_6_heat_competitor_upper_bound(grid64, flat_reference, two_bump,
                                                 two_bump_solution):
    results = []

    m0, m1 = two_bump
    bound, _ = heat_competitor_bound(m0, m1, flat_reference, EPS, grid64)
    results.append(("two-bump", bound, two_bump_solution[3].objective))

    # near-Dirac data: one loaded cell plus a single heat-smoothing step
    p0, p1 = make_marginals("point_like", {"smoothing_steps": 1}, grid64)
    h_end = relative_entropy(p0, flat_reference, grid64)
    logn = np.log(grid64.n_space)
    assert 0.5 * logn <= h_end <= 1.5 * logn, f"endpoint entropy {h_end} vs log n {logn}"
    # the near-vacuum cells make the splitting crawl at the last digits; a
    # looser gap stop still certifies the objective far below the 1e-6 slack
    # of the comparison with the bound
    loose = ProxConfig(gap_tolerance=1e-6, max_outer_iterations=20000)
    _, _, _, rep_point = solve_prox(p0, p1, flat_reference, EPS, grid64, loose)
    assert rep_point.duality_gap <= 1e-4 * (1 + abs(rep_point.objective))
    bound_point, _ = heat_competitor_bound(p0, p1, flat_reference, EPS, grid64)
    results.append(("point-like", bound_point, rep_point.objective))

    passed = all(b >= obj - 1e-6 for _, b, obj in results)
    detail = "; ".join(f"{n}: bound {b:.4f} >= B {o:.4f}" for n, b, o in results)
    report(6, passed,
           f"heat competitor dominates ({detail}; endpoint entropy "
           f"{h_end:.2f} vs log n {logn:.2f})")


def test_criterion_7_interior_regularization(grid64, flat_reference):
    fam = []
    for peak in (4.0, 40.0):
        m0, m1 = make_marginals("bump_pair", {"peak": peak, "floor": 1e-3}, grid64)
        m, w, u, rep = solve_prox(m0, m1, flat_reference, EPS, grid64)
        fam.append({"m": m, "u": u, "eps": EPS, "sup_m0": float(np.max(m0))})
    entry = check_interior_bounds(fam, grid64)
    sup_ratio = entry.values["ratios"]["sup_m"]
    passed = sup_ratio < 2.0 and entry.values["endpoint_growth"] >= 10.0
    report(7, passed,
           f"interior sup(m) ratio {sup_ratio:.2f} < 2 while endpoint peaks grew "
           f"{entry.values['endpoint_growth']:.1f}x")


def test_criterion_8_cross_method_agreement(flat_reference):
    # the routes are independent (ADMM on F, Newton on G) and meet at the same
    # discrete optimum: the primal objective sits just above the dual value
    distances, gaps = [], []
    for (n, nt) in ((64, 32), (128, 64)):
        g = build_grid(1, n, nt, 1.0)
        ref = ReferenceMeasure.from_potential(0.0, g)
        m0, m1 = make_marginals("bump_pair", {"width": 0.18, "centers": (0.0, 0.5)}, g)
        mp, _, _, rep_p = solve_prox(m0, m1, ref, EPS, g)
        _, me, rep_e = solve_elliptic(EllipticProblem(g, ref, EPS, m0, m1))
        distances.append(float(np.sum(np.abs(mp.values - me.values)
                                      * g.cell_volume) * g.tau))
        gaps.append((rep_p.objective - rep_e.objective_history[-1])
                    / (1.0 + abs(rep_p.objective)))
    passed = max(distances) <= 2e-5 and all(0.0 <= gap <= 1e-10 for gap in gaps)
    report(8, passed,
           f"cross-method L1 {distances[0]:.2e}, {distances[1]:.2e} <= 2e-5; "
           f"F_prox - G_dual {gaps[0]:.1e}, {gaps[1]:.1e} in [0, 1e-10] (1 + |F|)")


def test_criterion_8_on_raw_single_cell_data():
    # the paper's L1 data: one loaded cell per marginal, no smoothing; both
    # routes still meet at one discrete optimum
    g = build_grid(1, 32, 16, 1.0)
    ref = ReferenceMeasure.from_potential(0.0, g)
    m0, m1 = make_marginals("point_like", {"smoothing_steps": 0}, g)
    assert np.count_nonzero(m0) == np.count_nonzero(m1) == 1
    mp, _, _, rep_p = solve_prox(m0, m1, ref, EPS, g)
    _, me, rep_e = solve_elliptic(EllipticProblem(g, ref, EPS, m0, m1))
    distance = float(np.sum(np.abs(mp.values - me.values) * g.cell_volume) * g.tau)
    gap = (rep_p.objective - rep_e.objective_history[-1]) / (1.0 + abs(rep_p.objective))
    passed = distance <= 2e-5 and 0.0 <= gap <= 1e-10
    report(8, passed,
           f"raw single-cell data: cross-method L1 {distance:.2e} <= 2e-5; "
           f"F_prox - G_dual {gap:.1e} in [0, 1e-10] (1 + |F|)")


def test_l1_to_linf_regularization_of_raw_data():
    # single-cell marginals are in L1 only, yet at interior times the density
    # is bounded independently of the grid: sup m at t = 1/8 and t = 1/4
    # agrees within 5% between 32 x 16 and 64 x 32
    sups = []
    for (n, nt) in ((32, 16), (64, 32)):
        g = build_grid(1, n, nt, 1.0)
        ref = ReferenceMeasure.from_potential(0.0, g)
        m0, m1 = make_marginals("point_like", {"smoothing_steps": 0}, g)
        _, m, _ = solve_elliptic(EllipticProblem(g, ref, EPS, m0, m1))
        sups.append([float(np.max(m.values[nt * k // 8])) for k in (1, 2)])
    (a8, a4), (b8, b4) = sups
    passed = all(abs(a - b) <= 0.05 * max(a, b) for a, b in ((a8, b8), (a4, b4)))
    report("L1-Linf", passed,
           f"interior sup m at t = 1/8: {a8:.3f} / {b8:.3f}, at t = 1/4: {a4:.3f} / {b4:.3f} "
           f"(32x16 / 64x32, within 5%); endpoint sup {float(np.max(m0)):.0f}")


def test_criterion_9_barrier_stability(grid64, flat_reference, two_bump_solution):
    def c_hat(n, nt, eps):
        g = build_grid(1, n, nt, 1.0)
        ref = ReferenceMeasure.from_potential(0.0, g)
        m0, m1 = make_marginals("bump_pair", {"width": 0.08, "centers": (0.0, 0.5)}, g)
        if (n, nt, eps) == (64, 32, EPS):
            m, w, u, rep = two_bump_solution
        else:
            m, w, u, rep = solve_prox(m0, m1, ref, eps, g)
        entry = check_duality(u, m, w, ref, eps, g, objective=rep.objective)
        return entry.values["c_hat"]

    base = c_hat(64, 32, 0.1)
    refined = c_hat(128, 64, 0.1)
    smaller_eps = c_hat(64, 32, 0.05)

    def stable(a, b):
        return abs(a - b) <= 0.25 * max(abs(a), abs(b))

    passed = stable(base, refined) and stable(base, smaller_eps)
    report(9, passed,
           f"barrier constant {base:.3f}; refined {refined:.3f}; "
           f"eps=0.05 {smaller_eps:.3f} (all within 25%)")


def test_criterion_10_module_invariants_fast(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)

    # discrete Stokes / duality identities
    for dim, metric in ((1, None), (1, lambda x: 1 + 0.5 * np.sin(2 * np.pi * x)), (2, None)):
        g = build_grid(dim, 16, 8, 1.0, metric)
        uu = rng.standard_normal(g.space_shape)
        X = rng.standard_normal(g.space_shape + (dim,))
        lhs = integrate(uu * divergence_g(X, g), g)
        rhs = -integrate(metric_dot(covariant_gradient(uu, g), X, g), g)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
        assert abs(integrate(divergence_g(X, g), g)) <= 1e-12

    # prox root residuals
    a = rng.standard_normal(4000) * 2
    bsq = rng.random(4000) * 4
    for eps_cell in (0.0, 0.1):
        mroot = prox_root(a, bsq, 1.0, eps_cell, 0.0)
        f = (mroot - a) - bsq / (2 * (mroot + 1.0) ** 2)
        if eps_cell > 0:
            f = f + eps_cell * (np.log(mroot) + 1.0)
        else:
            f = np.where(mroot == 0.0, 0.0, f)
        assert np.max(np.abs(f)) <= 1e-12

    # closed forms of solve_prox against the reference root, relative to m + sigma:
    # vacuum cells, |b|^2 up to 1e6, and the Wright omega underflow tail
    for scale in (1.0, 2.5e5):
        closed = _kinetic_prox(a, scale * bsq, 1.0)
        mroot = prox_root(a, scale * bsq, 1.0, 0.0, 0.0)
        f = np.where(closed == 0.0, 0.0, (closed - a) - scale * bsq / (2 * (closed + 1.0) ** 2))
        assert np.array_equal(closed == 0.0, mroot == 0.0)
        assert np.max(np.abs(f)) <= 1e-12
        assert np.max(np.abs(closed - mroot) / (mroot + 1.0)) <= 1e-12
    closed = _entropy_prox(a, 1.0, 0.1, 0.0)
    assert np.max(np.abs((closed - a) + 0.1 * (np.log(closed) + 1.0))) <= 1e-12
    assert np.max(np.abs(closed - prox_root(a, 0.0, 1.0, 0.1, 0.0)) / (closed + 1.0)) <= 1e-12
    tail = _entropy_prox(np.array([-74.5, -80.0, -1e3]), 1.0, 0.1, 0.0)
    assert np.all(np.isfinite(tail)) and np.all(tail >= 0.0)

    # space-time solves reproduce their right-hand side off the kernel, the constants
    g = build_grid(1, 32, 16, 1.0)
    rhs = rng.standard_normal((16, 32))
    rhs -= np.mean(rhs)
    phi = spacetime_poisson(rhs, g)
    back = apply_operator(phi, g, weighted=False)
    assert np.linalg.norm(back - rhs) <= 1e-10 * np.linalg.norm(rhs)

    # idempotent projection
    m0, m1 = make_marginals("bump_pair", {"width": 0.15}, g)
    m = DensityPath(np.tile(m0, (17, 1)), g)
    w = MomentumField(rng.standard_normal((16, 32, 1)), g)
    mp, wp = project_continuity(m, w, m0, m1, g)
    assert continuity_residual(mp, wp)[1] <= 1e-12
    mp2, wp2 = project_continuity(mp, wp, m0, m1, g)
    assert np.max(np.abs(mp2.values - mp.values)) <= 1e-12

    # reproducible artifacts
    import hashlib
    import json
    from pathlib import Path
    from otgeo.cli import run
    cfg = {"grid": {"dim": 1, "n_space": 32, "n_time": 16, "horizon": 1.0},
           "marginals": {"family": "uniform"},
           "solver": {"method": "prox", "eps": 0.1},
           "diagnostics": {"checks": ["energy", "duality"]}}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    _, arts1 = run(p, out_dir=tmp_path / "a")
    _, arts2 = run(p, out_dir=tmp_path / "b")
    for x, y in zip(sorted(arts1), sorted(arts2)):
        assert hashlib.sha256(Path(x).read_bytes()).digest() == \
            hashlib.sha256(Path(y).read_bytes()).digest()

    elapsed = time.perf_counter() - t0
    report(10, elapsed < 60,
           f"module invariant suites (Stokes/duality, prox roots, space-time solve, "
           f"projection, reproducibility) in {elapsed:.1f}s < 60s")
