"""Theorem-level diagnostics on solver outputs.

Each check produces a :class:`CheckEntry` recording the check name, a
digest of its inputs, the grid it ran on, the numerical values, the
tolerance it was judged against, and the pass flag.  Structural identities
(energy conservation, the duality identity) default to required; checks
that fit empirical constants (semiconvexity modulus, barrier constants,
interior bounds) are advisory by design: the underlying inequalities hold
with unspecified constants, so the fitted values are reported and only
their stability is asserted.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .grid import Grid, build_grid, covariant_gradient, integrate, metric_norm_sq
from .transport import (
    DensityPath,
    MomentumField,
    Potential,
    ReferenceMeasure,
    energy_drift,
    energy_profile,
    entropy_density,
    functional_value,
    relative_entropy,
)
from .prox import ProxConfig, solve_prox
from .oracles import _axis_pairs, flow_w2_oracle, mccann_midpoint


@dataclass
class CheckEntry:
    check: str
    inputs_digest: str
    grid_info: dict
    threshold: dict
    values: dict
    passed: bool
    required: bool = False

    def as_dict(self):
        return {
            "check": self.check,
            "inputs_digest": self.inputs_digest,
            "grid": self.grid_info,
            "threshold": self.threshold,
            "values": _plain(self.values),
            "passed": bool(self.passed),
            "required": bool(self.required),
        }


@dataclass
class DiagnosticsReport:
    entries: list = field(default_factory=list)

    def add(self, entry: CheckEntry):
        self.entries.append(entry)
        return entry

    def all_required_passed(self) -> bool:
        return all(e.passed for e in self.entries if e.required)

    def as_dict(self):
        return {"entries": [e.as_dict() for e in self.entries]}

    def csv_rows(self):
        """One row per (check, eps, grid); sweep entries expand per eps."""
        headline = {
            "energy": "drift",
            "duality": "gap",
            "displacement_convexity": "min_second_difference",
            "time_scaling": "defect",
            "interior_bounds": "endpoint_growth",
            "heat_bound": "margin",
            "epsilon_sweep": "rate_slope",
        }
        rows = []
        for e in self.entries:
            base = {
                "check": e.check,
                "dim": e.grid_info.get("dim"),
                "n_space": e.grid_info.get("n_space"),
                "n_time": e.grid_info.get("n_time"),
                "eps": e.grid_info.get("eps"),
                "passed": int(e.passed),
                "required": int(e.required),
                "inputs_digest": e.inputs_digest,
            }
            per_eps = e.values.get("per_eps")
            if per_eps:
                for sub in per_eps:
                    row = dict(base)
                    row["eps"] = sub["eps"]
                    row["value"] = sub.get("objective")
                    rows.append(row)
                continue
            row = dict(base)
            key = headline.get(e.check)
            if key is None or key not in e.values:
                scalars = [v for v in e.values.values()
                           if isinstance(v, (int, float, np.floating))]
                row["value"] = float(scalars[0]) if scalars else None
            else:
                row["value"] = float(e.values[key])
            rows.append(row)
        return rows


def _plain(obj):
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _digest(*parts):
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p).tobytes())
        else:
            h.update(json.dumps(p, sort_keys=True, default=str).encode())
    return h.hexdigest()[:16]


def _grid_info(grid: Grid, eps=None):
    info = {"dim": grid.dim, "n_space": grid.n_space, "n_time": grid.n_time,
            "horizon": grid.horizon, "flat": grid.flat}
    if eps is not None:
        info["eps"] = eps
    return info


# ---------------------------------------------------------------------------
# Energy conservation
# ---------------------------------------------------------------------------

def check_energy(m: DensityPath, u: Potential, reference: ReferenceMeasure, eps,
                 grid: Grid, objective=None, upper_bound=None,
                 required=True) -> CheckEntry:
    """Invariant-energy check: E(t_k) constant in time along the optimum.

    Passes when the drift of the interior energy profile around its mean
    is at most ``0.02 (1 + |mean|)``.  Records the profile, its drift, the
    defect of the identity E = B/T - (2 eps / T) * time-integral of the
    relative entropy, and (when a competitor upper bound is supplied) the
    uniform ceiling E <= bound/T + 2 eps log Z.
    """
    energies = energy_profile(DensityPath(np.maximum(m.values, 0.0), grid), u, reference, eps)
    mean_e = float(np.mean(energies))
    drift = energy_drift(energies)
    tol = 0.02 * (1.0 + abs(mean_e))
    passed = drift <= tol

    values = {"energies": energies, "mean_energy": mean_e, "drift": drift}
    if objective is not None:
        ent = sum(grid.time_weights()
                  * relative_entropy(np.maximum(m.values, 0.0), reference, grid))
        identity = objective / grid.horizon - 2.0 * eps / grid.horizon * ent
        values["identity_defect"] = abs(mean_e - identity)
    if upper_bound is not None:
        ceiling = upper_bound / grid.horizon + 2.0 * eps * reference.log_normalizer
        values["energy_ceiling"] = ceiling
        passed = passed and mean_e <= ceiling + 1e-9

    return CheckEntry(
        check="energy",
        inputs_digest=_digest(m.values, u.values, eps),
        grid_info=_grid_info(grid, eps),
        threshold={"drift": tol},
        values=values,
        passed=bool(passed),
        required=required,
    )


# ---------------------------------------------------------------------------
# Heat-competitor upper bound
# ---------------------------------------------------------------------------

def check_heat_bound(m0, m1, eps, grid: Grid, objective, bound, parts,
                     required=False) -> CheckEntry:
    """Upper-bound check: the optimum does not exceed the heat competitor.

    ``bound`` and its ``parts`` are the value and the breakdown returned by
    ``oracles.heat_competitor_bound`` for the marginals ``(m0, m1)``; the
    check passes when ``bound - objective >= -1e-6``.
    """
    gap = bound - objective
    return CheckEntry(
        check="heat_bound",
        inputs_digest=_digest(m0, m1, eps),
        grid_info=_grid_info(grid, eps),
        threshold={"bound_minus_objective_min": -1e-6},
        values={"bound": bound, "objective": objective, "margin": gap, **parts},
        passed=bool(gap >= -1e-6),
        required=required,
    )


# ---------------------------------------------------------------------------
# Displacement convexity
# ---------------------------------------------------------------------------

def entropy_profile(m: DensityPath, grid: Grid, V=None):
    """phi(t_k) = int m (log m + V), or int m log m when V is not given."""
    return integrate(entropy_density(np.maximum(m.values, 0.0), 0.0 if V is None else V),
                     grid)


def calibrate_tol_conv(reference: ReferenceMeasure, eps, grid: Grid,
                       config: ProxConfig = None):
    """Second-difference tolerance from the stationary instance.

    The optimal curve between identical stationary marginals is constant
    in time, so any observed second difference of its entropy profile is
    pure solver/discretization noise; the tolerance is that noise times a
    safety factor of 3 (with a small absolute floor).
    """
    ms = reference.stationary_density(grid)
    m, _, _, _ = solve_prox(ms, ms, reference, eps, grid, config or ProxConfig())
    phi = entropy_profile(m, grid, reference.potential_V)
    d2 = (phi[2:] - 2.0 * phi[1:-1] + phi[:-2]) / grid.tau ** 2
    return 3.0 * float(np.max(np.abs(d2))) + 1e-12


def check_displacement_convexity(m: DensityPath, u: Potential, eps, grid: Grid,
                                 tol_conv, reference: ReferenceMeasure = None,
                                 required=False) -> CheckEntry:
    """Convexity of the entropy along the optimal curve (flat geometry).

    Computes second differences of the relative entropy profile (asserted
    nonnegative up to ``tol_conv`` when the reference potential is convex
    along the grid or zero; otherwise only recorded), the chord inequality
    with its fitted semiconvexity constant, and the interior entropy
    ceiling with its fitted offset.
    """
    V = reference.potential_V if reference is not None else None
    convex_v = V is None or all(
        np.min(np.roll(V, -1, ax) - 2 * V + np.roll(V, 1, ax)) >= -1e-12
        for ax in range(grid.dim))
    phi_rel = entropy_profile(m, grid, V)
    phi_plain = entropy_profile(m, grid, None)
    tau, T = grid.tau, grid.horizon
    d2 = (phi_rel[2:] - 2.0 * phi_rel[1:-1] + phi_rel[:-2]) / tau ** 2
    min_d2 = float(np.min(d2))

    t = grid.time_nodes()
    interior = slice(1, grid.n_time)
    chord = (1.0 - t / T) * phi_plain[0] + (t / T) * phi_plain[-1]
    weight = t[interior] * (T - t[interior]) / (2.0 * T ** 2)
    lam_fit = float(np.max((phi_plain[interior] - chord[interior]) / weight))
    lam_fit = max(lam_fit, 0.0)

    d = grid.dim
    ceiling_base = d * np.abs(np.log(t[interior] * (T - t[interior]))) \
        + 0.5 * d * abs(np.log(eps))
    L_fit = float(np.max(phi_plain[interior] - ceiling_base))

    passed = (min_d2 >= -tol_conv) if convex_v else True
    return CheckEntry(
        check="displacement_convexity",
        inputs_digest=_digest(m.values, eps),
        grid_info=_grid_info(grid, eps),
        threshold={"second_difference": -tol_conv},
        values={
            "entropy_profile": phi_plain,
            "relative_entropy_profile": phi_rel,
            "second_differences": d2,
            "min_second_difference": min_d2,
            "lambda_eps": lam_fit,
            "entropy_ceiling_offset": L_fit,
        },
        passed=bool(passed),
        required=required,
    )


# ---------------------------------------------------------------------------
# Duality identity and barrier bounds
# ---------------------------------------------------------------------------

def _hj_residual(u, m_full, reference, eps, grid: Grid):
    """-d_t u + |grad u|^2 / 2 - eps (log m + V) at interior nodes."""
    du_dt = (u[2:] - u[:-2]) / (2.0 * grid.tau)
    gu = covariant_gradient(u[1:-1], grid)
    with np.errstate(divide="ignore"):
        logm = np.log(np.maximum(m_full[1:-1], 1e-300))
    return -du_dt + 0.5 * metric_norm_sq(gu, grid) - eps * (logm + reference.potential_V)


def check_duality(u: Potential, m: DensityPath, w: MomentumField,
                  reference: ReferenceMeasure, eps, grid: Grid,
                  objective=None, gap_factor=1e-4, required=True) -> CheckEntry:
    """Duality identity int u(0) m0 - int u(T) m1 = F_eps(m, w).

    Also fits the barrier constants C_lo, C_hi with
    -C_lo / t <= u <= C_hi / (T - t) at interior nodes, and records the
    Hamilton-Jacobi subsolution residual (max positive part, and the
    L2(m) norm, which vanishes along the optimum).
    """
    B = objective if objective is not None else functional_value(m, w, reference, eps)
    # the identity is shift-invariant, the barrier fits are not: pin the gauge
    u = u.normalize(m.values[-1])
    cross = u.cross_pairing(m.values[0], m.values[-1])
    gap = abs(cross - B)
    tol = gap_factor * (1.0 + abs(B))

    t = grid.time_nodes()
    interior = slice(1, grid.n_time)
    ti = t[interior].reshape((-1,) + (1,) * grid.dim)
    ui = u.values[interior]
    c_lower = max(0.0, float(np.max(-ui * ti)))
    c_upper = max(0.0, float(np.max(ui * (grid.horizon - ti))))

    hj = _hj_residual(u.values, np.maximum(m.values, 1e-300), reference, eps, grid)
    hj_sup_pos = float(np.max(np.maximum(hj, 0.0)))
    weight = np.maximum(m.values[1:-1], 0.0) * grid.cell_volume
    hj_l2m = float(np.sqrt(np.sum(hj ** 2 * weight) * grid.tau))

    return CheckEntry(
        check="duality",
        inputs_digest=_digest(u.values, m.values, w.values, eps),
        grid_info=_grid_info(grid, eps),
        threshold={"gap": tol},
        values={
            "gap": gap, "objective": B, "cross_product": cross,
            "c_hat_lower": c_lower, "c_hat_upper": c_upper,
            "c_hat": max(c_lower, c_upper),
            "hj_residual_sup_positive": hj_sup_pos,
            "hj_residual_l2m": hj_l2m,
            "terminal_pairing": u.terminal_pairing(m.values[-1]),
        },
        passed=bool(gap <= tol),
        required=required,
    )


# ---------------------------------------------------------------------------
# Vanishing-regularization sweep
# ---------------------------------------------------------------------------

@dataclass
class SweepSpec:
    eps_list: tuple = (0.2, 0.1, 0.05, 0.025)
    family: str = "bump_pair"
    family_params: dict = field(default_factory=dict)
    grid: Grid = None
    solver_config: ProxConfig = None

    def validate(self):
        """The spec itself; ``ValueError`` unless its eps list is strictly
        decreasing and positive, it has a grid, and the W2 oracles take its
        marginal pair (a product on the 2-D torus)."""
        eps = tuple(self.eps_list)
        if any(e <= 0 for e in eps) or any(a <= b for a, b in zip(eps, eps[1:])):
            raise ValueError("eps_list must be strictly decreasing and positive")
        if self.grid is None:
            raise ValueError("SweepSpec needs a grid")
        from .families import make_marginals
        _axis_pairs(*make_marginals(self.family, self.family_params, self.grid), self.grid)
        return self


def epsilon_sweep(spec: SweepSpec, required=False) -> CheckEntry:
    """Convergence of the regularized minimum to the geodesic energy.

    Solves the same marginal pair for each regularization strength,
    regresses the residual against the unregularized optimum
    ``W2^2 / (2T)`` from the independent oracle, and records the log-log
    rate, residual positivity and monotonicity, and the L1 distance of the
    solved midpoint to the displacement interpolant of the oracle coupling.
    Passes when the residuals are positive and decreasing, the rate lies in
    ``[0.8, 1.2]`` and no residual falls below ``-(certified gap + eps |log eps|)``.
    """
    from .families import make_marginals

    spec.validate()
    grid = spec.grid
    m0, m1 = make_marginals(spec.family, spec.family_params, grid)
    w2sq = flow_w2_oracle(m0, m1, grid)
    mid_oracle = mccann_midpoint(m0, m1, grid, t=0.5)
    reference = ReferenceMeasure.from_potential(0.0, grid)
    base = w2sq / (2.0 * grid.horizon)
    config = spec.solver_config or ProxConfig()

    def solve_one(eps):
        m, w, u, rep = solve_prox(m0, m1, reference, eps, grid, config)
        return {"eps": eps, "objective": rep.objective,
                "residual": rep.objective - base,
                "duality_gap": rep.duality_gap,
                "certified_gap": rep.certified_gap,
                "iterations": rep.iterations,
                "midpoint_l1": float(np.sum(
                    np.abs(m.values[grid.n_time // 2] - mid_oracle) * grid.cell_volume))}

    eps_list = list(spec.eps_list)
    per_eps = [solve_one(e) for e in eps_list]

    res = np.array([p["residual"] for p in per_eps])
    eps_arr = np.array(eps_list)
    slack = np.array([p["certified_gap"] for p in per_eps])
    lower_ok = bool(np.all(res >= -(slack + eps_arr * np.abs(np.log(eps_arr)))))
    positive = bool(np.all(res > 0))
    monotone = bool(np.all(np.diff(res) < 0))
    if np.all(res > 0):
        slope, intercept = np.polyfit(np.log(eps_arr), np.log(res), 1)
    else:
        slope, intercept = np.nan, np.nan
    slope_ok = bool(0.8 <= slope <= 1.2)
    midpoint_decreasing = per_eps[-1]["midpoint_l1"] <= per_eps[0]["midpoint_l1"] + 1e-12

    passed = positive and monotone and slope_ok and lower_ok
    return CheckEntry(
        check="epsilon_sweep",
        inputs_digest=_digest(m0, m1, list(spec.eps_list)),
        grid_info=_grid_info(grid),
        threshold={"slope_window": [0.8, 1.2]},
        values={
            "w2_squared": w2sq,
            "geodesic_energy": base,
            "per_eps": per_eps,
            "residuals": res,
            "rate_slope": float(slope),
            "rate_intercept": float(intercept),
            "residuals_positive": positive,
            "residuals_monotone": monotone,
            "lower_bound_ok": lower_ok,
            "midpoint_l1_decreasing": bool(midpoint_decreasing),
        },
        passed=bool(passed),
        required=required,
    )


# ---------------------------------------------------------------------------
# Horizon scaling
# ---------------------------------------------------------------------------

def check_time_scaling(objective, solve, eps, grid: Grid, gap_tolerance,
                       required=False) -> CheckEntry:
    """The exact horizon identity ``F_T(eps) = 2 F_2T(eps / 4)``: at a fixed
    ``Nt`` the kinetic term scales as 1/T and the entropy term as T.

    ``objective`` is the run's own F_T; ``solve(grid, eps)`` solves on the
    same route and returns F_2T.  Passes when ``|F_T - 2 F_2T|`` is within
    the tolerance of F_T plus twice that of F_2T, ``gap_tolerance (1 + |F|)``
    each, as certified by the prox route."""
    objective_2T = solve(build_grid(grid.dim, grid.n_space, grid.n_time, 2.0 * grid.horizon,
                                    grid.metric, grid.length), eps / 4.0)
    defect = abs(objective - 2.0 * objective_2T)
    tol = gap_tolerance * ((1.0 + abs(objective)) + 2.0 * (1.0 + abs(objective_2T)))
    return CheckEntry(
        check="time_scaling",
        inputs_digest=_digest(objective, eps, grid.horizon),
        grid_info=_grid_info(grid, eps),
        threshold={"defect": tol},
        values={"objective_T": objective, "objective_2T": objective_2T, "defect": defect},
        passed=bool(defect <= tol),
        required=required,
    )


# ---------------------------------------------------------------------------
# Interior bounds across a roughness family
# ---------------------------------------------------------------------------

def interior_quantities(m: DensityPath, u: Potential, eps, grid: Grid, window):
    """The windowed quantities of the interior regularity story.

    Over time nodes inside ``window = (a, b)``: the sup of the density, the
    plain Dirichlet energy of u, eps * the L1 norm of log m, and the
    Dirichlet energy of sqrt(m); plus the global combined energy
    ``int int (m |grad u|^2 + eps m log m)``.
    """
    a, b = window
    t = grid.time_nodes()
    inside = (t >= a - 1e-12) & (t <= b + 1e-12)
    tau = grid.tau
    sup_m = float(np.max(m.values[inside]))

    def dirichlet(f):
        return integrate(metric_norm_sq(covariant_gradient(f, grid), grid), grid)

    mk = np.maximum(m.values[inside], 1e-300)
    # per-slice terms summed in time order, as a running total would
    grad_u_sq = sum(tau * dirichlet(u.values[inside]))
    log_m_l1 = sum(tau * integrate(np.abs(np.log(mk)), grid))
    grad_sqrt_m = sum(tau * dirichlet(np.sqrt(mk)))
    m_all = np.maximum(m.values, 0.0)
    gu = covariant_gradient(u.values, grid)
    global_energy = sum(grid.time_weights()
                        * (integrate(m_all * metric_norm_sq(gu, grid), grid)
                           + eps * integrate(entropy_density(m_all), grid)))
    return {"sup_m": sup_m, "grad_u_sq": grad_u_sq,
            "eps_log_m_l1": eps * log_m_l1, "grad_sqrt_m_sq": grad_sqrt_m,
            "global_energy": global_energy}


def check_interior_bounds(family_results, grid: Grid, window=None,
                          expect_roughening=True, required=False) -> CheckEntry:
    """Interior regularization across marginals of increasing roughness.

    ``family_results`` is a list of dicts with keys ``m`` (DensityPath),
    ``u`` (Potential), ``eps``, ``sup_m0``.  Asserts the windowed
    quantities stay within a factor of 2 across the family while the
    endpoint sup-norms grow by at least 10x (skip the growth requirement
    via ``expect_roughening=False`` for trivial families); when two
    distinct eps values are present, fits C in
    int int |grad sqrt(m)|^2 <= C |log eps| / eps per eps and records the
    spread.
    """
    window = window or (grid.horizon / 4.0, 3.0 * grid.horizon / 4.0)
    growth_factor = 2.0
    rows = []
    for case in family_results:
        q = interior_quantities(case["m"], case["u"], case["eps"], grid, window)
        q["eps"] = case["eps"]
        q["sup_m0"] = case["sup_m0"]
        rows.append(q)

    sups = np.array([r["sup_m0"] for r in rows])
    endpoint_growth = float(sups.max() / sups.min())
    ratios = {}
    for key in ("sup_m", "grad_u_sq", "eps_log_m_l1", "global_energy"):
        vals = np.array([r[key] for r in rows])
        scale = np.max(np.abs(vals))
        if scale <= 1e-12:
            ratios[key] = 1.0
        elif np.min(np.abs(vals)) <= 1e-12:
            ratios[key] = np.inf
        else:
            ratios[key] = float(np.max(np.abs(vals)) / np.min(np.abs(vals)))
    bounded = all(r <= growth_factor for r in ratios.values())

    fisher_fit = None
    eps_vals = sorted({r["eps"] for r in rows})
    if len(eps_vals) >= 2:
        cs = {}
        for e in eps_vals:
            vals = [r["grad_sqrt_m_sq"] for r in rows if r["eps"] == e]
            cs[e] = max(vals) * e / abs(np.log(e))
        cvals = np.array(list(cs.values()))
        fisher_fit = {"c_per_eps": {str(k): float(v) for k, v in cs.items()},
                      "spread": float(cvals.max() / max(cvals.min(), 1e-300))}

    passed = bounded
    if expect_roughening and len(rows) > 1:
        passed = passed and endpoint_growth >= 10.0
    values = {"rows": rows, "ratios": ratios, "endpoint_growth": endpoint_growth}
    if fisher_fit:
        values["fisher_scaling"] = fisher_fit
        passed = passed and fisher_fit["spread"] <= growth_factor
    return CheckEntry(
        check="interior_bounds",
        inputs_digest=_digest(*[c["m"].values for c in family_results]),
        grid_info=_grid_info(grid),
        threshold={"growth_factor": growth_factor, "endpoint_growth_min": 10.0},
        values=values,
        passed=bool(passed),
        required=required,
    )
