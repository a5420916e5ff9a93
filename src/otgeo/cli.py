"""Experiment orchestration: configs in, reproducible artifacts out.

``otgeo run <config.json>`` builds the grid, marginals and reference
measure, runs the requested solver(s), evaluates the requested diagnostics
and writes the artifacts (solved fields in the ot-field v1 format, solver
and diagnostics reports as JSON, CSV tables, SVG plots).  ``otgeo check``
validates a config without running; ``otgeo sweep`` forces the
regularization-sweep mode.

Every artifact embeds the SHA-256 digest of the canonical config; nothing
volatile (wall time, hostnames) is persisted, so two runs of the same
config under the same BLAS thread count are bitwise identical.  Progress
lines go to the ``otgeo`` logger.  Exit codes: 0 success, 2 config error,
3 solver error, 4 required-diagnostic failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import math
import sys
from pathlib import Path

import numpy as np

from .grid import build_grid, write_field
from .transport import ReferenceMeasure, dual_pair
from .prox import ProxConfig, ProxError, solve_prox
from .elliptic import EllipticConfig, EllipticError, EllipticProblem, solve_elliptic
from .oracles import heat_competitor_bound
from .families import make_marginals, FAMILIES
from .diagnostics import (
    DiagnosticsReport,
    SweepSpec,
    calibrate_tol_conv,
    check_displacement_convexity,
    check_duality,
    check_energy,
    check_heat_bound,
    check_interior_bounds,
    check_time_scaling,
    epsilon_sweep,
)
from . import svg

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_DIAGNOSTIC = 4

KNOWN_CHECKS = ("energy", "duality", "displacement_convexity", "heat_bound",
                "time_scaling", "interior_bounds", "sweep")
DEFAULT_REQUIRED = {"energy": True, "duality": True}

# progress lines; nothing is shown unless a handler is attached (``--verbose``)
logger = logging.getLogger("otgeo")


class ConfigError(ValueError):
    """Malformed experiment config; message carries the field path."""


def config_digest(cfg) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()).hexdigest()[:16]


def _need(cfg, path, typ=None, default=...):
    """The config field at the dotted ``path``, or ``default`` when the field
    is absent and a default is given; a present value must be a ``typ``."""
    node = cfg
    trail = []
    for key in path.split("."):
        trail.append(key)
        if not isinstance(node, dict) or key not in node:
            if default is ...:
                raise ConfigError(f"missing config field: {'.'.join(trail)}")
            return default
        node = node[key]
    # no field read here is a boolean, and a boolean is not a number
    if typ is not None and (not isinstance(node, typ) or isinstance(node, bool)):
        names = "/".join(t.__name__ for t in (typ if isinstance(typ, tuple) else (typ,)))
        raise ConfigError(f"config field {path} has wrong type "
                          f"({type(node).__name__}, expected {names})")
    return node


# parameters of the marginal families and of the metric and reference profiles
PARAMETER_TYPES = {"width": (int, float), "peak": (int, float), "floor": (int, float),
                   "amplitude": (int, float), "frequency": (int, float),
                   "smoothing_steps": int, "centers": list, "cells": list,
                   "file0": str, "file1": str}


METRIC_PROFILES = {
    "flat": lambda params: None,
    "conformal_sine": lambda params: (
        lambda x: 1.0 + params.get("amplitude", 0.5)
        * np.sin(2.0 * np.pi * params.get("frequency", 1) * x)),
    "conformal_cosine": lambda params: (
        lambda x: 1.0 + params.get("amplitude", 0.5)
        * np.cos(2.0 * np.pi * params.get("frequency", 1) * x)),
}

REFERENCE_PROFILES = {
    "zero": lambda params, x, dim: np.zeros((len(x),) * dim),
    "cosine": lambda params, x, dim: (
        params.get("amplitude", 0.3)
        * (np.cos(2.0 * np.pi * params.get("frequency", 1) * x) if dim == 1
           else np.cos(2.0 * np.pi * params.get("frequency", 1) * x)[:, None])),
    "sine": lambda params, x, dim: (
        params.get("amplitude", 0.3)
        * (np.sin(2.0 * np.pi * params.get("frequency", 1) * x) if dim == 1
           else np.sin(2.0 * np.pi * params.get("frequency", 1) * x)[:, None])),
}


def load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}")
    validate_config(cfg)
    return cfg


def validate_config(cfg):
    dim = _need(cfg, "grid.dim", int)
    if dim not in (1, 2):
        raise ConfigError("grid.dim must be 1 or 2")
    n = _need(cfg, "grid.n_space", int)
    if n < 4:
        raise ConfigError("grid.n_space must be >= 4")
    if _need(cfg, "grid.n_time", int) < 2:
        raise ConfigError("grid.n_time must be >= 2")
    if not 0 < _need(cfg, "grid.horizon", (int, float)) < math.inf:
        raise ConfigError("grid.horizon must be finite and positive")
    metric = _need(cfg, "grid.metric_profile", dict, {})
    if metric.get("id", "flat") not in METRIC_PROFILES:
        raise ConfigError(f"grid.metric_profile.id unknown: {metric.get('id')!r}")

    family = _need(cfg, "marginals.family", str)
    if family not in FAMILIES:
        raise ConfigError(f"marginals.family unknown: {family!r} (known: {sorted(FAMILIES)})")

    ref = _need(cfg, "reference", dict, {})
    if ref.get("profile", "zero") not in REFERENCE_PROFILES:
        raise ConfigError(f"reference.profile unknown: {ref.get('profile')!r}")
    for block in ("grid.metric_profile", "marginals", "reference"):
        for key, typ in PARAMETER_TYPES.items():
            _need(cfg, f"{block}.{key}", typ, None)

    method = _need(cfg, "solver.method", str)
    if method not in ("prox", "elliptic", "both"):
        raise ConfigError("solver.method must be prox, elliptic or both")
    eps = cfg["solver"].get("eps")
    eps_list = _need(cfg, "solver.eps_list", (list, type(None)), None)
    if eps is None and eps_list is None:
        raise ConfigError("solver needs eps or eps_list")
    for e in ([eps] if eps is not None else []) + list(eps_list or []):
        if not _is_number(e) or not 0 < e < math.inf:
            raise ConfigError("solver.eps values must be finite positive numbers")

    _solver_configs(cfg)

    _need(cfg, "diagnostics", dict, {})
    for item in _need(cfg, "diagnostics.checks", list, []):
        if not isinstance(item, (str, dict)):
            raise ConfigError("config field diagnostics.checks has an item of wrong type "
                              f"({type(item).__name__}, expected str/dict)")
        cid = item if isinstance(item, str) else item.get("id")
        if cid not in KNOWN_CHECKS:
            raise ConfigError(f"diagnostics check unknown: {cid!r} (known: {KNOWN_CHECKS})")
        _validate_check_options(cid, {} if isinstance(item, str) else item, cfg)
    return cfg


def _is_number(value):
    """Whether a config value is a JSON number; ``true`` and ``false`` are not."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _validate_check_options(cid, opts, cfg):
    """Reject the options a check would refuse only after both solves."""
    def fail(message):
        raise ConfigError(f"diagnostics check {cid}: {message}")

    def number(name, default):
        value = opts.get(name, default)
        if not _is_number(value) or not -math.inf < value < math.inf:
            fail(f"{name} must be a finite number, got {value!r}")
        return value

    for name in ("required", "with_heat_bound"):
        if not isinstance(opts.get(name, False), bool):
            fail(f"{name} must be true or false, got {opts[name]!r}")
    if cid == "heat_bound" and number("beta", 2.0) <= 1:
        fail("beta must exceed 1")
    if (cid == "heat_bound" or (cid == "energy" and opts.get("with_heat_bound"))) \
            and cfg["grid"]["n_time"] < 3:
        fail("the heat bound's window needs grid.n_time >= 3")
    if cid == "time_scaling" and number("T_alt", 2.0) <= 0:
        fail("T_alt must be positive")
    if cid == "duality" and number("gap_factor", 1e-4) < 0:
        fail("gap_factor must be nonnegative")
    if cid == "displacement_convexity" and opts.get("tol_conv") is not None \
            and number("tol_conv", None) < 0:
        fail("tol_conv must be nonnegative")
    if cid == "interior_bounds":
        peaks = opts.get("peaks", [4.0, 40.0])
        if not (isinstance(peaks, list) and peaks
                and all(_is_number(p) and 0 < p < math.inf for p in peaks)):
            fail(f"peaks must be a non-empty list of finite positive numbers, got {peaks!r}")
        if "window" in opts:
            window = opts["window"]
            if not (isinstance(window, list) and len(window) == 2
                    and all(_is_number(v) and -math.inf < v < math.inf for v in window)
                    and window[0] < window[1]):
                fail(f"window must be two finite numbers a < b, got {window!r}")
            nodes = np.linspace(0.0, cfg["grid"]["horizon"], cfg["grid"]["n_time"] + 1)
            if not np.any((nodes >= window[0] - 1e-12) & (nodes <= window[1] + 1e-12)):
                fail(f"window {window!r} holds no time node")
    if cid == "sweep" and cfg["grid"].get("metric_profile", {}).get("id", "flat") != "flat":
        raise ConfigError("diagnostics check sweep needs the flat metric (its W2 oracles "
                          "are flat-only), not grid.metric_profile "
                          f"{cfg['grid']['metric_profile']['id']!r}")


def _build_setup(cfg):
    gblock = cfg["grid"]
    metric_cfg = gblock.get("metric_profile", {"id": "flat"})
    metric = METRIC_PROFILES[metric_cfg.get("id", "flat")](metric_cfg)
    grid = build_grid(gblock["dim"], gblock["n_space"], gblock["n_time"],
                      gblock["horizon"], metric, gblock.get("length", 1.0))

    ref_cfg = cfg.get("reference", {"profile": "zero"})
    V = REFERENCE_PROFILES[ref_cfg.get("profile", "zero")](
        ref_cfg, grid.axis_coords(), grid.dim)
    reference = ReferenceMeasure.from_potential(V, grid)

    mblock = cfg["marginals"]
    params = {k: v for k, v in mblock.items() if k != "family"}
    m0, m1 = make_marginals(mblock["family"], params, grid)
    return grid, reference, m0, m1


def _solver_configs(cfg):
    sp = cfg["solver"].get("prox", {})
    se = cfg["solver"].get("elliptic", {})
    try:
        prox_cfg = ProxConfig(**sp)
        ell_cfg = EllipticConfig(**se)
    except TypeError as err:
        raise ConfigError(f"solver block: {err}")
    for block, solver_cfg in (("prox", prox_cfg), ("elliptic", ell_cfg)):
        try:
            solver_cfg.validate()
        except ValueError as err:
            raise ConfigError(f"solver.{block}: {err}")
    return prox_cfg, ell_cfg


def _check_specs(cfg):
    """Normalize the diagnostics block to (id, options) pairs."""
    out = []
    for item in cfg.get("diagnostics", {}).get("checks", []):
        if isinstance(item, str):
            out.append((item, {}))
        else:
            out.append((item["id"], {k: v for k, v in item.items() if k != "id"}))
    return out


def run(config, out_dir=None, verbose=False):
    """Execute an experiment config (path or dict); returns (exit_code, artifact_paths).

    ``verbose`` shows the progress lines of the ``otgeo`` logger on stderr
    for the length of the call."""
    if not verbose:
        return _run(config, out_dir)
    handler = logging.StreamHandler(sys.stderr)
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        return _run(config, out_dir)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def _run(config, out_dir):
    try:
        if isinstance(config, dict):
            cfg = validate_config(config)
        else:
            cfg = load_config(config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG, []

    digest = config_digest(cfg)
    out = Path(out_dir or cfg.get("output", {}).get("directory", "otgeo-out"))
    out.mkdir(parents=True, exist_ok=True)
    formats = cfg.get("output", {}).get("formats", ["json", "csv", "svg"])
    artifacts = []

    try:
        grid, reference, m0, m1 = _build_setup(cfg)
        prox_cfg, ell_cfg = _solver_configs(cfg)
    except (ConfigError, ValueError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG, []
    method = cfg["solver"]["method"]
    eps_list = cfg["solver"].get("eps_list")
    eps = cfg["solver"].get("eps", eps_list[0] if eps_list else None)
    report = DiagnosticsReport()
    solve_reports = {}
    fields = {}

    try:
        if method in ("prox", "both"):
            logger.info("prox solve at eps=%s", eps)
            m, w, u, rep = solve_prox(m0, m1, reference, eps, grid, prox_cfg)
            solve_reports["prox"] = rep
            fields["prox"] = (m, w, u)
        if method in ("elliptic", "both"):
            logger.info("elliptic solve at eps=%s", eps)
            problem = EllipticProblem(grid, reference, eps, m0, m1)
            ue, me, repe = solve_elliptic(problem, ell_cfg)
            solve_reports["elliptic"] = repe
            _, we = dual_pair(repe.multiplier, m0, m1, reference, eps, grid)
            fields["elliptic"] = (me, we, ue)
        if method == "both":
            l1 = float(np.sum(np.abs(fields["prox"][0].values
                                     - fields["elliptic"][0].values)
                              * grid.cell_volume) * grid.tau)
            solve_reports["cross_method_l1"] = l1
    except (ProxError, EllipticError, ValueError) as err:
        print(f"solver error: {err}", file=sys.stderr)
        return EXIT_SOLVER, []

    primary = fields.get("prox") or fields.get("elliptic")
    m, w, u = primary
    objective = solve_reports.get("prox", solve_reports.get("elliptic")).objective

    try:
        _run_checks(cfg, report, grid, reference, m0, m1, m, w, u, objective,
                    eps, eps_list, prox_cfg)
    except (ProxError, EllipticError) as err:
        print(f"solver error during diagnostics: {err}", file=sys.stderr)
        return EXIT_SOLVER, []
    except ValueError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG, []

    artifacts += _write_artifacts(out, digest, formats, grid, fields,
                                  solve_reports, report)

    if not report.all_required_passed():
        failed = [e.check for e in report.entries if e.required and not e.passed]
        print(f"required diagnostics failed: {failed}", file=sys.stderr)
        return EXIT_DIAGNOSTIC, artifacts
    return EXIT_OK, artifacts


def _run_checks(cfg, report, grid, reference, m0, m1, m, w, u, objective,
                eps, eps_list, prox_cfg):
    for cid, opts in _check_specs(cfg):
        required = opts.get("required", DEFAULT_REQUIRED.get(cid, False))
        logger.info("diagnostic: %s", cid)
        if cid == "energy":
            bound = None
            if opts.get("with_heat_bound"):
                bound, _ = heat_competitor_bound(m0, m1, reference, eps, grid)
            report.add(check_energy(m, u, reference, eps, grid, objective=objective,
                                    upper_bound=bound, required=required))
        elif cid == "duality":
            report.add(check_duality(u, m, w, reference, eps, grid, objective=objective,
                                     gap_factor=opts.get("gap_factor", 1e-4),
                                     required=required))
        elif cid == "displacement_convexity":
            tol = opts.get("tol_conv")
            if tol is None:
                tol = calibrate_tol_conv(reference, eps, grid, prox_cfg)
            # the sign assertion needs flat geometry and a grid-convex (or
            # zero) reference potential; otherwise only record the profile
            V = reference.potential_V
            d2v = [np.roll(V, -1, ax) - 2 * V + np.roll(V, 1, ax)
                   for ax in range(grid.dim)]
            convex_v = bool(all(np.min(d) >= -1e-12 for d in d2v))
            report.add(check_displacement_convexity(
                m, u, eps, grid, tol, reference=reference,
                assert_convexity=convex_v, required=required))
        elif cid == "heat_bound":
            bound, parts = heat_competitor_bound(
                m0, m1, reference, eps, grid,
                beta=opts.get("beta", 2.0))
            report.add(check_heat_bound(m0, m1, eps, grid, objective, bound, parts,
                                        required=required))
        elif cid == "time_scaling":
            report.add(check_time_scaling(
                m0, m1, reference, eps, grid, opts.get("T_alt", 2.0),
                prox_cfg, required=required))
        elif cid == "interior_bounds":
            peaks = opts.get("peaks", [4.0, 40.0])
            window = tuple(opts["window"]) if "window" in opts else None
            fam = []
            for peak in peaks:
                mm0, mm1 = make_marginals("bump_pair", {"peak": peak, "floor": 1e-3}, grid)
                mp, wp, upx, _ = solve_prox(mm0, mm1, reference, eps, grid, prox_cfg)
                fam.append({"m": mp, "u": upx, "eps": eps, "sup_m0": float(np.max(mm0))})
            report.add(check_interior_bounds(fam, grid, window=window, required=required))
        elif cid == "sweep":
            spec = SweepSpec(
                eps_list=tuple(eps_list or (0.2, 0.1, 0.05, 0.025)),
                family=cfg["marginals"]["family"],
                family_params={k: v for k, v in cfg["marginals"].items() if k != "family"},
                grid=grid, solver_config=prox_cfg)
            report.add(epsilon_sweep(spec, required=required))


def _write_artifacts(out: Path, digest, formats, grid, fields, solve_reports,
                     report: DiagnosticsReport):
    artifacts = []

    def save(path, text):
        path.write_text(text)
        artifacts.append(str(path))
        logger.info("wrote %s", path)

    if "json" in formats:
        payload = {"config_digest": digest, "solvers": {}}
        for name, rep in solve_reports.items():
            payload["solvers"][name] = rep.as_dict() if hasattr(rep, "as_dict") else rep
        save(out / "solve_report.json", json.dumps(payload, sort_keys=True, indent=2) + "\n")
        diag = {"config_digest": digest, **report.as_dict()}
        save(out / "diagnostics.json", json.dumps(diag, sort_keys=True, indent=2) + "\n")

    for name, (m, w, u) in fields.items():
        base = out / f"fields_{name}"
        write_field(f"{base}_density.txt", m.values, grid)
        artifacts.append(f"{base}_density.txt")
        for axis in range(grid.dim):
            write_field(f"{base}_momentum_{'xy'[axis]}.txt", w.values[..., axis], grid)
            artifacts.append(f"{base}_momentum_{'xy'[axis]}.txt")
        write_field(f"{base}_potential.txt", u.values, grid)
        artifacts.append(f"{base}_potential.txt")

    if "csv" in formats:
        rows = report.csv_rows()
        path = out / "diagnostics.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=[
                "check", "dim", "n_space", "n_time", "eps", "value",
                "passed", "required", "inputs_digest", "config_digest"])
            writer.writeheader()
            for row in rows:
                row["config_digest"] = digest
                writer.writerow(row)
        artifacts.append(str(path))
        logger.info("wrote %s", path)

    if "svg" in formats:
        artifacts += emit_plots(report, out, digest)
    return artifacts


def emit_plots(report: DiagnosticsReport, out_dir, digest="") -> list:
    """Standalone SVG figures for the report entries that carry profiles.

    Emits the entropy profile with its chord bound, the interior energy
    profile, and the log-log rate fit; byte-stable for identical inputs.
    """
    out_dir = Path(out_dir)
    paths = []
    for entry in report.entries:
        if entry.check == "displacement_convexity":
            phi = np.asarray(entry.values["entropy_profile"])
            t = np.linspace(0.0, entry.grid_info["horizon"], len(phi))
            T = entry.grid_info["horizon"]
            lam = entry.values["lambda_eps"]
            chord = (1 - t / T) * phi[0] + (t / T) * phi[-1] \
                + lam * t * (T - t) / (2 * T ** 2)
            text = svg.line_plot(
                [("entropy", t, phi), ("chord + fitted bound", t, chord)],
                "Entropy along the optimal curve", "t", "int m log m",
                annotations=(f"fitted semiconvexity constant {lam:.4g}",),
                digest=digest)
            p = out_dir / "entropy_profile.svg"
            p.write_text(text)
            paths.append(str(p))
        elif entry.check == "energy":
            e = np.asarray(entry.values["energies"])
            T = entry.grid_info["horizon"]
            t = np.linspace(T / len(e), T - T / len(e), len(e))
            text = svg.line_plot(
                [("E(t)", t, e)], "Invariant energy along the curve", "t", "E",
                annotations=(f"drift {entry.values['drift']:.3e}",), digest=digest)
            p = out_dir / "energy_profile.svg"
            p.write_text(text)
            paths.append(str(p))
        elif entry.check == "epsilon_sweep":
            res = np.asarray(entry.values["residuals"])
            eps = np.asarray([pe["eps"] for pe in entry.values["per_eps"]])
            if np.all(res > 0):
                slope = entry.values["rate_slope"]
                icept = entry.values["rate_intercept"]
                fit = np.exp(icept) * eps ** slope
                text = svg.line_plot(
                    [("residual", np.log(eps), np.log(res)),
                     ("fit", np.log(eps), np.log(fit))],
                    "Rate of convergence to the geodesic energy",
                    "log eps", "log residual",
                    annotations=(f"slope {slope:.3f}",), digest=digest)
                p = out_dir / "rate_fit.svg"
                p.write_text(text)
                paths.append(str(p))
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="otgeo",
        description="Regularized dynamical optimal transport experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--verbose", action="store_true")
    p_check = sub.add_parser("check", help="validate a config without running")
    p_check.add_argument("config")
    p_sweep = sub.add_parser("sweep", help="run forcing the eps-list sweep mode")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    if args.command == "check":
        try:
            load_config(args.config)
        except ConfigError as err:
            print(f"config error: {err}", file=sys.stderr)
            return EXIT_CONFIG
        print("config ok")
        return EXIT_OK

    if args.command == "sweep":
        try:
            cfg = load_config(args.config)
        except ConfigError as err:
            print(f"config error: {err}", file=sys.stderr)
            return EXIT_CONFIG
        if not cfg["solver"].get("eps_list"):
            print("config error: sweep mode needs solver.eps_list", file=sys.stderr)
            return EXIT_CONFIG
        checks = cfg.setdefault("diagnostics", {}).setdefault("checks", [])
        if not any((c if isinstance(c, str) else c.get("id")) == "sweep" for c in checks):
            checks.append("sweep")
        code, _ = run(cfg, out_dir=args.out, verbose=args.verbose)
        return code

    code, _ = run(args.config, out_dir=args.out, verbose=args.verbose)
    return code


if __name__ == "__main__":
    sys.exit(main())
