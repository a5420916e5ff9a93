"""Experiment orchestration: configs in, reproducible artifacts out.

:func:`validate_config` reads a config once and builds all a run needs but
the solves: grid, reference measure, marginals, solver configs and the
checks, their options filled in from :data:`CHECK_OPTIONS`.  ``otgeo check``
stops there, so it finds every config error that ``otgeo run`` would; ``run``
then solves on what was built, evaluates the diagnostics, and creates the
output directory only to write the artifacts (solved fields in the ot-field
v1 format, solver and diagnostics reports as JSON, CSV tables, SVG plots).
``otgeo sweep`` forces the regularization-sweep mode.

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
from typing import NamedTuple

import numpy as np

from .grid import Grid, build_grid, write_field
from .transport import ReferenceMeasure, check_marginals, dual_pair
from .prox import ProxConfig, ProxError, solve_prox
from .elliptic import EllipticConfig, EllipticError, EllipticProblem, solve_elliptic
from .oracles import heat_bound_window, heat_competitor_bound
from .families import make_marginals
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

# each diagnostics check's options with their defaults; a check item may set
# no other option (``tol_conv`` None calibrates it, ``window`` None is the
# middle half of the horizon)
CHECK_OPTIONS = {
    "energy": {"required": True, "with_heat_bound": False},
    "duality": {"required": True, "gap_factor": 1e-4},
    "displacement_convexity": {"required": False, "tol_conv": None},
    "heat_bound": {"required": False, "beta": 2.0},
    "time_scaling": {"required": False},
    "interior_bounds": {"required": False, "peaks": (4.0, 40.0), "window": None},
    "sweep": {"required": False},
}

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


# the fields of the config and of each of its blocks but ``marginals``, which
# holds ``family`` and the fields its family reads (``families.FAMILIES``);
# ``solver.prox`` and ``solver.elliptic`` hold the fields of their solver configs
CONFIG_FIELDS = {
    "": ("grid", "marginals", "reference", "solver", "diagnostics", "output"),
    "grid": ("dim", "n_space", "n_time", "horizon", "length", "metric_profile"),
    "grid.metric_profile": ("id", "amplitude", "frequency"),
    "reference": ("profile", "amplitude", "frequency"),
    "solver": ("method", "eps", "eps_list", "prox", "elliptic"),
    "diagnostics": ("checks",),
    "output": ("directory", "formats"),
}

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


class Setup(NamedTuple):
    """Everything a run needs but the solves, as :func:`validate_config`
    built it from one config."""

    grid: Grid
    reference: ReferenceMeasure
    m0: np.ndarray
    m1: np.ndarray
    routes: tuple  # the solvers solver.method runs; the checks read the first one's solve
    eps: float
    prox: ProxConfig
    elliptic: EllipticConfig
    checks: list  # (id, options) pairs, every option of CHECK_OPTIONS resolved
    out_dir: str
    formats: list


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}")


def load_config(path) -> Setup:
    """The :class:`Setup` of the config file at ``path``."""
    return validate_config(_read_json(path))


def validate_config(cfg) -> Setup:
    """Build everything ``cfg`` asks for but the solves; the one reading of a config.

    The builders' own rules decide what is valid: the grid's ranges, the
    family parameters, nonnegative unit-mass marginals, the solver configs
    and the sweep's eps list.  A ``ValueError`` of a builder comes back as a
    :class:`ConfigError` naming the block.
    """
    if not isinstance(cfg, dict):
        raise ConfigError(f"config must be a JSON object, got {type(cfg).__name__}")
    for block, fields in CONFIG_FIELDS.items():
        unknown = sorted(set(_need(cfg, block, dict, {}) if block else cfg) - set(fields))
        if unknown:
            raise ConfigError(f"unknown config field: {block + '.' if block else ''}{unknown[0]}")
    metric_cfg = _need(cfg, "grid.metric_profile", dict, {})
    ref_cfg = _need(cfg, "reference", dict, {})
    metric_id = _need(cfg, "grid.metric_profile.id", str, "flat")
    if metric_id not in METRIC_PROFILES:
        raise ConfigError(f"grid.metric_profile.id unknown: {metric_id!r}")
    profile = _need(cfg, "reference.profile", str, "zero")
    if profile not in REFERENCE_PROFILES:
        raise ConfigError(f"reference.profile unknown: {profile!r}")
    for block in ("grid.metric_profile", "marginals", "reference"):
        for key, typ in PARAMETER_TYPES.items():
            value = _need(cfg, f"{block}.{key}", typ, None)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{block}.{key} must be a finite number, got {value!r}")

    shape = [_need(cfg, f"grid.{key}", int) for key in ("dim", "n_space", "n_time")]
    horizon = _need(cfg, "grid.horizon", (int, float))
    length = _need(cfg, "grid.length", (int, float), 1.0)
    try:
        grid = build_grid(*shape, horizon, METRIC_PROFILES[metric_id](metric_cfg), length)
    except ValueError as err:
        raise ConfigError(f"grid: {err}")
    try:
        reference = ReferenceMeasure.from_potential(
            REFERENCE_PROFILES[profile](ref_cfg, grid.axis_coords(), grid.dim), grid)
    except ValueError as err:
        raise ConfigError(f"reference: {err}")
    family = _need(cfg, "marginals.family", str)
    params = {k: v for k, v in cfg["marginals"].items() if k != "family"}
    try:
        m0, m1 = check_marginals(*make_marginals(family, params, grid), grid)
    except ValueError as err:
        raise ConfigError(f"marginals: {err}")

    method = _need(cfg, "solver.method", str)
    if method not in ("prox", "elliptic", "both"):
        raise ConfigError("solver.method must be prox, elliptic or both")
    eps = cfg["solver"].get("eps")
    eps_list = _need(cfg, "solver.eps_list", (list, type(None)), None)
    if eps is None and not eps_list:
        raise ConfigError("solver needs eps or a non-empty eps_list")
    for e in ([eps] if eps is not None else []) + list(eps_list or []):
        if not _is_number(e) or not 0 < e < math.inf:
            raise ConfigError("solver.eps values must be finite positive numbers")
    try:
        prox_cfg = ProxConfig(**cfg["solver"].get("prox", {}))
        ell_cfg = EllipticConfig(**cfg["solver"].get("elliptic", {}))
    except TypeError as err:
        raise ConfigError(f"solver block: {err}")
    for block, solver_cfg in (("prox", prox_cfg), ("elliptic", ell_cfg)):
        try:
            solver_cfg.validate()
        except ValueError as err:
            raise ConfigError(f"solver.{block}: {err}")

    _need(cfg, "diagnostics", dict, {})
    checks = []
    for item in _need(cfg, "diagnostics.checks", list, []):
        if not isinstance(item, (str, dict)):
            raise ConfigError("config field diagnostics.checks has an item of wrong type "
                              f"({type(item).__name__}, expected str/dict)")
        given = {"id": item} if isinstance(item, str) else item
        cid = given.get("id")
        if not isinstance(cid, str) or cid not in CHECK_OPTIONS:
            raise ConfigError(f"diagnostics check unknown: {cid!r} "
                              f"(known: {tuple(CHECK_OPTIONS)})")
        unknown = sorted(set(given) - {"id", *CHECK_OPTIONS[cid]})
        if unknown:
            raise ConfigError(f"diagnostics check {cid}: unknown option {unknown[0]!r} "
                              f"(known: {sorted(CHECK_OPTIONS[cid])})")
        opts = {name: given.get(name, default) for name, default in CHECK_OPTIONS[cid].items()}
        try:
            _validate_check_options(cid, opts, grid)
            if cid == "sweep":
                opts["spec"] = SweepSpec(
                    eps_list=tuple(eps_list or SweepSpec.eps_list), family=family,
                    family_params=params, grid=grid, solver_config=prox_cfg).validate()
        except ValueError as err:
            raise ConfigError(f"diagnostics check {cid}: {err}")
        checks.append((cid, opts))

    _need(cfg, "output", dict, {})
    formats = _need(cfg, "output.formats", list, ["json", "csv", "svg"])
    if not all(item in ("json", "csv", "svg") for item in formats):
        raise ConfigError(f"output.formats items must be json, csv or svg, got {formats!r}")
    return Setup(grid, reference, m0, m1, ("prox", "elliptic") if method == "both" else (method,),
                 eps if eps is not None else eps_list[0], prox_cfg, ell_cfg, checks,
                 _need(cfg, "output.directory", str, "otgeo-out"), formats)


def _is_number(value):
    """Whether a config value is a JSON number; ``true`` and ``false`` are not."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _validate_check_options(cid, opts, grid):
    """``ValueError`` for the resolved options a check would refuse only after
    both solves."""
    def fail(message):
        raise ValueError(message)

    def number(name):
        value = opts[name]
        if not _is_number(value) or not -math.inf < value < math.inf:
            fail(f"{name} must be a finite number, got {value!r}")
        return value

    for name in ("required", "with_heat_bound"):
        if name in opts and not isinstance(opts[name], bool):
            fail(f"{name} must be true or false, got {opts[name]!r}")
    if cid == "heat_bound" or (cid == "energy" and opts["with_heat_bound"]):
        heat_bound_window(grid.n_time, number("beta") if cid == "heat_bound" else 2.0)
    if cid == "duality" and number("gap_factor") < 0:
        fail("gap_factor must be nonnegative")
    if cid == "displacement_convexity" and opts["tol_conv"] is not None \
            and number("tol_conv") < 0:
        fail("tol_conv must be nonnegative")
    if cid == "interior_bounds":
        peaks = opts["peaks"]
        if not (isinstance(peaks, (list, tuple)) and peaks
                and all(_is_number(p) and 0 < p < math.inf for p in peaks)):
            fail(f"peaks must be a non-empty list of finite positive numbers, got {peaks!r}")
        window = opts["window"]
        if window is not None:
            if not (isinstance(window, list) and len(window) == 2
                    and all(_is_number(v) and -math.inf < v < math.inf for v in window)
                    and window[0] < window[1]):
                fail(f"window must be two finite numbers a < b, got {window!r}")
            nodes = grid.time_nodes()
            if not np.any((nodes >= window[0] - 1e-12) & (nodes <= window[1] + 1e-12)):
                fail(f"window {window!r} holds no time node")


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
        cfg = config if isinstance(config, dict) else _read_json(config)
        setup = validate_config(cfg)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG, []

    report = DiagnosticsReport()

    try:
        fields, solve_reports = _solve(setup, setup.grid, setup.eps, setup.routes)
        if len(setup.routes) == 2:
            solve_reports["cross_method_l1"] = float(np.sum(np.abs(
                fields["prox"][0].values - fields["elliptic"][0].values)
                * setup.grid.cell_volume) * setup.grid.tau)
    except (ProxError, EllipticError, ValueError) as err:
        print(f"solver error: {err}", file=sys.stderr)
        return EXIT_SOLVER, []

    try:
        _run_checks(setup, report, fields, solve_reports)
    except (ProxError, EllipticError) as err:
        print(f"solver error during diagnostics: {err}", file=sys.stderr)
        return EXIT_SOLVER, []
    except ValueError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG, []

    artifacts = _write_artifacts(Path(out_dir or setup.out_dir), config_digest(cfg),
                                 setup.formats, setup.grid, fields, solve_reports, report)

    if not report.all_required_passed():
        failed = [e.check for e in report.entries if e.required and not e.passed]
        print(f"required diagnostics failed: {failed}", file=sys.stderr)
        return EXIT_DIAGNOSTIC, artifacts
    return EXIT_OK, artifacts


def _solve(setup: Setup, grid, eps, routes):
    """Solve the config's pair on ``grid`` at ``eps`` by each of ``routes``;
    returns the fields ``(m, w, u)`` and the solve reports, by route."""
    m0, m1, reference = setup.m0, setup.m1, setup.reference
    fields, reports = {}, {}
    for route in routes:
        logger.info("%s solve at eps=%s", route, eps)
        if route == "prox":
            m, w, u, reports[route] = solve_prox(m0, m1, reference, eps, grid, setup.prox)
        else:
            problem = EllipticProblem(grid, reference, eps, m0, m1)
            u, m, reports[route] = solve_elliptic(problem, setup.elliptic)
            _, w = dual_pair(reports[route].multiplier, m0, m1, reference, eps, grid)
        fields[route] = (m, w, u)
    return fields, reports


def _run_checks(setup: Setup, report, fields, solve_reports):
    grid, reference, m0, m1, eps = setup.grid, setup.reference, setup.m0, setup.m1, setup.eps
    route = setup.routes[0]
    (m, w, u), objective = fields[route], solve_reports[route].objective
    for cid, opts in setup.checks:
        required = opts["required"]
        logger.info("diagnostic: %s", cid)
        if cid == "energy":
            bound = None
            if opts["with_heat_bound"]:
                bound, _ = heat_competitor_bound(m0, m1, reference, eps, grid)
            report.add(check_energy(m, u, reference, eps, grid, objective=objective,
                                    upper_bound=bound, required=required))
        elif cid == "duality":
            report.add(check_duality(u, m, w, reference, eps, grid, objective=objective,
                                     gap_factor=opts["gap_factor"], required=required))
        elif cid == "displacement_convexity":
            tol = opts["tol_conv"]
            if tol is None:
                tol = calibrate_tol_conv(reference, eps, grid, setup.prox)
            report.add(check_displacement_convexity(
                m, u, eps, grid, tol, reference=reference, required=required))
        elif cid == "heat_bound":
            bound, parts = heat_competitor_bound(m0, m1, reference, eps, grid,
                                                 beta=opts["beta"])
            report.add(check_heat_bound(m0, m1, eps, grid, objective, bound, parts,
                                        required=required))
        elif cid == "time_scaling":
            report.add(check_time_scaling(
                objective, lambda g, e: _solve(setup, g, e, (route,))[1][route].objective,
                eps, grid, setup.prox.gap_tolerance, required=required))
        elif cid == "interior_bounds":
            fam = []
            for peak in opts["peaks"]:
                mm0, mm1 = make_marginals("bump_pair", {"peak": peak, "floor": 1e-3}, grid)
                mp, wp, upx, _ = solve_prox(mm0, mm1, reference, eps, grid, setup.prox)
                fam.append({"m": mp, "u": upx, "eps": eps, "sup_m0": float(np.max(mm0))})
            report.add(check_interior_bounds(fam, grid, window=opts["window"],
                                             required=required))
        elif cid == "sweep":
            report.add(epsilon_sweep(opts["spec"], required=required))


def _write_artifacts(out: Path, digest, formats, grid, fields, solve_reports,
                     report: DiagnosticsReport):
    artifacts = []
    out.mkdir(parents=True, exist_ok=True)

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
            T, Nt = entry.grid_info["horizon"], entry.grid_info["n_time"]
            t = np.linspace(0.0, T, Nt + 1)[1:-1]  # the interior nodes t_1 .. t_{Nt-1}
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

    if args.command == "run":
        code, _ = run(args.config, out_dir=args.out, verbose=args.verbose)
        return code
    try:
        if args.command == "check":
            load_config(args.config)
            print("config ok")
            return EXIT_OK
        # sweep: add the sweep check to the config, then run it like any other
        cfg = _read_json(args.config)
        if not _need(cfg, "solver.eps_list", list, None):
            raise ConfigError("sweep mode needs solver.eps_list")
        diagnostics = _need(cfg, "diagnostics", dict, {})
        checks = _need(cfg, "diagnostics.checks", list, [])
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    if not any(c == "sweep" or isinstance(c, dict) and c.get("id") == "sweep" for c in checks):
        cfg["diagnostics"] = {**diagnostics, "checks": checks + ["sweep"]}
    code, _ = run(cfg, out_dir=args.out, verbose=args.verbose)
    return code


if __name__ == "__main__":
    sys.exit(main())
