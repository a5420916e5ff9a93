"""The benchmark's workloads: seeded instances, one solve each, certified.

One *op* builds the marginals of one generated instance, makes one entry
call (``solve_prox``, ``solve_elliptic`` or ``otgeo.cli.run``) and
certifies the result with the package's own oracles and diagnostics.
The program sees only the generated inputs; the seed stays here.

Every otgeo function is looked up on its module at call time
(``prox.solve_prox``, not a name bound at import), so a
:class:`perfbench.tracer.Tracer` that wraps the module attribute sees the
call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from otgeo import cli, diagnostics, elliptic, families, grid as grid_mod, oracles, prox, transport

EPS = 0.1
HORIZON = 1.0
# the primal gate's gap factor is the one check_duality and the tests use
PRIMAL_GAP_FACTOR = 1e-4
# the CLI relaxes the duality gap to this factor for a pair rebuilt from the dual route
DUAL_GAP_FACTOR = 5e-2
BRACKET_SLACK = 1e-7
CROSS_METHOD_L1_LIMIT = 0.1


class CertificateError(Exception):
    """An op's output failed one of its certificates."""


class ExitCodeError(Exception):
    """``otgeo.cli.run`` returned a config or solver error code."""


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _bracket(objective, w2sq, bound):
    """Oracle bracket  W2^2/(2T) - eps|log eps|  <=  F  <=  heat bound."""
    lower = float(w2sq / (2.0 * HORIZON) - EPS * abs(np.log(EPS)))
    return {"w2_squared": w2sq, "bracket_lower": lower, "heat_bound": bound,
            "bracket_ok": bool(lower - BRACKET_SLACK <= objective <= bound + BRACKET_SLACK)}


class Workload:
    """One workload: set-up, seeded instances and the op itself."""

    def setup(self, seed):
        """Everything before the first op: grid, reference and first inputs.

        Instances are drawn from ``seed``; ``self.first`` holds the first
        op's parameters.
        """
        self.rng = np.random.default_rng(seed)
        self.build()
        self.first = self.draw()
        self.prepare(self.first)

    def build(self):
        """Grid and reference measure, or nothing for a config workload."""

    def prepare(self, params):
        """The first op's inputs, built once so that set-up pays for them."""

    def draw(self):
        """Parameters of the next instance (the only use of the seed)."""
        raise NotImplementedError

    def solve(self, params):
        """Build the instance and make the entry call; returns its output."""
        raise NotImplementedError

    def certify(self, params, output):
        """Certification calls; returns ``(certificates, failures)``."""
        raise NotImplementedError

    def summary(self, output):
        """Exact-repeat counters and the bits that tracing must not change."""
        raise NotImplementedError


class _BumpPair(Workload):
    """A ``bump_pair`` on a flat grid of dimension ``dim``, zero potential."""

    dim = 1

    def __init__(self, n_space, n_time, width, config):
        self.n_space, self.n_time, self.width, self.config = n_space, n_time, width, config

    def build(self):
        self.grid = grid_mod.build_grid(self.dim, self.n_space, self.n_time, HORIZON)
        self.reference = transport.ReferenceMeasure.from_potential(0.0, self.grid)

    def prepare(self, params):
        self.marginals(params)

    def marginals(self, params):
        return families.make_marginals("bump_pair", params, self.grid)


class PrimalCircle(_BumpPair):
    """``solve_prox`` on the flat circle, antipodal bumps shifted by a seeded offset.

    The offset is a whole number of cells: on about 1% of the offsets
    between nodes ``circular_w2_oracle`` raises IndexError (its quantile
    lookup runs one past the end when the CDF sums to just under 1).
    """

    def __init__(self, n_space=64, n_time=32, width=0.08, config=None):
        super().__init__(n_space, n_time, width, config)

    def draw(self):
        c0 = int(self.rng.integers(self.n_space)) / self.n_space
        return {"centers": [c0, (c0 + 0.5) % 1.0], "width": self.width}

    def solve(self, params):
        m0, m1 = self.marginals(params)
        start = time.perf_counter()
        m, w, u, rep = prox.solve_prox(m0, m1, self.reference, EPS, self.grid, self.config)
        return time.perf_counter() - start, (m0, m1, m, w, u, rep)

    def certify(self, params, output):
        m0, m1, m, w, u, rep = output
        F = rep.objective
        cert = {"objective": F, "duality_gap": rep.duality_gap,
                "energy_drift": rep.energy_drift, "final_residual": rep.final_residual,
                "converged": bool(rep.converged)}
        w2sq = oracles.circular_w2_oracle(m0, m1, self.grid)
        bound, _ = oracles.heat_competitor_bound(m0, m1, self.reference, EPS, self.grid)
        cert.update(_bracket(F, w2sq, bound))
        energy = diagnostics.check_energy(m, u, self.reference, EPS, self.grid, objective=F)
        duality = diagnostics.check_duality(u, m, w, self.reference, EPS, self.grid,
                                            objective=F)
        cert["check_energy"] = energy.passed
        cert["check_duality"] = duality.passed
        failures = []
        if not rep.converged:
            failures.append("solve_prox did not converge")
        if not rep.duality_gap <= PRIMAL_GAP_FACTOR * (1.0 + abs(F)):
            failures.append(f"duality gap {rep.duality_gap:.3e} above "
                            f"{PRIMAL_GAP_FACTOR:g}(1+|F|)")
        failures += [f"{e.check} check failed" for e in (energy, duality) if not e.passed]
        if not cert["bracket_ok"]:
            failures.append(f"objective {F!r} outside the oracle bracket "
                            f"[{cert['bracket_lower']!r}, {bound!r}]")
        return cert, failures

    def summary(self, output):
        m0, m1, m, w, u, rep = output
        return ({"prox.iterations": int(rep.iterations)},
                {"objective": float(rep.objective).hex(),
                 "fields": _digest(m.values, w.values, u.values)})


class DualTorus(_BumpPair):
    """``solve_elliptic`` on the flat 2-D torus, a bump pair shifted by a seeded offset."""

    dim = 2

    def __init__(self, n_space=16, n_time=8, width=0.08, config=None):
        super().__init__(n_space, n_time, width, config)

    def draw(self):
        cx, cy = (float(c) for c in self.rng.uniform(0.0, 1.0, 2))
        return {"centers": [[cx, cy], [(cx + 0.5) % 1.0, (cy + 0.5) % 1.0]],
                "width": self.width}

    def solve(self, params):
        m0, m1 = self.marginals(params)
        problem = elliptic.EllipticProblem(self.grid, self.reference, EPS, m0, m1)
        start = time.perf_counter()
        u, m, rep = elliptic.solve_elliptic(problem, self.config)
        return time.perf_counter() - start, (m0, m1, m, u, rep)

    def certify(self, params, output):
        m0, m1, m, u, rep = output
        F = rep.objective
        tolerance = (self.config or elliptic.EllipticConfig()).newton_tolerance
        cert = {"objective": F, "duality_gap": rep.duality_gap,
                "energy_drift": rep.energy_drift, "final_residual": rep.final_residual}
        w2sq = oracles.flow_w2_oracle(m0, m1, self.grid)
        bound, _ = oracles.heat_competitor_bound(m0, m1, self.reference, EPS, self.grid)
        cert.update(_bracket(F, w2sq, bound))
        # the momentum the CLI rebuilds from the dual potential
        u_mid = 0.5 * (u.values[:-1] + u.values[1:])
        mbar = 0.5 * (m.values[:-1] + m.values[1:])
        w = transport.MomentumField(
            mbar[..., None] * grid_mod.covariant_gradient(u_mid, self.grid), self.grid)
        duality = diagnostics.check_duality(u, m, w, self.reference, EPS, self.grid,
                                            objective=F, gap_factor=DUAL_GAP_FACTOR)
        cert["check_duality"] = duality.passed
        failures = []
        if not rep.final_residual < tolerance:
            failures.append(f"final residual {rep.final_residual:.3e} not below {tolerance:g}")
        if not rep.duality_gap <= DUAL_GAP_FACTOR * (1.0 + abs(F)):
            failures.append(f"duality gap {rep.duality_gap:.3e} above "
                            f"{DUAL_GAP_FACTOR:g}(1+|F|)")
        if not duality.passed:
            failures.append("duality check failed")
        if not cert["bracket_ok"]:
            failures.append(f"objective {F!r} outside the oracle bracket "
                            f"[{cert['bracket_lower']!r}, {bound!r}]")
        return cert, failures

    def summary(self, output):
        m0, m1, m, u, rep = output
        return ({"elliptic.iterations": int(rep.iterations)},
                {"objective": float(rep.objective).hex(),
                 "fields": _digest(m.values, u.values)})


class CliRun(Workload):
    """``otgeo.cli.run`` on a config, artifacts in a fresh temporary directory."""

    def __init__(self, name, config, scratch, shift_centers=True):
        self.name = name
        self.config = config
        self.scratch = Path(scratch)
        self.shift_centers = shift_centers

    def prepare(self, params):
        cli.validate_config(self.op_config(params))

    def draw(self):
        if not self.shift_centers:
            return {}
        c0 = float(self.rng.uniform(0.0, 1.0))
        return {"centers": [c0, (c0 + 0.5) % 1.0]}

    def op_config(self, params):
        cfg = json.loads(json.dumps(self.config))
        cfg["marginals"].update(params)
        return cfg

    def solve(self, params):
        cfg = self.op_config(params)
        self.scratch.mkdir(parents=True, exist_ok=True)
        out = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.scratch))
        stderr = io.StringIO()
        try:
            start = time.perf_counter()
            with contextlib.redirect_stderr(stderr):
                code, paths = cli.run(cfg, out_dir=out)
            elapsed = time.perf_counter() - start
            # a failed required diagnostic still writes every artifact, and
            # certify() marks the output wrong from them
            if code not in (cli.EXIT_OK, cli.EXIT_DIAGNOSTIC):
                message = stderr.getvalue().strip().splitlines()
                raise ExitCodeError(f"exit {code}: {message[-1] if message else ''}")
            artifacts = {Path(p).name: Path(p).read_bytes() for p in paths}
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return elapsed, (cfg, code, artifacts)

    def certify(self, params, output):
        """Artifact check: exit code, digests, required checks and cross-method agreement."""
        cfg, code, artifacts = output
        digest = cli.config_digest(cfg)
        solve = json.loads(artifacts["solve_report.json"])
        diag = json.loads(artifacts["diagnostics.json"])
        solvers = solve["solvers"]
        main = solvers.get("prox", solvers.get("elliptic"))
        cert = {"objective": main["objective"], "duality_gap": main["duality_gap"],
                "energy_drift": main["energy_drift"],
                "final_residual": main["final_residual"],
                "cross_method_l1": solvers.get("cross_method_l1")}
        if "elliptic" in solvers:
            cert["elliptic_final_residual"] = solvers["elliptic"]["final_residual"]
        failures = []
        if solve["config_digest"] != digest or diag["config_digest"] != digest:
            failures.append("an artifact carries another config digest")
        for line in artifacts["diagnostics.csv"].decode().splitlines()[1:]:
            if not line.endswith("," + digest):
                failures.append("diagnostics.csv row without the config digest")
                break
        failed = [e["check"] for e in diag["entries"] if e["required"] and not e["passed"]]
        if failed:
            failures.append(f"required checks failed: {failed}")
        if code != cli.EXIT_OK:
            failures.append(f"exit {code}")
        l1 = cert["cross_method_l1"]
        if l1 is not None and not l1 < CROSS_METHOD_L1_LIMIT:
            failures.append(f"cross_method_l1 {l1:.3e} not below {CROSS_METHOD_L1_LIMIT}")
        return cert, failures

    def summary(self, output):
        cfg, _, artifacts = output
        solvers = json.loads(artifacts["solve_report.json"])["solvers"]
        counters = {f"{name}.iterations": rep["iterations"]
                    for name, rep in solvers.items() if isinstance(rep, dict)}
        counters["cli.artifact_count"] = len(artifacts)
        counters["cli.artifact_bytes"] = sum(len(b) for b in artifacts.values())
        h = hashlib.sha256()
        for name in sorted(artifacts):
            h.update(name.encode() + b"\0" + artifacts[name])
        objective = (solvers.get("prox") or solvers["elliptic"])["objective"]
        return counters, {"objective": float(objective).hex(), "artifacts": h.hexdigest()}


# width 0.15 is the conformal instance of the package's own tests; at width
# 0.08 on 32 nodes the routes disagree by cross_method_l1 ~0.28, so every op
# would fail its certificate
CONFORMAL_CONFIG = {
    "grid": {"dim": 1, "n_space": 32, "n_time": 16, "horizon": HORIZON,
             "metric_profile": {"id": "conformal_sine", "amplitude": 0.5}},
    "marginals": {"family": "bump_pair", "width": 0.15, "centers": [0.0, 0.5]},
    "reference": {"profile": "zero"},
    "solver": {"method": "both", "eps": EPS},
    "diagnostics": {"checks": ["energy", "duality"]},
    "output": {"formats": ["json", "csv", "svg"]},
}

# the README quick-start config, verbatim
README_CONFIG = {
    "grid": {"dim": 1, "n_space": 64, "n_time": 32, "horizon": 1.0},
    "marginals": {"family": "bump_pair", "width": 0.08, "centers": [0.0, 0.5]},
    "reference": {"profile": "cosine", "amplitude": 0.3},
    "solver": {"method": "both", "eps": 0.1},
    "diagnostics": {"checks": ["energy", "duality", "heat_bound"]},
    "output": {"directory": "results"},
}


def make_workload(name, scratch):
    """The named workload at benchmark size; CLI artifacts go under ``scratch``."""
    if name == "primal_circle":
        return PrimalCircle()
    if name == "dual_torus":
        return DualTorus()
    if name == "run_conformal":
        return CliRun(name, CONFORMAL_CONFIG, scratch)
    if name == "run_readme":
        return CliRun(name, README_CONFIG, scratch, shift_centers=False)
    raise ValueError(f"unknown workload {name!r}")


def run_op(workload, params, op_id, tracer=None):
    """One op; never raises.  A failure is recorded with its class and message.

    Returns a record with ``solve_s`` (the entry call), ``certify_s``,
    ``wall_s`` (the whole op), the certificates, the exact-repeat counters,
    the output bits that tracing must not change, and ``error`` when the
    op failed.  ``wrong`` marks an output that failed a certificate, as
    opposed to an entry call that raised or exited with a config or solver
    error.  A ``tracer`` is told when the op moves on to certification.
    """
    record = {"op": op_id, "params": params, "certified": False, "wrong": False}
    start = time.perf_counter()
    try:
        record["solve_s"], output = workload.solve(params)
        if tracer is not None:
            tracer.phase = "certify"
        t = time.perf_counter()
        record["certificates"], failures = workload.certify(params, output)
        record["certify_s"] = time.perf_counter() - t
        record["counters"], record["bits"] = workload.summary(output)
        if failures:
            record["wrong"] = True
            raise CertificateError("; ".join(failures))
        record["certified"] = True
    except Exception as err:  # the op boundary: record, count and go on
        record["error"] = {"class": type(err).__name__, "message": str(err),
                           "traceback": traceback.format_exc(limit=-3)}
        record["time_to_failure_s"] = time.perf_counter() - start
        if isinstance(err, elliptic.EllipticError) and err.delta is not None:
            record["error"]["delta"] = float(err.delta)
    record["wall_s"] = time.perf_counter() - start
    return record
