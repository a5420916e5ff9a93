#!/usr/bin/env python3
"""otgeo benchmark: time to a certified solution, one workload per run.

    python3 perfbench/run.py --workload primal_circle --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout (it imports otgeo from ``src/``).  One
client in one process makes one op at a time (a closed loop) for
``--seconds``; every op is certified.  With ``--trace 0`` it reports
the end-to-end metrics, the op times in multiples of a calibration probe
timed during each op (``perfbench/calibration.py``); with ``--trace 1``
every op is made twice on the same inputs, untraced and then traced, and
it reports the per-layer metrics and checks that tracing changed no
counter or output bit.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Details (every op's certificates and counters, the
environment, and the spans of a traced run) go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("primal_circle", "run_conformal", "dual_torus", "run_readme")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
                    "OTGEO_THREADS")
CPU_NOTE = ("The solvers run single-threaded, so process CPU time is close to wall time. "
            "Repeats of one primal_circle solve read 8.25-9.82 s (about +-9%) on a quiet "
            "machine; on a shared 2-core machine one instance read 6.7-10.6 s within "
            "minutes, and CPU time moved with wall time. The gated times are therefore "
            "given in multiples of a fixed probe timed every 50 ms during each op.")

END_TO_END = (
    ("solve_cal", "cal"),
    ("op_cal", "cal"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

PER_LAYER = (
    ("prox.solve_s", "s"),
    ("prox.self_s", "s"),
    ("prox.iterations", "count"),
    ("prox.spacetime_poisson_s", "s"),
    ("prox.spacetime_poisson_calls", "count"),
    ("prox.spacetime_poisson_ms_per_call", "ms"),
    ("grid.operator_s", "s"),
    ("grid.operator_calls", "count"),
    ("transport.relative_entropy_s", "s"),
    ("elliptic.solve_s", "s"),
    ("elliptic.linear_solve_s", "s"),
    ("elliptic.linear_solve_calls", "count"),
    ("elliptic.jacobian_nnz", "count"),
    ("elliptic.newton_self_s", "s"),
    ("elliptic.newton_steps", "count"),
    ("elliptic.residual_s", "s"),
    ("elliptic.residual_evals", "count"),
    ("elliptic.continuation_levels", "count"),
    ("elliptic.final_delta", "1"),
    ("elliptic.time_to_failure_s", "s"),
    ("oracles.w2_s", "s"),
    ("oracles.heat_bound_self_s", "s"),
    ("diagnostics.checks_s", "s"),
    ("cli.run_self_s", "s"),
    ("cli.write_s", "s"),
    ("cli.artifact_bytes", "B"),
    ("cli.artifact_count", "count"),
    ("families.make_marginals_s", "s"),
    ("trace.overhead_s", "s"),
)


def layer_values(totals, solve_totals, counters, deltas, record):
    """Per-layer values of one traced op from its span totals.

    ``solve_totals`` covers the solve phase only, ``totals`` the whole op.
    The layers that should move ``solve_s`` read the solve phase, so the
    short ``solve_prox`` inside ``heat_competitor_bound`` does not count as
    prox time; the oracle and diagnostics layers read the whole op, since
    on the CLI workloads the checks run inside the entry call.
    ``*_self_s`` is self time (the span minus its wrapped children); every
    other ``*_s`` is the whole span, so nested layers overlap there.
    """
    def total(name, of=solve_totals):
        return of.get(name, {}).get("total_s", 0.0)

    def own(name, of=solve_totals):
        return of.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return solve_totals.get(name, {}).get("calls", 0)

    grid_ops = [name for name in solve_totals if name.startswith("grid.")]
    poisson_calls = calls("prox.spacetime_poisson")
    reported = record.get("counters", {})
    return {
        "prox.solve_s": total("prox.solve_prox"),
        "prox.self_s": own("prox.solve_prox"),
        "prox.iterations": reported.get("prox.iterations", 0),
        "prox.spacetime_poisson_s": total("prox.spacetime_poisson"),
        "prox.spacetime_poisson_calls": poisson_calls,
        "prox.spacetime_poisson_ms_per_call": (
            1e3 * total("prox.spacetime_poisson") / poisson_calls if poisson_calls else 0.0),
        "grid.operator_s": sum(total(name) for name in grid_ops),
        "grid.operator_calls": sum(calls(name) for name in grid_ops),
        "transport.relative_entropy_s": total("transport.relative_entropy"),
        "elliptic.solve_s": total("elliptic.solve_elliptic"),
        "elliptic.linear_solve_s": total("elliptic.linear_solve"),
        "elliptic.linear_solve_calls": calls("elliptic.linear_solve"),
        "elliptic.jacobian_nnz": counters.get("elliptic.jacobian_nnz", 0),
        "elliptic.newton_self_s": own("elliptic.newton_step"),
        "elliptic.newton_steps": calls("elliptic.newton_step"),
        "elliptic.residual_s": total("elliptic.residual"),
        "elliptic.residual_evals": calls("elliptic.residual"),
        "elliptic.continuation_levels": len(set(deltas)),
        "elliptic.final_delta": deltas[-1] if deltas else 0.0,
        "elliptic.time_to_failure_s": record.get("time_to_failure_s", 0.0),
        "oracles.w2_s": (total("oracles.circular_w2", totals)
                         + total("oracles.flow_w2", totals)),
        "oracles.heat_bound_self_s": own("oracles.heat_bound", totals),
        "diagnostics.checks_s": (total("diagnostics.check_energy", totals)
                                 + total("diagnostics.check_duality", totals)),
        "cli.run_self_s": own("cli.run"),
        "cli.write_s": total("cli.write_artifacts"),
        "cli.artifact_bytes": reported.get("cli.artifact_bytes", 0),
        "cli.artifact_count": reported.get("cli.artifact_count", 0),
        "families.make_marginals_s": total("families.make_marginals"),
    }


def _outcome(record):
    """What tracing must leave unchanged: status, counters, output bits, error."""
    error = record.get("error", {})
    return (record["certified"], record.get("counters"), record.get("bits"),
            error.get("class"), error.get("message"))


def measure(workload, seconds, trace):
    """Closed loop of ops for ``seconds``.

    The first op always runs; a further op starts only while the median op
    so far still fits in what is left, so a run ends within ``seconds``
    unless its first op alone takes longer.  Each untraced op runs under a
    :class:`perfbench.calibration.Probe`, and its record gets the mean probe
    time as ``calibration_s``.

    Returns ``(records, traced, spans)``: the untraced op records, and for
    a traced run the traced twin of each op (same inputs) and all spans.
    """
    from perfbench import calibration
    from perfbench.tracer import Tracer, span_totals
    from perfbench.workloads import run_op

    tracer = Tracer() if trace else None
    records, traced = [], []
    start = time.perf_counter()
    params, op_id, walls = workload.first, 0, []
    while True:
        op_start = time.perf_counter()
        with calibration.Probe() as probe:
            record = run_op(workload, params, op_id)
        record["calibration_s"] = probe.mean_s()
        record["probes"] = len(probe.samples)
        records.append(record)
        if trace:
            tracer.reset(op_id)
            with tracer:
                twin = run_op(workload, params, op_id, tracer)
            twin["layers"] = layer_values(span_totals(tracer.spans, op_id),
                                          span_totals(tracer.spans, op_id, "solve"),
                                          tracer.counters, tracer.deltas, twin)
            twin["matches_untraced"] = _outcome(twin) == _outcome(records[-1])
            traced.append(twin)
        op_id += 1
        walls.append(time.perf_counter() - op_start)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
        params = workload.draw()
    return records, traced, (tracer.spans if trace else [])


def _median(values):
    return statistics.median(values) if values else None


def end_to_end(records, setup_times):
    """End-to-end metrics; the op times only over certified ops.

    ``solve_cal`` is the median over certified ops of the entry call's
    wall time over the op's ``calibration_s``, and ``op_cal`` the same for
    the whole op (solve plus certification).  Both are missing when no op
    certified, so a fix that makes ops certify cannot read as a slowdown.
    """
    certified = [r for r in records if r["certified"]]
    metrics = {}
    if certified:
        metrics["solve_cal"] = _median([r["solve_s"] / r["calibration_s"] for r in certified])
        metrics["op_cal"] = _median([r["wall_s"] / r["calibration_s"] for r in certified])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["setup_s"] = _median(setup_times)
    return metrics


def per_layer(records, traced):
    """Median of each per-layer value over the traced ops.

    ``trace.overhead_s`` is the median traced minus the median untraced
    entry call (or time to failure) of the same run.
    """
    metrics = {name: _median([t["layers"][name] for t in traced]) for name, _ in PER_LAYER
               if name != "trace.overhead_s"}

    def entry_time(r):
        return r.get("solve_s", r.get("time_to_failure_s"))

    metrics["trace.overhead_s"] = (_median([entry_time(t) for t in traced])
                                   - _median([entry_time(r) for r in records]))
    return metrics


def reported(records):
    """Figures printed beside the gated metrics: ``(name, value, unit)``.

    The plain wall times and the goodput move with the load on a shared
    machine far more than the calibrated times do, ``failed_ratio`` is 0 on
    every gated workload, and ``op_cal`` carries ``certify_s``, so none of
    them is gated.
    """
    certified = [r for r in records if r["certified"]]
    wall = sum(r["wall_s"] for r in records)
    out = [("goodput_per_min", 60.0 * len(certified) / wall, "1/min"),
           ("failed_ratio", sum(not r["certified"] for r in records) / len(records), "1"),
           ("calibration_s", _median([r["calibration_s"] for r in records]), "s")]
    if certified:
        out[:0] = [("solve_s", _median([r["solve_s"] for r in certified]), "s"),
                   ("certify_s", _median([r["certify_s"] for r in certified]), "s")]
    return out


def failure_summary(records):
    """The failed ops' median time to failure and their distinct errors."""
    failed = [r for r in records if not r["certified"]]
    if not failed:
        return {}
    return {"time_to_failure_s": _median([r["time_to_failure_s"] for r in failed]),
            "errors": sorted({f"{r['error']['class']}: {r['error']['message']}"
                              for r in failed})}


def measure_setup(workload_name, seed, count):
    """Wall time from process start to ready-for-the-first-op, ``count`` times.

    Each probe is a fresh interpreter that imports otgeo, builds the first
    op's inputs, prints ``ready`` and exits.
    """
    env = dict(os.environ)
    env.pop("OTGEO_THREADS", None)
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
               "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {err.strip()}")
        times.append(elapsed)
    return times


def environment(seed, attempted, cpu_s, wall_s):
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_variables": {k: os.environ.get(k) for k in THREAD_VARIABLES},
        "seed": seed,
        "attempted": attempted,
        "process_cpu_s": cpu_s,
        "wall_s": wall_s,
        "note": CPU_NOTE,
    }


def check_names(metrics):
    bad = [name for name in metrics if not METRIC_NAME.fullmatch(name)]
    if bad:
        raise ValueError(f"metric names outside [A-Za-z0-9_.-]+: {bad}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "otgeo" / "__init__.py").is_file():
        print(f"perfbench: no otgeo sources at {SRC}; run from the root of a full checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("OTGEO_THREADS", None)
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import otgeo
    if not Path(otgeo.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported otgeo from {otgeo.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    from perfbench.workloads import make_workload

    workload = make_workload(args.workload, scratch=OUT / "tmp")
    if args.setup_probe:
        workload.setup(args.seed)
        print("ready", flush=True)
        return 0

    setup_times = [] if args.trace else measure_setup(args.workload, args.seed, SETUP_PROBES)
    workload.setup(args.seed)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    records, traced, spans = measure(workload, args.seconds, args.trace)
    env = environment(args.seed, len(records), time.process_time() - cpu0,
                      time.perf_counter() - wall0)

    if args.trace:
        metrics, units = per_layer(records, traced), dict(PER_LAYER)
    else:
        metrics, units = end_to_end(records, setup_times), dict(END_TO_END)
    check_names(metrics)
    failed = sum(not r["certified"] for r in records)
    failures = failure_summary(records)
    wrong = [r["op"] for r in records + traced if r["wrong"]]
    mismatched = [t["op"] for t in traced if not t["matches_untraced"]]
    correct = not wrong and not mismatched

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {"workload": args.workload, "environment": env, "setup_s": setup_times,
              "metrics": metrics, "ungated": reported(records), "failures": failures,
              "wrong_ops": wrong,
              "trace_mismatches": mismatched, "ops": records, "traced_ops": traced}
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1, default=str) + "\n")
    if spans:
        t0 = spans[0][1]
        (OUT / f"{stem}-spans.json").write_text(json.dumps(
            [[name, start - t0, end - t0, parent, op, phase]
             for name, start, end, parent, op, phase in spans]))

    for name, value in metrics.items():
        print(f"{name:36s} {value!r:>24} {units[name]}")
    if not args.trace:
        for name, value, unit in reported(records):
            print(f"{name:36s} {value!r:>24} {unit}   (not gated)")
    print(f"ops: {len(records)} attempted, {failed} failed")
    for message in failures.get("errors", []):
        print(f"failed op: {message}")
    if wrong:
        print(f"ops whose output failed a certificate: {wrong}")
    if mismatched:
        print(f"ops whose traced twin differs from the untraced op: {mismatched}")
    print("environment: " + json.dumps(env))
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
