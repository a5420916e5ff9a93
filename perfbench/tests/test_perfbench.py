"""Behaviour of the benchmark itself, on tiny grids (1-D n=16, nt=8).

    python3 -m pytest perfbench/tests -q
"""

import importlib
import json
import signal
import time

import numpy as np
import pytest

from otgeo.prox import ProxConfig
from perfbench import calibration, run, workloads
from perfbench.tracer import WRAP_POINTS, Tracer

TINY_CONFORMAL = json.loads(json.dumps(workloads.CONFORMAL_CONFIG))
TINY_CONFORMAL["grid"].update(n_space=16, n_time=8)
TINY_CONFORMAL["marginals"]["width"] = 0.08


def tiny_primal(**kwargs):
    return workloads.PrimalCircle(n_space=16, n_time=8, **kwargs)


def wrapped_attributes():
    out = {}
    for module_name, attr, _ in WRAP_POINTS:
        module = importlib.import_module(module_name)
        if hasattr(module, attr):
            out[(module_name, attr)] = getattr(module, attr)
    return out


def test_failing_op_is_counted_not_raised():
    w = tiny_primal(config=ProxConfig(max_outer_iterations=5, min_iterations=1,
                                      stagnation_window=1))
    w.setup(0)
    records, _, _ = run.measure(w, 0.2, trace=0)
    assert len(records) > 1, "the run must go on after a failed op"
    assert all(not r["certified"] and r["error"]["class"] == "ProxError" for r in records)
    assert not any(r["wrong"] for r in records)
    reported = {name: value for name, value, _ in run.reported(records)}
    assert reported["failed_ratio"] == 1.0 and reported["goodput_per_min"] == 0.0
    assert "solve_s" not in reported
    assert run.failure_summary(records)["errors"][0].startswith("ProxError: no convergence")
    metrics = run.end_to_end(records, [1.0])
    assert "solve_cal" not in metrics and "op_cal" not in metrics


def test_certificate_failure_is_a_wrong_output(tmp_path):
    # a width-0.08 bump at 16 x 8: the routes disagree beyond the CLI's L1 limit
    w = workloads.CliRun("tiny_conformal", TINY_CONFORMAL, tmp_path)
    w.setup(0)
    record = workloads.run_op(w, w.first, 0)
    assert not record["certified"] and record["wrong"]
    assert record["error"]["class"] == "CertificateError"
    assert "cross_method_l1" in record["error"]["message"]
    assert list(tmp_path.iterdir()) == [], "the artifact directory is removed"


def test_failed_required_check_is_a_wrong_output(tmp_path):
    # a zero duality-gap factor cannot pass, so run() exits 4 with its artifacts
    cfg = json.loads(json.dumps(TINY_CONFORMAL))
    cfg["solver"]["method"] = "prox"
    cfg["diagnostics"]["checks"] = [{"id": "duality", "gap_factor": 0.0}]
    w = workloads.CliRun("tiny_conformal", cfg, tmp_path)
    w.setup(0)
    record = workloads.run_op(w, w.first, 0)
    assert not record["certified"] and record["wrong"]
    assert record["error"]["class"] == "CertificateError"
    assert "required checks failed: ['duality']" in record["error"]["message"]
    assert "exit 4" in record["error"]["message"]


def test_tracer_restores_every_wrapped_attribute():
    before = wrapped_attributes()
    with pytest.raises(RuntimeError):
        with Tracer():
            during = wrapped_attributes()
            assert all(during[key] is not before[key] for key in before)
            raise RuntimeError("traced code failed")
    after = wrapped_attributes()
    assert all(after[key] is before[key] for key in before)


def test_traced_twin_reproduces_untraced_op_bitwise():
    before = wrapped_attributes()
    w = tiny_primal()
    w.setup(0)
    records, traced, spans = run.measure(w, 0, trace=1)
    assert wrapped_attributes() == before
    assert records[0]["certified"] and traced[0]["matches_untraced"]
    assert traced[0]["counters"] == records[0]["counters"]
    assert traced[0]["bits"] == records[0]["bits"]
    layers = traced[0]["layers"]
    assert layers["prox.iterations"] == records[0]["counters"]["prox.iterations"]
    assert layers["prox.self_s"] > 0 and layers["prox.spacetime_poisson_calls"] > 0
    assert all(span[4] == 0 for span in spans)
    # the heat bound's own solve_prox runs in certification, not in the solve phase
    solve_prox = [s for s in spans if s[0] == "prox.solve_prox"]
    assert [s[5] for s in solve_prox] == ["solve", "certify"]
    assert layers["prox.solve_s"] == solve_prox[0][2] - solve_prox[0][1]


def test_op_times_are_given_in_calibration_units():
    w = tiny_primal()
    w.setup(0)
    records, _, _ = run.measure(w, 0, trace=0)
    op = records[0]
    assert op["certified"] and op["probes"] >= 1 and op["calibration_s"] > 0
    metrics = run.end_to_end(records, [1.0])
    assert metrics["solve_cal"] == op["solve_s"] / op["calibration_s"]
    assert metrics["op_cal"] == op["wall_s"] / op["calibration_s"] > metrics["solve_cal"]
    assert calibration.probe() == calibration.probe(), "the probe's work is fixed"


def test_probe_samples_while_open_and_restores_the_signal_state():
    previous = signal.getsignal(signal.SIGALRM)
    with calibration.Probe() as probe:
        time.sleep(3.5 * calibration.INTERVAL_S)
    assert len(probe.samples) >= 2
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with calibration.Probe() as short:
        pass
    assert len(short.samples) == 1 and short.mean_s() == short.samples[0]


def test_metric_names_are_well_formed():
    w = tiny_primal()
    w.setup(0)
    records, traced, _ = run.measure(w, 0, trace=1)
    names = (list(run.end_to_end(records, [1.0])) + list(run.per_layer(records, traced))
             + [name for name, _ in run.END_TO_END + run.PER_LAYER])
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [wl["name"] for wl in bench["workloads"]]
    assert all(run.METRIC_NAME.fullmatch(name) for name in names)
    run.check_names(dict.fromkeys(names))
    with pytest.raises(ValueError):
        run.check_names({"solve time": 1.0})
    assert [m["name"] for m in bench["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["name"] for m in bench["per_layer"]] == [n for n, _ in run.PER_LAYER]


@pytest.mark.parametrize("make", [
    tiny_primal,
    lambda: workloads.DualTorus(n_space=8, n_time=4),
    lambda: workloads.CliRun("tiny_conformal", TINY_CONFORMAL, scratch="unused"),
])
def test_same_seed_gives_same_inputs(make):
    def inputs(seed, count=3):
        w = make()
        w.setup(seed)
        drawn = [w.first] + [w.draw() for _ in range(count - 1)]
        if isinstance(w, workloads.CliRun):
            return [json.dumps(w.op_config(p), sort_keys=True) for p in drawn]
        return [np.concatenate([m.ravel() for m in w.marginals(p)]) for p in drawn]

    a, b, c = inputs(11), inputs(11), inputs(12)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))
