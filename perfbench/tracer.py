"""Span tracing of otgeo from outside the package.

A :class:`Tracer` replaces module attributes (the names that callers look
up at call time, such as ``otgeo.prox.spacetime_poisson`` or
``otgeo.elliptic.spsolve``) with thin wrappers that record one span per
call: name, start, end, parent span, op id and phase (``solve`` for the
entry call and the instance it builds, ``certify`` after).  Spans are kept in memory
and written out by the caller when the run ends.  Every replaced attribute
is restored when the tracer is closed, also when the traced code raised.

The tracer is single-threaded by design: the benchmark runs one op at a
time in one thread, so the span stack is a plain list.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

GRID_OPERATORS = ("covariant_gradient", "divergence_g", "laplace_beltrami",
                  "integrate", "metric_dot", "metric_norm_sq")

# (module, attribute, span name); grid operators are added per caller below.
WRAP_POINTS = (
    ("otgeo.prox", "solve_prox", "prox.solve_prox"),
    ("otgeo.cli", "solve_prox", "prox.solve_prox"),
    ("otgeo.diagnostics", "solve_prox", "prox.solve_prox"),
    ("otgeo.prox", "spacetime_poisson", "prox.spacetime_poisson"),
    ("otgeo.prox", "relative_entropy", "transport.relative_entropy"),
    ("otgeo.diagnostics", "relative_entropy", "transport.relative_entropy"),
    ("otgeo.elliptic", "solve_elliptic", "elliptic.solve_elliptic"),
    ("otgeo.cli", "solve_elliptic", "elliptic.solve_elliptic"),
    ("otgeo.elliptic", "newton_step", "elliptic.newton_step"),
    ("otgeo.elliptic", "elliptic_residual", "elliptic.residual"),
    ("otgeo.elliptic", "spsolve", "elliptic.linear_solve"),
    ("otgeo.oracles", "circular_w2_oracle", "oracles.circular_w2"),
    ("otgeo.oracles", "flow_w2_oracle", "oracles.flow_w2"),
    ("otgeo.oracles", "heat_competitor_bound", "oracles.heat_bound"),
    ("otgeo.cli", "heat_competitor_bound", "oracles.heat_bound"),
    ("otgeo.diagnostics", "check_energy", "diagnostics.check_energy"),
    ("otgeo.cli", "check_energy", "diagnostics.check_energy"),
    ("otgeo.diagnostics", "check_duality", "diagnostics.check_duality"),
    ("otgeo.cli", "check_duality", "diagnostics.check_duality"),
    ("otgeo.families", "make_marginals", "families.make_marginals"),
    ("otgeo.cli", "make_marginals", "families.make_marginals"),
    ("otgeo.cli", "run", "cli.run"),
    ("otgeo.cli", "_write_artifacts", "cli.write_artifacts"),
) + tuple(
    (module, op, "grid." + op)
    for module in ("otgeo.prox", "otgeo.elliptic", "otgeo.transport", "otgeo.oracles",
                   "otgeo.diagnostics", "otgeo.families", "otgeo.cli")
    for op in GRID_OPERATORS
)


def _observe_residual(tracer, args):
    # elliptic_residual(u, problem): the continuation level is problem.delta
    tracer.deltas.append(float(args[1].delta))


def _observe_linear_solve(tracer, args):
    # spsolve(J, rhs): the Jacobian's stored entries
    tracer.counters["elliptic.jacobian_nnz"] = max(
        tracer.counters["elliptic.jacobian_nnz"], int(args[0].nnz))


OBSERVERS = {
    "elliptic.residual": _observe_residual,
    "elliptic.linear_solve": _observe_linear_solve,
}


class Tracer:
    """Context manager that wraps :data:`WRAP_POINTS` and records spans.

    ``spans`` holds ``(name, start, end, parent, op_id, phase)`` tuples in
    the order the calls started; ``parent`` is the index of the enclosing
    span or ``-1``.  ``counters`` and ``deltas`` collect what the observers see
    at the wrapped boundaries.
    """

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self.deltas = []
        self.op_id = None
        self.phase = None
        self._stack = []
        self._saved = []

    def __enter__(self):
        try:
            for module_name, attr, name in WRAP_POINTS:
                module = importlib.import_module(module_name)
                if hasattr(module, attr):
                    original = getattr(module, attr)
                    self._saved.append((module, attr, original))
                    setattr(module, attr, self._wrap(original, name))
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def close(self):
        """Put back every wrapped attribute, last wrapped first."""
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name):
        observe = OBSERVERS.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id, self.phase)
            if observe is not None:
                observe(self, args)
            return result

        return traced

    def reset(self, op_id):
        """Start collecting for a new op; spans of earlier ops are kept."""
        self.op_id = op_id
        self.phase = "solve"
        self.counters = defaultdict(int)
        self.deltas = []


def span_totals(spans, op_id, phase=None):
    """Per span name: ``{"calls", "total_s", "self_s"}`` over one op's spans.

    ``spans`` is a tracer's full span list, so parent indices resolve.
    With ``phase``, only the spans of that phase count.  Self time is a
    span's duration minus the durations of its direct children; spans are
    properly nested because the traced code is single-threaded, so this
    equals the part of the interval no child covers.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for i, (name, start, end, parent, span_op, span_phase) in enumerate(spans):
        if span_op == op_id and phase in (None, span_phase):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
    return dict(out)
