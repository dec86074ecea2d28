"""Outside-in layer trace for the horizoncheck benchmark.

The program is not edited.  While a :class:`Tracer` is installed it replaces
public functions in the namespace of the module that calls them with wrappers
that record a span (name, start, end, parent) per call, and it counts calls
into the cheap, very frequent helpers without a span.  A span's name starts
with the package module (layer) it belongs to; a layer's self time is the
time its spans cover minus the time their child spans cover, so every traced
second lands in exactly one layer.

Only the outermost ``integrate`` call gets a span and is counted: backward
integration re-enters ``integrate`` through the module global.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from horizoncheck import cli, conditions, ode_engine, overtaking, reference_examples, variational

# (owner, attribute, span name): the owner is the namespace the caller looks
# the function up in at call time.
SPANS = (
    (cli, "build_check_report", "cli.build"),
    (cli, "build_overtake_report", "cli.build"),
    (cli, "build_phase_diagram_report", "cli.build"),
    (cli.ReportData, "render", "cli.render"),
    (cli, "transition_matrix", "variational.transition"),
    (cli, "integrate_adjoint", "variational.adjoint"),
    (cli, "jx_scan", "variational.jx_scan"),
    (overtaking, "payoff_value", "variational.payoff"),
    (cli, "check_general", "conditions.general"),
    (cli, "check_classical", "conditions.classical"),
    (cli, "check_max_principle", "conditions.max_principle"),
    (cli, "decompose_costate", "conditions.decompose"),
    (cli, "check_gmax", "conditions.gmax"),
    (cli, "empirical_overtaking_test", "overtaking.test"),
    (cli, "ramsey_classify", "reference_examples.classify"),
    (cli, "ramsey_shoot", "reference_examples.shoot"),
    (reference_examples, "ramsey_shoot", "reference_examples.shoot"),
    (cli, "ramsey_saddle_candidate", "reference_examples.candidate"),
    (cli, "ramsey_feasible_candidate", "reference_examples.candidate"),
    (ode_engine.Trajectory, "__call__", "ode_engine.traj_eval"),
)

# integrate_controlled looks ode_engine.integrate up at call time;
# reference_examples holds its own imported copy.
INTEGRATE_OWNERS = (ode_engine, reference_examples)

# (owner, attribute, counter name): counted, no span.
COUNTERS = (
    (variational, "jacobians", "jacobian_calls"),
    (conditions, "jacobians", "jacobian_calls"),
    (conditions, "hamiltonian", "hamiltonian_calls"),
)

# Per-layer metrics that are counts (or ratios of counts): they repeat exactly
# for the same inputs.  All other per-layer metrics are times.
COUNT_METRICS = frozenset({
    "ode_engine.integrate_calls", "ode_engine.steps", "ode_engine.field_evals",
    "ode_engine.evals_per_step", "ode_engine.traj_eval_calls",
    "ode_engine.traj_eval_points", "problem_model.jacobian_calls",
    "problem_model.hamiltonian_calls", "variational.adjoint_solves",
    "variational.payoff_integrations", "conditions.general_cells",
    "reference_examples.classify_calls", "reference_examples.shoot_orbits",
})


class Patcher:
    """Replaces object attributes and puts the originals back, newest first."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, name, make_wrapper):
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make_wrapper(original))

    def restore(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class Tracer:
    """Records spans and counts for the calls made while it is installed."""

    def __init__(self):
        self.spans = []                 # (name, start, end, parent index or -1)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.classify_s = []
        self._stack = []                # [span index, time covered by children]
        self._open = Counter()
        self._patcher = Patcher()

    # -- installation ---------------------------------------------------
    def install(self):
        for owner, attr, span in SPANS:
            self._patcher.wrap(owner, attr, lambda fn, span=span: self._spanned(span, fn))
        for owner in INTEGRATE_OWNERS:
            self._patcher.wrap(owner, "integrate", self._integrate)
        for owner, attr, counter in COUNTERS:
            self._patcher.wrap(owner, attr, lambda fn, counter=counter: self._counted(counter, fn))

    def uninstall(self):
        self._patcher.restore()

    # -- wrappers -------------------------------------------------------
    def _run_span(self, name, fn, args, kwargs):
        start = perf_counter()
        parent = self._stack[-1][0] if self._stack else -1
        frame = [len(self.spans), 0.0]
        self.spans.append(None)
        self._stack.append(frame)
        self._open[name] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self._open[name] -= 1
            duration = end - start
            self.spans[frame[0]] = (name, start, end, parent)
            self.inclusive[name] += duration
            self.self_time[name] += duration - frame[1]
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][1] += duration
            if name == "reference_examples.classify":
                self.classify_s.append(duration)

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            result = self._run_span(name, fn, args, kwargs)
            if name == "ode_engine.traj_eval":
                self.counts["traj_eval_points"] += np.size(args[1])
            elif name == "conditions.general":
                self.counts["general_cells"] += result.estimates.size
            return result
        return wrapper

    def _integrate(self, fn):
        def wrapper(field, *args, **kwargs):
            if self._open["ode_engine.integrate"]:
                return fn(field, *args, **kwargs)
            if self._open["reference_examples.shoot"]:
                self.counts["shoot_orbits"] += 1

            def counted_field(t, y):
                self.counts["field_evals"] += 1
                return field(t, y)

            traj = self._run_span("ode_engine.integrate", fn, (counted_field, *args), kwargs)
            self.counts["steps"] += traj.time_grid.size - 1
            return traj
        return wrapper

    def _counted(self, counter, fn):
        def wrapper(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- results ----------------------------------------------------------
    def layer_self_s(self, layer: str) -> float:
        return sum((v for k, v in self.self_time.items() if k.startswith(layer + ".")), 0.0)

    def metrics(self) -> dict:
        """Per-layer metrics of everything recorded since construction."""
        steps = self.counts["steps"]
        evals = self.counts["field_evals"]
        n_traj = self.calls["ode_engine.traj_eval"]
        classify_ms = [1e3 * d for d in self.classify_s]
        return {
            "ode_engine.integrate_calls": self.calls["ode_engine.integrate"],
            "ode_engine.steps": steps,
            "ode_engine.field_evals": evals,
            "ode_engine.evals_per_step": evals / steps if steps else 0.0,
            # integrate self time excludes interpolant evaluation inside fields
            "ode_engine.us_per_step":
                1e6 * self.self_time["ode_engine.integrate"] / steps if steps else 0.0,
            "ode_engine.traj_eval_calls": n_traj,
            "ode_engine.traj_eval_points": self.counts["traj_eval_points"],
            "ode_engine.traj_eval_us":
                1e6 * self.inclusive["ode_engine.traj_eval"] / n_traj if n_traj else 0.0,
            "ode_engine.self_s": self.layer_self_s("ode_engine"),
            "problem_model.jacobian_calls": self.counts["jacobian_calls"],
            "problem_model.hamiltonian_calls": self.counts["hamiltonian_calls"],
            "variational.adjoint_s": self.inclusive["variational.adjoint"],
            "variational.adjoint_solves": self.calls["variational.adjoint"],
            "variational.transition_s": self.inclusive["variational.transition"],
            "variational.jx_scan_s": self.inclusive["variational.jx_scan"],
            "variational.payoff_s": self.inclusive["variational.payoff"],
            "variational.payoff_integrations": self.calls["variational.payoff"],
            "conditions.general_s": self.inclusive["conditions.general"],
            "conditions.general_cells": self.counts["general_cells"],
            "conditions.classical_s": self.inclusive["conditions.classical"],
            "conditions.max_principle_s": self.inclusive["conditions.max_principle"],
            "conditions.decompose_s": self.inclusive["conditions.decompose"],
            "conditions.gmax_s": self.inclusive["conditions.gmax"],
            "overtaking.test_s": self.inclusive["overtaking.test"],
            "overtaking.self_s": self.layer_self_s("overtaking"),
            "reference_examples.classify_calls": self.calls["reference_examples.classify"],
            "reference_examples.classify_ms":
                statistics.median(classify_ms) if classify_ms else 0.0,
            "reference_examples.classify_ms_p95": percentile(classify_ms, 95),
            "reference_examples.shoot_s": self.inclusive["reference_examples.shoot"],
            "reference_examples.shoot_orbits": self.counts["shoot_orbits"],
            "reference_examples.candidate_s": self.inclusive["reference_examples.candidate"],
            "cli.self_s": self.self_time["cli.build"],
            "cli.render_s": self.inclusive["cli.render"],
        }


def percentile(values, q: float) -> float:
    """q-th percentile by the nearest-rank rule; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]
