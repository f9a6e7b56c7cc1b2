"""Output checks on every benchmark run.

Only invariants are checked; no iterate value is pinned, so a later
change to the subproblem or the loop stays measurable.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

import numpy as np


@contextmanager
def capture_problems(config_module, captured: list):
    """Record every problem ``run_config`` builds, so a run's oracle
    counters can be read after it returns."""
    original = config_module.get_problem

    def get_problem(*args, **kwargs):
        pair = original(*args, **kwargs)
        captured.append(pair)
        return pair

    config_module.get_problem = get_problem
    try:
        yield
    finally:
        config_module.get_problem = original


def signature(trace) -> tuple:
    """What must repeat exactly when the same config is solved again."""
    return (
        trace.termination_status,
        trace.iterations,
        trace.plant_value_evaluations,
        trace.plant_gradient_evaluations,
        np.asarray(trace.final_reference, dtype=float).tobytes(),
    )


def check_run(trace, problem, statuses, trace_to_dict, csv_path=None, json_path=None):
    """Return the list of invariants the run breaks (empty when sound)."""
    bad = []
    if trace.termination_status not in statuses:
        bad.append(f"status {trace.termination_status!r} is undocumented")
    if (trace.plant_value_evaluations, trace.plant_gradient_evaluations) != (
        problem.plant.value_calls,
        problem.plant.gradient_calls,
    ):
        bad.append("trace plant counts differ from the oracle counters")
    radii = [r.radius for r in trace.records if r.radius is not None]
    if any(not r > 0.0 for r in radii):
        bad.append("a recorded radius is not > 0")
    if trace.algorithm != "basic-ma":
        values = [r.plant_value_at_reference for r in trace.records]
        values.append(trace.final_plant_value)
        if any(b > a for a, b in zip(values, values[1:])):
            bad.append("the reference plant value increased")
    if trace.termination_status == "converged":
        if not trace.final_gradient_norm <= trace.config["tolerance"]:
            bad.append("converged with final gradient norm above tolerance")
    if csv_path is not None:
        with open(csv_path, encoding="utf-8") as fh:
            lines = sum(1 for _ in fh)
        if lines != trace.iterations + 1:
            bad.append(f"CSV export has {lines} lines for {trace.iterations} iterations")
    if json_path is not None:
        with open(json_path, encoding="utf-8") as fh:
            if json.load(fh) != trace_to_dict(trace):
                bad.append("JSON export does not load back equal to trace_to_dict")
    return bad


def check_shift_equivalence(traces_by_algorithm: dict) -> list[str]:
    """``trust-region`` and ``ma-tr`` on the same noise-free start must
    apply the same inputs (the value shift cancels from every decrease)."""
    tr = traces_by_algorithm.get("trust-region")
    ma = traces_by_algorithm.get("ma-tr")
    if tr is None or ma is None:
        return []
    a = [r.applied_input for r in tr.records]
    b = [r.applied_input for r in ma.records]
    if len(a) != len(b) or not all(np.array_equal(x, y) for x, y in zip(a, b)):
        return ["trust-region and ma-tr applied different inputs from one start"]
    return []
