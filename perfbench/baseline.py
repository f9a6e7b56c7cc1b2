"""Trace the README's P3 run and print its counts as JSON.

Usage (from the repository root):

    python3 perfbench/baseline.py

Solves ``ma-tr`` on ``P3`` from ``[-1.2, 1.0]`` with default settings
through ``config_from_dict`` and ``run_config``, once untraced (wall time,
median of three, also scaled to the calibration kernel's reference speed)
and once under the tracer, and prints the oracle counts and per-iteration
ratios of the traced solve.  Counts are exact and repeat on every machine.
Traced shares of time include the tracer's own cost.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

from calibration import REFERENCE_KERNEL_MS, kernel_ms
from run import load_program
from tracer import Tracer

RAW = {"problem": "P3", "algorithm": "ma-tr", "u0": [-1.2, 1.0]}


def main() -> int:
    rtopt = load_program()
    from rtopt import config

    wall, scaled = [], []
    for _ in range(3):
        before = kernel_ms()
        start = time.perf_counter()
        config.run_config(config.config_from_dict(RAW))
        seconds = time.perf_counter() - start
        wall.append(seconds)
        scaled.append(seconds * REFERENCE_KERNEL_MS / ((before + kernel_ms()) / 2.0))

    tracer = Tracer(rtopt)
    tracer.install()
    try:
        missed = tracer.check_bindings()
        with tracer.span("bench.solve"):
            trace = config.run_config(config.config_from_dict(RAW))
        pair = tracer.last_problem
    finally:
        tracer.uninstall()

    totals = tracer.totals
    iterations = trace.iterations
    counts = {n: totals[f"problems.{n}"][0] for n in
              ("plant_value", "plant_gradient", "model_value", "model_gradient")}
    oracle = {
        "plant_value": pair.plant.value_calls,
        "plant_gradient": pair.plant.gradient_calls,
        "model_value": pair.model.value_calls,
        "model_gradient": pair.model.gradient_calls,
    }
    solve_s = totals["bench.solve"][1]
    out = {
        "config": RAW,
        "termination_status": trace.termination_status,
        "iterations": iterations,
        "model_values": counts["model_value"],
        "model_gradients": counts["model_gradient"],
        "plant_probes": trace.plant_evaluation_count,
        "plant_values": trace.plant_value_evaluations,
        "plant_gradients": trace.plant_gradient_evaluations,
        "tracer_counts_equal_oracle_counters": counts == oracle and not missed,
        "cauchy_model_values_per_iter":
            tracer.leaf_calls_under("subproblem.cauchy_point", "problems.model_value") / iterations,
        "as_input_vector_calls": totals["problems.as_input_vector"][0],
        "as_input_vector_calls_per_iter": totals["problems.as_input_vector"][0] / iterations,
        "traced_share_as_input_vector_self": totals["problems.as_input_vector"][2] / solve_s,
        "traced_share_cauchy_of_subproblem":
            totals["subproblem.cauchy_point"][1] / totals["subproblem.solve"][1],
        "untraced_wall_s_median": statistics.median(wall),
        "untraced_scaled_s_median": statistics.median(scaled),
    }
    print(json.dumps(out, indent=2))
    return 0 if out["tracer_counts_equal_oracle_counters"] else 1


if __name__ == "__main__":
    sys.exit(main())
