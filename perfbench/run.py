"""rtopt benchmark: one seeded workload, timed end to end or traced per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload converge --seed 1 --seconds 20 --trace 0

The workload's run list is generated from ``--seed`` (see
``workloads.py``) and solved in this one process, one solve after the
other (closed loop, one client), the way a user runs a config: validate
it with ``config_from_dict``, ``run_config`` it and, where the workload
exports, ``export_trace`` it as CSV and as JSON.  Solving cycles through
the list block by block for at least one pass and ``--seconds`` of
solving; every repeated solve must reproduce its first result exactly,
and once timing is over every first result is checked (``checks.py``).
Times are scaled to a reference machine speed (``calibration.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` solves the
first quarter of the list untraced and then the whole list under the
tracer (``tracer.py``), and reports the per-layer metrics of the traced
pass with the tracing overhead.  See NOTES.md for every metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status
is 0 when every check passed and 1 otherwise, including when the program
under ``src/`` cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from calibration import REFERENCE_KERNEL_MS, kernel_ms
from checks import capture_problems, check_run, check_shift_equivalence, signature
from tracer import Tracer
from workloads import WORKLOADS, run_list

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60
# Solve seconds between two calibrations (see calibration.py).
CALIBRATE_EVERY_S = 0.05
# Measurement stops here even if the tail percentile lacks samples.
MAX_MEASURE_S = 100

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_ms_p50": "ms",
    "solve_ms_tail": "ms",
    "iterations_per_s": "1/s",
    "plant_probes": "count",
    "unconverged_frac": "ratio",
    "passed_frac": "ratio",
    "peak_rss_mb": "MiB",
}

_clock = time.perf_counter


def load_program():
    """Import rtopt from this checkout's ``src/`` and nowhere else."""
    package = SRC / "rtopt"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no rtopt package at {package}")
    sys.path.insert(0, str(SRC))
    import rtopt

    if Path(rtopt.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported rtopt from {rtopt.__file__}, not {package}")
    return rtopt


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


class Bench:
    def __init__(self, rtopt, workload, seed: int):
        from rtopt import config, drivers, problems, reporting

        self.rtopt = rtopt
        self.config = config
        self.problems = problems
        self.reporting = reporting
        self.statuses = drivers.TERMINATION_STATUSES
        self.workload = workload
        self.seed = seed
        self.entries = run_list(workload, seed)
        self.list_path = WORK / f"{workload.name}-{seed}.runs.json"
        # one CSV and one JSON export per entry, rewritten by every repeat
        self.export_dir = WORK / f"{workload.name}-{seed}.exports" if workload.export else None
        self.attempted = 0
        self.failed: set[int] = set()  # attempt numbers of failed solves
        self.errors: list[str] = []
        n = len(self.entries)
        self.first: list = [None] * n  # (attempt, trace, problem) of each entry's first solve
        # timed solves: (seconds at the reference speed, wall seconds, iterations)
        self.samples: list[tuple[float, float, int]] = []
        self.scales: list[float] = []
        self.setup_wall: list[float] = []
        self.last_kernel_ms = REFERENCE_KERNEL_MS

    # -- set-up ------------------------------------------------------------

    def setup_seconds(self) -> list[float]:
        """Set-up times of fresh interpreters, each scaled by the kernel
        time measured in the same interpreter (median reported)."""
        out = []
        for _ in range(SETUP_REPEATS):
            proc = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
                 self.workload.name, str(self.seed), str(self.list_path)],
                capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
            )
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
            seconds, kernel = map(float, proc.stdout.split())
            self.setup_wall.append(seconds)
            out.append(seconds * REFERENCE_KERNEL_MS / kernel)
        return out

    def load(self):
        """Write the run list as a config file and validate every entry."""
        with open(self.list_path, "w", encoding="utf-8") as fh:
            json.dump([raw for _, raw in self.entries], fh)
        configs = self.config.load_config(self.list_path)
        if len(configs) != len(self.entries):
            raise RuntimeError("load_config returned the wrong number of configs")
        if self.export_dir is not None:
            self.export_dir.mkdir(exist_ok=True)

    # -- solving -----------------------------------------------------------

    def export_paths(self, index):
        return self.export_dir / f"{index}.csv", self.export_dir / f"{index}.json"

    def solve(self, index):
        cfg = self.config.config_from_dict(self.entries[index][1])
        trace = self.config.run_config(cfg)
        if self.export_dir is not None:
            csv_path, json_path = self.export_paths(index)
            self.reporting.export_trace(trace, "csv", csv_path)
            self.reporting.export_trace(trace, "json", json_path)
        return trace

    def fail(self, attempt: int, index: int, message: str):
        self.failed.add(attempt)
        if len(self.errors) < 20:
            self.errors.append(f"run {index} {self.entries[index][1]}: {message}")

    def timed_solve(self, index, tracer=None):
        """Solve one entry; returns (trace, seconds) or (None, None) if it raised."""
        self.attempted += 1
        start = _clock()
        try:
            if tracer is None:
                trace = self.solve(index)
            else:
                with tracer.span("bench.solve"):
                    trace = self.solve(index)
        except Exception as exc:  # a raising run is a failed run; keep going
            self.fail(self.attempted, index, f"raised {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return None, None
        return trace, _clock() - start

    def record(self, index, trace, problem):
        """Keep an entry's first result for the checks; a repeat must
        reproduce it exactly."""
        first = self.first[index]
        if first is None:
            self.first[index] = (self.attempted, trace, problem)
        elif signature(trace) != signature(first[1]):
            self.fail(self.attempted, index, "a repeated solve did not reproduce its first result")

    def run_block(self, indices, on_trace, tracer=None) -> list[tuple[float, float, int]]:
        """Solve the entries one after the other, timing the calibration
        kernel after every ``CALIBRATE_EVERY_S`` of solving, and scale each
        solve time by the kernel times around it.  Returns (scaled seconds,
        wall seconds, iterations) per solve."""
        out, group = [], []
        for n, i in enumerate(indices, 1):
            trace, seconds = self.timed_solve(i, tracer)
            if trace is not None:
                on_trace(i, trace)
                group.append((seconds, trace.iterations))
            if n == len(indices) or sum(s for s, _ in group) >= CALIBRATE_EVERY_S:
                # The benchmark keeps first results for its checks.  Freezing
                # them keeps the collector from walking them in later solves,
                # a cost a user solving one config never pays.
                gc.freeze()
                kernel = kernel_ms()
                scale = REFERENCE_KERNEL_MS / ((self.last_kernel_ms + kernel) / 2.0)
                self.last_kernel_ms = kernel
                self.scales.append(scale)
                out.extend((seconds * scale, seconds, iterations) for seconds, iterations in group)
                group = []
        return out

    def blocks(self):
        size = self.workload.block_size
        return [range(b, b + size) for b in range(0, len(self.entries), size)]

    def untraced(self, blocks, stop=lambda measured: True):
        """Solve ``blocks`` in turn, cycling, until ``stop(measured
        seconds)`` holds after a block; returns the samples."""
        captured: list = []

        def on_trace(i, trace):
            self.record(i, trace, captured[-1])
            captured.clear()

        samples, measured, done = [], 0.0, 0
        with capture_problems(self.config, captured):
            while True:
                start = _clock()
                samples.extend(self.run_block(blocks[done % len(blocks)], on_trace))
                measured += _clock() - start
                done += 1
                if done >= len(blocks) and (stop(measured) or measured > MAX_MEASURE_S):
                    return samples

    def check(self):
        """Check every entry's first result (outside all timers)."""
        for i, first in enumerate(self.first):
            if first is None:
                continue
            attempt, trace, problem = first
            paths = self.export_paths(i) if self.export_dir is not None else (None, None)
            bad = check_run(trace, problem, self.statuses, self.reporting.trace_to_dict, *paths)
            if bad:
                self.fail(attempt, i, "; ".join(bad))

        by_start = defaultdict(dict)
        for i, ((meta, raw), first) in enumerate(zip(self.entries, self.first)):
            if first is not None and not meta["noisy"]:
                by_start[meta["start"]][raw["algorithm"]] = i
        for runs in by_start.values():
            bad = check_shift_equivalence({a: self.first[i][1] for a, i in runs.items()})
            if bad:
                i = runs["ma-tr"]
                self.fail(self.first[i][0], i, "; ".join(bad))

        done = [f[1] for f in self.first if f is not None]
        if done:
            table = self.reporting.summarize(done)
            if len(table.splitlines()) != len(done) + 2:
                self.errors.append("summarize printed the wrong number of rows")

    def traces(self):
        return [f[1] for f in self.first if f is not None]

    def final_gaps(self) -> list[float]:
        """Noise-free plant value at each run's final reference (every
        catalog optimum has value 0), floored at tolerance squared."""
        gaps = []
        for trace in self.traces():
            plant = self.problems.get_problem(trace.problem_id).plant
            gap = plant.value(trace.final_reference)
            gaps.append(max(gap, trace.config["tolerance"] ** 2))
        return gaps

    # -- modes -------------------------------------------------------------

    def end_to_end(self, seconds: float) -> dict:
        """Solve the list block by block, cycling, for at least one pass and
        ``seconds`` of solving; then check every entry's first result."""
        setup = self.setup_seconds()
        self.load()
        self.last_kernel_ms = kernel_ms()
        level = self.workload.tail_level
        min_samples = self.workload.min_samples
        self.samples = self.untraced(
            self.blocks(), lambda measured: measured >= seconds and self.attempted >= min_samples)
        self.check()
        done = self.traces()
        samples_ms = [s * 1000.0 for s, _, _ in self.samples]
        values = {
            "setup_s": statistics.median(setup),
            "solve_ms_p50": statistics.median(samples_ms),
            "solve_ms_tail": statistics.quantiles(samples_ms, n=100, method="inclusive")[level - 1],
            "iterations_per_s": _ratio(sum(i for _, _, i in self.samples),
                                       sum(s for s, _, _ in self.samples)),
            "plant_probes": sum(t.plant_evaluation_count for t in done),
            "unconverged_frac": _ratio(
                sum(t.termination_status != "converged" for t in done), len(self.entries)),
            "passed_frac": 1.0 - _ratio(len(self.failed), self.attempted),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        beyond = len(samples_ms) * (100 - level) / 100.0
        print(f"{self.workload.name} seed {self.seed}: {len(self.entries)} runs per pass, "
              f"{len(samples_ms)} timed solves, solve_ms_tail = p{level} "
              f"({beyond:.0f} samples beyond it), set-up median of {len(setup)}")
        print(f"  unscaled: solve_ms_p50 {statistics.median(w for _, w, _ in self.samples) * 1e3:.6g}"
              f" setup_s {statistics.median(self.setup_wall):.6g};"
              f" speed scale median {statistics.median(self.scales):.4g}"
              f" range [{min(self.scales):.4g}, {max(self.scales):.4g}]")
        return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    def per_layer(self) -> dict:
        """Solve the first quarter of the blocks untraced, then the whole
        list under the tracer; check, and report the traced pass."""
        setup_tracer = Tracer(self.rtopt)
        setup_tracer.install()
        try:
            self.load()
        finally:
            setup_tracer.uninstall()

        blocks = self.blocks()
        reference = blocks[:max(1, len(blocks) // 4)]
        self.last_kernel_ms = kernel_ms()
        untraced = sum(s for s, _, _ in self.untraced(reference))

        tracer = Tracer(self.rtopt)
        tracer.install()
        try:
            for name in tracer.check_bindings():
                self.errors.append(f"tracer missed the binding {name}")
            first_scale = len(self.scales)
            samples = []
            for block in blocks:
                samples.append(self.run_block(block, lambda i, t: self.traced_check(tracer, i, t),
                                              tracer))
            scale = statistics.median(self.scales[first_scale:])
            traces = self.traces()
            self.reporting.summarize(traces)
        finally:
            tracer.uninstall()
        self.check()
        tracer.write_spans(WORK / f"spans-{self.workload.name}.json")

        traced = sum(s for block in samples[:len(reference)] for s, _, _ in block)
        iterations = sum(t.iterations for t in traces)
        probes = sum(t.plant_evaluation_count for t in traces)
        metrics = self.layer_metrics(tracer, setup_tracer, iterations, probes, scale)
        metrics["drivers.final_gap_p50"] = {
            "value": statistics.median(self.final_gaps()), "unit": "plant_units"}
        metrics["tracing.overhead_ratio"] = {
            "value": _ratio(traced, untraced) - 1.0, "unit": "ratio"}
        return metrics

    def traced_check(self, tracer, index, trace):
        """Every traced solve's oracle calls, as the tracer counted them,
        must equal its oracle counters and its trace's plant counts."""
        pair = tracer.last_problem
        self.record(index, trace, pair)
        seen = [tracer.calls_in_last_root(f"problems.{n}") for n in
                ("plant_value", "plant_gradient", "model_value", "model_gradient")]
        oracle = [pair.plant.value_calls, pair.plant.gradient_calls,
                  pair.model.value_calls, pair.model.gradient_calls]
        recorded = [trace.plant_value_evaluations, trace.plant_gradient_evaluations]
        if seen != oracle or seen[:2] != recorded:
            self.fail(self.attempted, index,
                      f"tracer counted {seen}, oracles {oracle}, trace {recorded}")

    @staticmethod
    def layer_metrics(tracer, setup_tracer, iterations, probes, scale) -> dict:
        """Per-layer counts and times of one traced pass; times are scaled
        to the reference speed by the pass's median scale."""
        totals, events = tracer.totals, tracer.events

        def calls(name):
            return totals[name][0] if name in totals else 0

        def total_s(name):
            return totals[name][1] if name in totals else 0.0

        def self_s(*names):
            return sum(totals[n][2] for n in names if n in totals)

        layers = tracer.layer_self_seconds()
        model_values = calls("problems.model_value")
        model_gradients = calls("problems.model_gradient")
        solves = calls("subproblem.solve")
        cauchy = calls("subproblem.cauchy_point")
        oracle_names = [f"problems.{r}_{k}" for r in ("plant", "model", "other")
                        for k in ("value", "gradient")] + ["problems.pair"]
        values = {
            "problems.plant_value.calls": (calls("problems.plant_value"), "count"),
            "problems.plant_gradient.calls": (calls("problems.plant_gradient"), "count"),
            "problems.model_value.calls": (model_values, "count"),
            "problems.model_gradient.calls": (model_gradients, "count"),
            "problems.model_calls_per_iter": (
                _ratio(model_values + model_gradients, iterations), "count"),
            "problems.as_input_vector.calls_per_iter": (
                _ratio(calls("problems.as_input_vector"), iterations), "count"),
            "problems.as_input_vector.self_s": (self_s("problems.as_input_vector"), "s"),
            "problems.oracle.self_s": (self_s(*oracle_names), "s"),
            "problems.get_problem.s": (total_s("problems.get_problem"), "s"),
            "corrected_model.value_change.calls": (
                calls("corrected_model.value_change"), "count"),
            "corrected_model.value_change.self_s": (
                self_s("corrected_model.value_change"), "s"),
            "corrected_model.gradient.self_s": (self_s("corrected_model.gradient"), "s"),
            "subproblem.solve.calls": (solves, "count"),
            "subproblem.solve.s": (total_s("subproblem.solve"), "s"),
            "subproblem.cauchy_point.self_s": (self_s("subproblem.cauchy_point"), "s"),
            "subproblem.cauchy_point.model_values_per_call": (
                _ratio(tracer.leaf_calls_under("subproblem.cauchy_point",
                                               "problems.model_value"), cauchy), "count"),
            "subproblem.projected_descent.self_s": (
                self_s("subproblem.projected_descent"), "s"),
            "subproblem.descent_evals_per_solve": (
                _ratio(events["subproblem.descent_evaluations"], solves), "count"),
            "subproblem.override_ratio": (_ratio(events["subproblem.override"], solves), "ratio"),
            "trust_region.accept_ratio": (
                _ratio(events["trust_region.accepted"],
                       calls("trust_region.accept_candidate")), "ratio"),
            "trust_region.degenerate_ratio": (
                _ratio(events["trust_region.degenerate"],
                       calls("trust_region.compute_rho")), "ratio"),
            "trust_region.self_s": (layers.get("trust_region", 0.0), "s"),
            "drivers.iterations": (iterations, "count"),
            "drivers.probes_per_iter": (_ratio(probes, iterations), "count"),
            "drivers.self_s": (layers.get("drivers", 0.0), "s"),
            "drivers.box_minimize.calls": (calls("drivers.box_minimize"), "count"),
            "drivers.box_minimize.s": (total_s("drivers.box_minimize"), "s"),
            "reporting.export_csv.s": (total_s("reporting.export_csv"), "s"),
            "reporting.export_json.s": (total_s("reporting.export_json"), "s"),
            "reporting.bytes_written": (events["reporting.bytes_written"], "bytes"),
            "reporting.summarize.s": (total_s("reporting.summarize"), "s"),
            "config.load_config.s": (setup_tracer.totals["config.load_config"][1], "s"),
            "config.config_from_dict.s": (total_s("config.config_from_dict"), "s"),
            "config.run_config.s": (total_s("config.run_config"), "s"),
        }
        return {k: {"value": v * scale if u == "s" else v, "unit": u}
                for k, (v, u) in values.items()}

    def cleanup(self):
        self.list_path.unlink(missing_ok=True)
        if self.export_dir is not None:
            shutil.rmtree(self.export_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    rtopt = load_program()
    WORK.mkdir(exist_ok=True)
    bench = Bench(rtopt, WORKLOADS[args.workload], args.seed)
    try:
        metrics = bench.per_layer() if args.trace else bench.end_to_end(args.seconds)
    finally:
        bench.cleanup()

    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    for message in bench.errors:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    correct = not bench.errors and not bench.failed
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": len(bench.failed),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
