"""Time the run loop alone, per iteration, so that a hot-loop change can be
sized in seconds.

Usage (from the repository root):

    python .github/scripts/loop_cost.py [--passes N]

For each benchmark workload (``perfbench/workloads.py``) the script runs
every entry of its seed-1 run list through ``config_from_dict`` and
``run_config``, with no export and no tracer.  A pass is one run of the
whole list; the fastest of ``N`` passes (default 9) is divided by the
list's iterations.  It prints JSON: per workload the entries, the
iterations of one pass, the fastest pass in seconds and the microseconds
per iteration.  The fastest pass is the figure because other work on the
machine only ever adds time; it still moves the figure by about 10%
between rounds on a shared machine, so compare checkouts within one round
of interleaved runs, and size a cut below a microsecond with the
benchmark's paired runs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS, run_list  # noqa: E402

from rtopt.config import config_from_dict, run_config  # noqa: E402


def one_pass(raws: list) -> tuple[float, int]:
    """(seconds, iterations) of one untraced pass over ``raws``."""
    iterations = 0
    start = time.perf_counter()
    for raw in raws:
        iterations += run_config(config_from_dict(raw)).iterations
    return time.perf_counter() - start, iterations


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--passes", type=int, default=9, help="passes per workload (default 9)")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be >= 1")
    report = {}
    for name, workload in WORKLOADS.items():
        raws = [raw for _, raw in run_list(workload, 1)]
        seconds, iterations = min(one_pass(raws) for _ in range(args.passes))
        report[name] = {
            "entries": len(raws),
            "iterations": iterations,
            "fastest_pass_s": round(seconds, 4),
            "us_per_iteration": round(1e6 * seconds / iterations, 2),
        }
    json.dump({"passes": args.passes, "workloads": report}, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
