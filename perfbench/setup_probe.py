"""One set-up of a benchmark run, timed from a fresh interpreter.

Usage: python3 setup_probe.py <src dir> <workload> <seed> <run-list path>

Imports rtopt, generates the workload's run list, writes it as a config
file and validates every entry with ``load_config``.  Prints the elapsed
seconds and then the calibration kernel's time in this process, in ms.
"""

import time

_start = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main(src, workload, seed, path):
    sys.path.insert(0, src)
    from rtopt import config

    from workloads import WORKLOADS, run_list

    entries = run_list(WORKLOADS[workload], int(seed))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([raw for _, raw in entries], fh)
    configs = config.load_config(path)
    if len(configs) != len(entries):
        raise SystemExit("load_config returned the wrong number of configs")
    elapsed = time.perf_counter() - _start

    from calibration import kernel_ms

    print(repr(elapsed), repr(kernel_ms()))


if __name__ == "__main__":
    main(*sys.argv[1:])
