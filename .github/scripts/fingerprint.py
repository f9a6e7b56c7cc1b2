"""Fingerprint the program's runs, so that "every run is unchanged" is one
command.

Usage (from the repository root):

    python .github/scripts/fingerprint.py > new.json
    python .github/scripts/fingerprint.py --diff old.json new.json

The first form runs two sets of runs and prints their fingerprint as JSON.

``run_list``: the benchmark's run lists (``perfbench/workloads.py``) for
seeds 1 then 301, and within each seed ``converge``, ``rosenbrock-cap`` and
``noisy``, 1,092 entries.  Each entry runs through ``config_from_dict`` and
``run_config`` and is exported to CSV, then to JSON.  ``combined`` is the
SHA-256 of all those files' bytes in that order, and ``entries`` holds the
SHA-256 of each entry's two files.

``library``: 192 library runs on the catalog pairs with both oracles
wrapped without a Hessian, the path that no run-list entry takes.  Each
problem gets 12 starts drawn uniformly from [-3, 3]^n by
``default_rng(11)``, problem after problem, and each start runs four ways:
``ma-tr`` and ``trust-region`` at their defaults, ``ma-tr`` at gain 0.7 on
noise 0.02 for 100 iterations, and ``basic-ma`` at its defaults.  Every pair
has seed 11, which seeds the noise and ``basic-ma``'s box search.
Each run records its status, iterations, plant probes and the SHA-256 of
its JSON export; ``statuses`` and ``plant_probes`` total them.

``--diff`` names the run-list entries and library runs whose records
differ between two outputs and exits 1 when any does.  The hashes repeat
on one machine; another NumPy or BLAS may round differently.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
from workloads import WORKLOADS, run_list  # noqa: E402

from rtopt import ProblemPair, ScalarOracle, get_problem  # noqa: E402
from rtopt import run_basic_ma, run_ma_tr, run_trust_region  # noqa: E402
from rtopt.config import config_from_dict, run_config  # noqa: E402
from rtopt.problems import PROBLEM_IDS  # noqa: E402
from rtopt.reporting import export_trace  # noqa: E402

SEEDS = (1, 301)
RUN_LISTS = ("converge", "rosenbrock-cap", "noisy")
STARTS_PER_PROBLEM = 12
# name, driver, noise level, settings
LIBRARY_RUNS = (
    ("ma-tr", run_ma_tr, 0.0, {}),
    ("trust-region", run_trust_region, 0.0, {}),
    ("ma-tr-noisy", run_ma_tr, 0.02, {"alpha": 0.7, "max_iterations": 100}),
    ("basic-ma", run_basic_ma, 0.0, {}),
)
# every library pair's seed: its noise and basic-ma's box search
PAIR_SEED = 11


def exported(trace, directory: Path, formats=("csv", "json")) -> bytes:
    """The bytes of the trace's exports in ``formats``, in that order."""
    return b"".join(export_trace(trace, f, directory / f"trace.{f}").read_bytes()
                    for f in formats)


def run_lists(directory: Path) -> dict:
    combined, entries = hashlib.sha256(), {}
    for seed in SEEDS:
        for workload in RUN_LISTS:
            for i, (_, raw) in enumerate(run_list(WORKLOADS[workload], seed)):
                data = exported(run_config(config_from_dict(raw)), directory)
                combined.update(data)
                name = f"{seed}/{workload}/{i}/{raw['problem']}/{raw['algorithm']}"
                entries[name] = hashlib.sha256(data).hexdigest()
    return {"combined": combined.hexdigest(), "entries": entries}


def without_hessian(pid: str, noise_level: float) -> ProblemPair:
    p = get_problem(pid)

    def wrapped(oracle):
        return ScalarOracle(oracle.value, oracle.gradient, oracle.dimension)

    return ProblemPair(pid, wrapped(p.plant), wrapped(p.model), noise_level, PAIR_SEED)


def library(directory: Path) -> dict:
    rng = np.random.default_rng(11)
    runs = {}
    for pid in PROBLEM_IDS:
        starts = rng.uniform(-3.0, 3.0, size=(STARTS_PER_PROBLEM, get_problem(pid).dimension))
        for j, u0 in enumerate(starts.tolist()):
            for name, driver, noise_level, settings in LIBRARY_RUNS:
                trace = driver(without_hessian(pid, noise_level), u0, **settings)
                runs[f"{pid}/{j}/{name}"] = {
                    "status": trace.termination_status,
                    "iterations": trace.iterations,
                    "plant_probes": trace.plant_evaluation_count,
                    "json": hashlib.sha256(exported(trace, directory, ("json",))).hexdigest(),
                }
    return {
        "statuses": dict(Counter(r["status"] for r in runs.values()).most_common()),
        "plant_probes": sum(r["plant_probes"] for r in runs.values()),
        "runs": runs,
    }


def diff(old_path: str, new_path: str) -> int:
    old, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in (old_path, new_path))
    differing = 0
    for section, key in (("run_list", "entries"), ("library", "runs")):
        before, after = old[section][key], new[section][key]
        names = [n for n in before if before[n] != after.get(n)]
        names += [n for n in after if n not in before]
        for name in names:
            print(f"{section} {name}: {before.get(name)} -> {after.get(name)}")
        print(f"{section}: {len(names)} of {len(after)} differ")
        differing += len(names)
    return 1 if differing else 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["--diff"] and len(argv) == 3:
        return diff(*argv[1:])
    if argv:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        report = {"run_list": run_lists(directory), "library": library(directory)}
    json.dump(report, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
