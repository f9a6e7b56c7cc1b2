"""The README's exact counts, checked against fresh runs.

The README gives each benchmark workload's traced counts in a table
(iterations, model calls and ``as_input_vector`` calls, the last two also
per iteration) and the ``P3`` baseline run's counts in two sentences.
These tests read those figures from the README and run the same configs:
each workload's seed-1 run list (``perfbench/workloads.py``) and the
baseline config, every entry through ``config_from_dict`` and
``run_config``.  Model calls come from the oracle counters of each problem
``run_config`` builds, input checks from ``as_input_vector`` at its five
import sites.  No solve may make a Cauchy override: every catalog model
declares a Hessian, and its exact step needs no Cauchy point.
"""

import importlib.util
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

from rtopt import config, corrected_model, drivers, problems, subproblem, trust_region
from rtopt.config import config_from_dict, run_config
from rtopt.problems import as_input_vector, get_problem
from rtopt.subproblem import solve_subproblem

ROOT = Path(__file__).resolve().parent.parent
WORDS = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
BASELINE = {"problem": "P3", "algorithm": "ma-tr", "u0": [-1.2, 1.0]}


def load_workloads_module():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up by name
    spec.loader.exec_module(module)
    return module


def figures(pattern: str) -> list[str]:
    """The groups of the README's one match of ``pattern``, its words
    joined by single spaces."""
    found = re.findall(pattern, WORDS)
    assert len(found) == 1, f"README.md should match {pattern!r} once: {found}"
    return list(found[0])


def number(figure: str) -> int:
    return int(figure.replace(",", ""))


def count_runs(raws, monkeypatch) -> Counter:
    """The counts of running each of ``raws`` through ``config_from_dict``
    and ``run_config``."""
    counts, pairs = Counter(), []

    def built(*args, **kwargs):
        pairs.append(get_problem(*args, **kwargs))
        return pairs[-1]

    def checked(*args, **kwargs):
        counts["input_checks"] += 1
        return as_input_vector(*args, **kwargs)

    def solved(*args, **kwargs):
        result = solve_subproblem(*args, **kwargs)
        counts["overrides"] += bool(result.cauchy_override_applied)
        return result

    monkeypatch.setattr(config, "get_problem", built)
    monkeypatch.setattr(drivers, "solve_subproblem", solved)
    for module in (problems, corrected_model, subproblem, trust_region, drivers):
        monkeypatch.setattr(module, "as_input_vector", checked)
    for raw in raws:
        trace = run_config(config_from_dict(raw))
        counts["iterations"] += trace.iterations
        counts["accepted"] += trace.accepted_count
        counts["plant_probes"] += trace.plant_evaluation_count
    counts["model_values"] = sum(p.model.value_calls for p in pairs)
    counts["model_gradients"] = sum(p.model.gradient_calls for p in pairs)
    return counts


WORKLOADS = load_workloads_module()


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_traced_counts_match_the_readme_table(name, monkeypatch):
    row = r"\| `{}` \| ([\d,]+) \| ([\d,]+) \| ([\d.]+) \| ([\d,]+) \| ([\d.]+) \|"
    iterations, model_calls, model_per_iter, checks, checks_per_iter = figures(
        row.format(re.escape(name)))
    raws = [raw for _, raw in WORKLOADS.run_list(WORKLOADS.WORKLOADS[name], 1)]
    got = count_runs(raws, monkeypatch)
    calls = got["model_values"] + got["model_gradients"]
    n = got["iterations"]
    assert (n, calls, got["input_checks"]) == tuple(
        map(number, (iterations, model_calls, checks)))
    assert (f"{calls / n:.4f}", f"{got['input_checks'] / n:.4f}") == (
        model_per_iter, checks_per_iter)
    assert got["overrides"] == 0


def test_baseline_counts_match_the_readme_sentences(monkeypatch):
    want = figures(r"It takes ([\d,]+) model values, ([\d,]+) model gradients"
                   r" \(one per reference it solved from\) and ([\d,]+) plant probes")
    want += figures(r"baseline run.s ([\d,]+) `as_input_vector` calls?"
                    r" [^()]*\(([\d,]+) iterations, ([\d,]+) accepted\)")
    got = count_runs([BASELINE], monkeypatch)
    names = ("model_values", "model_gradients", "plant_probes", "input_checks",
             "iterations", "accepted")
    assert {k: got[k] for k in names} == dict(zip(names, map(number, want)))
    assert got["overrides"] == 0
