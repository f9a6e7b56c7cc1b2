"""The README, checked against the program.

Every check of README.md lives here, and README.md is read once.

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

The configuration reference and status table must list exactly the
``RunConfig`` fields and the termination statuses.  Each ``python`` block
and each line of the "## Command line" block runs as written, in a
temporary directory with ``configs/`` linked into it.  The command-line
block runs twice and must rewrite its files with the same bytes, and the
config in its JSON trace must replay that run.  The printed ``compare``
block is what ``compare`` prints.
"""

import csv
import importlib.util
import json
import os
import re
import runpy
import shlex
import subprocess
import sys
from collections import Counter
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

import rtopt
from rtopt import RunConfig, config, corrected_model, drivers, problems, subproblem, trust_region
from rtopt.cli import main
from rtopt.config import config_from_dict, run_config
from rtopt.drivers import TERMINATION_STATUSES
from rtopt.problems import as_input_vector, get_problem
from rtopt.reporting import CSV_COLUMNS
from rtopt.subproblem import solve_subproblem

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
WORDS = " ".join(README.split())
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


class TestReadmeReference:
    """The README configuration reference and status table are written by
    hand; they must list exactly the RunConfig fields, in order, with their
    defaults, and exactly the termination statuses, in order."""

    @staticmethod
    def parse_default(text):
        text = text.strip()
        try:
            return json.loads(text)
        except ValueError:
            return text  # a bare name, such as csv

    def test_table_matches_run_config(self):
        section = README.split("## Configuration reference", 1)[1].split("\n## ", 1)[0]
        required = re.findall(r"`(\w+)`", section.split("Required:", 1)[1].split("Optional", 1)[0])
        documented = {}
        for line in section.splitlines():
            if not line.startswith("| `"):
                continue
            cells = line.strip("|").split("|")
            names = re.findall(r"`(\w+)`", cells[0])
            defaults = [self.parse_default(d) for d in cells[1].split(",")]
            assert len(names) == len(defaults), line
            documented.update(zip(names, defaults))

        assert required + list(documented) == [f.name for f in fields(RunConfig)]
        for f in fields(RunConfig):
            if f.default is MISSING:
                assert f.name in required
            else:
                assert documented[f.name] == f.default, f.name

    def test_status_table_matches_termination_statuses(self):
        table = README.split("| status | meaning |", 1)[1].split("\n\n", 1)[0]
        rows = re.findall(r"^\| `([\w-]+)` \|", table, re.MULTILINE)
        assert tuple(rows) == TERMINATION_STATUSES


def test_compare_prints_the_readme_block(capsys):
    intro = "`rtopt compare configs/p2_compare.json` prints the motivating contrast:"
    block = README.split(intro, 1)[1].split("```")[1]
    assert main(["compare", str(ROOT / "configs" / "p2_compare.json")]) == 0
    assert capsys.readouterr().out == block.lstrip("\n")


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "configs").symlink_to(ROOT / "configs")
    return tmp_path


def test_python_examples_run(workdir):
    blocks = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
    assert blocks
    for i, block in enumerate(blocks):
        script = workdir / f"example_{i}.py"
        script.write_text(block, encoding="utf-8")
        runpy.run_path(str(script), run_name="__main__")


def test_command_line_block_runs_and_rewrites_the_same_bytes(workdir, capsys):
    block = re.search(r"^## Command line\n+```\n(.*?)^```", README, re.M | re.S).group(1)
    outputs = {}

    def run_block():
        for line in block.splitlines():
            command, *args = shlex.split(line, comments=True)
            assert command == "rtopt" and main(args) == 0, line
            outputs[line] = capsys.readouterr().out

    written = ("p1_trace.csv", "p4_noisy_trace.json", "summary.csv")
    run_block()
    first = {name: (workdir / name).read_bytes() for name in written}
    run_block()
    assert {name: (workdir / name).read_bytes() for name in written} == first

    rows = list(csv.reader(first["summary.csv"].decode().splitlines()))
    suite = json.loads((ROOT / "configs" / "catalog_suite.json").read_text(encoding="utf-8"))
    assert rows[0][:2] == ["problem", "algorithm"] and len(rows) == 1 + len(suite)
    assert first["p1_trace.csv"].decode().startswith(",".join(CSV_COLUMNS) + "\n")

    (workdir / "replay.json").write_text(
        json.dumps(json.loads(first["p4_noisy_trace.json"])["config"]), encoding="utf-8")
    assert main(["run", "replay.json"]) == 0
    noisy = next(out for line, out in outputs.items() if "p4_noisy.json" in line)
    assert capsys.readouterr().out.splitlines()[0] == noisy.splitlines()[0]
    assert main(["check", *map(str, sorted((ROOT / "configs").glob("*.json")))]) == 0


def test_module_entry_point_lists_the_catalog(capsys):
    env = {**os.environ, "PYTHONPATH": str(Path(rtopt.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-m", "rtopt.cli", "list-problems"],
                          env=env, capture_output=True, text=True, check=True)
    assert main(["list-problems"]) == 0
    assert done.stdout == capsys.readouterr().out
