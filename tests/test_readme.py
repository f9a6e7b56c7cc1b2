"""The README, checked against the program.

Every check of README.md lives here, and README.md is read once.

The README gives each benchmark workload's traced counts in a table
(iterations, model calls and ``as_input_vector`` calls, the last two also
per iteration) and the ``P3`` baseline run's counts in two sentences.
These tests read those figures from the README and run the same configs:
each workload's seed-1 run list (``perfbench/workloads.py``) and the
baseline config, every entry through ``config_from_dict`` and
``run_config`` under the benchmark's tracer and with its checks on every
solve.  The counts are the tracer's, taken at every name it rebinds.  No
solve may make a Cauchy override: every catalog model declares a Hessian,
and its exact step needs no Cauchy point.

The configuration reference and status table must list exactly the
``RunConfig`` fields and the termination statuses.  Each ``python`` block
and each line of the "## Command line" block runs as written, in a
temporary directory with ``configs/`` linked into it.  The command-line
block runs twice and must rewrite its files with the same bytes, and the
config in its JSON trace must replay that run.  The printed ``compare``
block is what ``compare`` prints.
"""

import csv
import json
import os
import re
import runpy
import shlex
import subprocess
import sys
from collections import Counter, defaultdict
from dataclasses import MISSING, fields
from pathlib import Path

import pytest
from perfbench_support import CHECKS, TRACER, WORKLOADS

import rtopt
from rtopt import RunConfig, config, problems, reporting
from rtopt.cli import main
from rtopt.drivers import TERMINATION_STATUSES
from rtopt.reporting import CSV_COLUMNS

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
WORDS = " ".join(README.split())
BASELINE = {"problem": "P3", "algorithm": "ma-tr", "u0": [-1.2, 1.0]}


def figures(pattern: str) -> list[str]:
    """The groups of the README's one match of ``pattern``, its words
    joined by single spaces."""
    found = re.findall(pattern, WORDS)
    assert len(found) == 1, f"README.md should match {pattern!r} once: {found}"
    return list(found[0])


def number(figure: str) -> int:
    return int(figure.replace(",", ""))


def traced_counts(entries, export_dir=None) -> dict:
    """The README's counts of running each ``(meta, raw)`` run-list entry
    through ``config_from_dict`` and ``run_config`` under the benchmark's
    tracer, exported to CSV and JSON in ``export_dir`` if given, with the
    checks of a traced benchmark pass on every solve and no Cauchy override."""
    tracer, counts, by_start = TRACER.Tracer(rtopt), Counter(), defaultdict(dict)
    tracer.install()
    try:
        assert tracer.check_bindings() == []
        for i, (meta, raw) in enumerate(entries):
            paths = [export_dir / f"{i}.{fmt}" for fmt in ("csv", "json")] if export_dir else []
            with tracer.span("bench.solve"):
                trace = config.run_config(config.config_from_dict(raw))
                for path in paths:
                    reporting.export_trace(trace, path.suffix[1:], path)
            pair = tracer.last_problem  # check_run holds its plant counters to the trace's
            for role in ("plant", "model"):
                oracle = getattr(pair, role)
                assert [tracer.calls_in_last_root(f"problems.{role}_{kind}") for kind in
                        ("value", "gradient")] == [oracle.value_calls, oracle.gradient_calls]
            assert CHECKS.check_run(trace, pair, TERMINATION_STATUSES,
                                    reporting.trace_to_dict, *paths) == []
            if not meta["noisy"]:
                by_start[meta["start"]][raw["algorithm"]] = trace
            counts.update(iterations=trace.iterations, accepted=trace.accepted_count,
                          plant_probes=trace.plant_evaluation_count)
    finally:
        tracer.uninstall()
    assert not hasattr(problems.as_input_vector, "__wrapped__")
    assert not hasattr(problems.ScalarOracle.value, "__wrapped__")
    for runs in by_start.values():
        assert CHECKS.check_shift_equivalence(runs) == []
    assert tracer.events["subproblem.override"] == 0
    return {**counts,
            "model_values": tracer.totals["problems.model_value"][0],
            "model_gradients": tracer.totals["problems.model_gradient"][0],
            "input_checks": tracer.totals["problems.as_input_vector"][0]}


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_traced_counts_match_the_readme_table(name, tmp_path):
    row = r"\| `{}` \| ([\d,]+) \| ([\d,]+) \| ([\d.]+) \| ([\d,]+) \| ([\d.]+) \|"
    iterations, model_calls, model_per_iter, checks, checks_per_iter = figures(
        row.format(re.escape(name)))
    workload = WORKLOADS.WORKLOADS[name]
    got = traced_counts(WORKLOADS.run_list(workload, 1), tmp_path if workload.export else None)
    calls = got["model_values"] + got["model_gradients"]
    n = got["iterations"]
    assert (n, calls, got["input_checks"]) == tuple(
        map(number, (iterations, model_calls, checks)))
    assert (f"{calls / n:.4f}", f"{got['input_checks'] / n:.4f}") == (
        model_per_iter, checks_per_iter)


def test_baseline_counts_match_the_readme_sentences():
    want = figures(r"It takes ([\d,]+) model values, ([\d,]+) model gradients"
                   r" \(one per reference it solved from\) and ([\d,]+) plant probes")
    want += figures(r"baseline run.s ([\d,]+) `as_input_vector` calls?"
                    r" [^()]*\(([\d,]+) iterations, ([\d,]+) accepted\)")
    got = traced_counts([({"start": "baseline", "noisy": False}, BASELINE)])
    names = ("model_values", "model_gradients", "plant_probes", "input_checks",
             "iterations", "accepted")
    assert {k: got[k] for k in names} == dict(zip(names, map(number, want)))


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
