"""Tests for trace export, run summaries, and the command-line interface."""

import gc
import json
from pathlib import Path

import numpy as np
import pytest

from rtopt import (
    export_trace,
    get_problem,
    load_config,
    run_basic_ma,
    run_ma_tr,
    summarize,
    trace_to_dict,
)
from rtopt.cli import main
from rtopt.drivers import IterationRecord, RunTrace
from rtopt.reporting import CSV_COLUMNS


def small_trace():
    return run_ma_tr(get_problem("P4"), [0.0, 0.0], max_iterations=3)


def degenerate_trace():
    # a vanishing initial radius makes every predicted decrease vanish
    return run_ma_tr(get_problem("P1"), [0.0, 0.0], delta0=1e-16, max_iterations=3)


class TestCsvExport:
    def test_header_and_row_count(self, tmp_path):
        trace = small_trace()
        path = export_trace(trace, "csv", tmp_path / "t.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + trace.iterations == 4

    def test_vector_cells_are_semicolon_joined(self, tmp_path):
        trace = small_trace()
        path = export_trace(trace, "csv", tmp_path / "t.csv")
        first_row = path.read_text().splitlines()[1].split(",")
        applied = first_row[1].split(";")
        assert len(applied) == 2
        assert float(applied[0]) == trace.records[0].applied_input[0]

    def test_degenerate_rho_literal(self, tmp_path):
        trace = degenerate_trace()
        assert trace.records, "expected at least one iteration"
        assert all(r.rho == "degenerate" for r in trace.records)
        path = export_trace(trace, "csv", tmp_path / "t.csv")
        row = path.read_text().splitlines()[1].split(",")
        assert row[5] == "degenerate"

    def test_not_applicable_fields_are_empty(self, tmp_path):
        trace = run_basic_ma(get_problem("P1"), [0.0, 0.0])
        path = export_trace(trace, "csv", tmp_path / "t.csv")
        row = path.read_text().splitlines()[1].split(",")
        assert row[5] == ""  # rho
        assert row[6] == ""  # radius

    def test_deterministic_bytes(self, tmp_path):
        trace = small_trace()
        a = export_trace(trace, "csv", tmp_path / "a.csv").read_bytes()
        b = export_trace(trace, "csv", tmp_path / "b.csv").read_bytes()
        assert a == b

    def test_17_digit_rendering(self, tmp_path):
        record = IterationRecord(
            k=0,
            applied_input=np.array([1.0 / 3.0]),
            reference=np.array([0.0]),
            plant_value_at_reference=2.0 / 3.0,
            plant_gradient_norm_at_reference=1.0,
            rho=0.1 + 0.2,
            radius=1.0,
            accepted=True,
            cauchy_override=False,
            modifiers=np.array([0.0]),
        )
        trace = RunTrace(
            problem_id="custom",
            algorithm="ma-tr",
            config={},
            records=[record],
            termination_status="max-iterations",
            plant_value_evaluations=1,
            plant_gradient_evaluations=1,
            final_reference=np.array([0.0]),
            final_plant_value=0.0,
            final_gradient_norm=1.0,
        )
        path = export_trace(trace, "csv", tmp_path / "t.csv")
        row = path.read_text().splitlines()[1].split(",")
        assert row[1] == "0.33333333333333331"
        assert float(row[5]) == 0.1 + 0.2

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            export_trace(small_trace(), "xml", tmp_path / "t.xml")

    def test_io_failure_reports_path(self, tmp_path):
        target = tmp_path / "missing-dir" / "t.csv"
        with pytest.raises(OSError, match="missing-dir"):
            export_trace(small_trace(), "csv", target)


class TestJsonExport:
    def test_round_trip_is_bit_exact(self, tmp_path):
        trace = small_trace()
        path = export_trace(trace, "json", tmp_path / "t.json")
        loaded = json.loads(path.read_text())
        reference = trace_to_dict(trace)
        assert loaded == reference  # exact, including every float
        for rec, orig in zip(loaded["records"], trace.records):
            assert rec["plant_value_at_reference"] == orig.plant_value_at_reference
            assert rec["applied_input"] == [float(x) for x in orig.applied_input]

    def test_export_leaves_no_cyclic_garbage(self, tmp_path):
        # the benchmark freezes what the collector has not yet freed, so
        # garbage left by an export would accumulate there
        trace = small_trace()
        gc.collect()
        gc.disable()
        try:
            export_trace(trace, "json", tmp_path / "t.json")
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_record_field_names(self, tmp_path):
        trace = small_trace()
        path = export_trace(trace, "json", tmp_path / "t.json")
        rec = json.loads(path.read_text())["records"][0]
        assert set(rec) == {
            "k",
            "applied_input",
            "reference",
            "plant_value_at_reference",
            "plant_gradient_norm_at_reference",
            "rho",
            "radius",
            "accepted",
            "cauchy_override",
            "modifiers",
        }

    def test_degenerate_and_na_encodings(self, tmp_path):
        deg = json.loads(
            export_trace(degenerate_trace(), "json", tmp_path / "d.json").read_text()
        )
        assert deg["records"][0]["rho"] == "degenerate"
        ma = json.loads(
            export_trace(
                run_basic_ma(get_problem("P1"), [0.0, 0.0]), "json", tmp_path / "m.json"
            ).read_text()
        )
        assert ma["records"][0]["rho"] is None
        assert ma["records"][0]["radius"] is None


class TestSummarize:
    def test_single_trace_single_row(self):
        text = summarize([small_trace()])
        lines = text.splitlines()
        assert len(lines) == 3  # header, rule, one row
        assert "P4" in lines[2]

    def test_divergence_vs_convergence_comparison(self):
        plain = run_basic_ma(get_problem("P2"), [3.0])
        safeguarded = run_ma_tr(get_problem("P2"), [3.0])
        text = summarize([plain, safeguarded])
        assert "unbounded-subproblem" in text
        assert "converged" in text

    def test_optional_csv(self, tmp_path):
        out = tmp_path / "summary.csv"
        summarize([small_trace()], csv_path=out)
        lines = out.read_text().splitlines()
        assert lines[0].startswith("problem,algorithm,status")
        assert len(lines) == 2

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            summarize([])


ROOT = Path(__file__).resolve().parents[1]


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestCli:
    def test_run_writes_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        path = write_config(
            tmp_path,
            {
                "problem": "P1",
                "algorithm": "ma-tr",
                "u0": [0, 0],
                "output": str(out),
            },
        )
        assert main(["run", str(path)]) == 0
        assert out.exists()
        captured = capsys.readouterr().out
        assert "converged" in captured
        assert str(out) in captured

    def test_run_overrides(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        path = write_config(
            tmp_path, {"problem": "P4", "algorithm": "ma-tr", "u0": [0, 0]}
        )
        code = main(
            [
                "run",
                str(path),
                "--output",
                str(out),
                "--format",
                "json",
                "--max-iter",
                "5",
                "--tol",
                "0.001",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["max_iterations"] == 5
        assert payload["config"]["tolerance"] == 0.001
        assert payload["config"]["seed"] == 3
        assert len(payload["records"]) <= 5

    def test_run_rejects_batch_config(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            [
                {"problem": "P1", "algorithm": "ma-tr", "u0": [0, 0]},
                {"problem": "P2", "algorithm": "ma-tr", "u0": [3.0]},
            ],
        )
        assert main(["run", str(path)]) == 1
        assert "compare" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha, notes", [(1.0, []), (0.5, ["note: no convergence guarantee"])])
    def test_run_takes_an_array_holding_one_config(self, tmp_path, capsys, alpha, notes):
        path = write_config(
            tmp_path, [{"problem": "P1", "algorithm": "ma-tr", "u0": [0, 0], "alpha": alpha}]
        )
        assert main(["run", str(path)]) == 0
        summary, *rest = capsys.readouterr().out.splitlines()
        assert summary.startswith("P1 ma-tr: ")
        assert rest == notes

    @pytest.mark.parametrize("command", ["run", "compare", "check"])
    def test_empty_config_array_exits_1(self, tmp_path, capsys, command):
        path = write_config(tmp_path, [])
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert f"{path}: expected at least one config" in captured.err
        assert captured.out == ""

    def test_invalid_config_exits_1(self, tmp_path, capsys):
        path = write_config(
            tmp_path, {"problem": "P1", "algorithm": "ma-tr", "u0": [0, 0], "alpha": 0}
        )
        assert main(["run", str(path)]) == 1
        assert "alpha" in capsys.readouterr().err

    def test_negative_seed_override_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path, {"problem": "P1", "algorithm": "basic-ma", "u0": [0, 0]})
        assert main(["run", str(path), "--seed", "-1"]) == 1
        assert "'seed'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["run", "--tol", "inf"], "tolerance"),
            (["run", "--tol", "nan"], "tolerance"),
            (["run", "--max-iter", "0"], "max_iterations"),
            (["compare", "--tol", "inf"], "tolerance"),
        ],
        ids=["run-tol-inf", "run-tol-nan", "run-max-iter-0", "compare-tol-inf"],
    )
    def test_out_of_range_override_exits_1(self, tmp_path, capsys, argv, name):
        # overrides go through the rules a config file's fields go through
        path = write_config(tmp_path, {"problem": "P1", "algorithm": "ma-tr", "u0": [0, 0]})
        assert main([argv[0], str(path), *argv[1:]]) == 1
        captured = capsys.readouterr()
        assert f"'{name}'" in captured.err
        assert captured.out == ""

    def test_stalled_run_exits_0(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {
                "problem": "P1",
                "algorithm": "trust-region",
                "u0": [0, 0],
                "noise_level": 0.02,
                "seed": 1,
                "max_iterations": 5000,
            },
        )
        assert main(["run", str(path)]) == 0
        assert "stalled" in capsys.readouterr().out

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {
                "problem": "P1",
                "algorithm": "ma-tr",
                "u0": [0, 0],
                "output": str(tmp_path / "no-such-dir" / "t.csv"),
            },
        )
        assert main(["run", str(path)]) == 2
        assert "runtime failure" in capsys.readouterr().err

    def test_check_valid_and_invalid(self, tmp_path, capsys):
        good = write_config(
            tmp_path, {"problem": "P1", "algorithm": "ma-tr", "u0": [0, 0]}, "good.json"
        )
        assert main(["check", str(good)]) == 0
        assert "1 config(s) valid" in capsys.readouterr().out
        bad = write_config(
            tmp_path,
            {"problem": "P1", "algorithm": "ma-tr", "u0": [0, 0], "eta1": 2.0},
            "bad.json",
        )
        assert main(["check", str(bad)]) == 1
        big = write_config(
            tmp_path,
            {"problem": "P1", "algorithm": "ma-tr", "u0": [0, 0], "delta0": 10**400},
            "big.json",
        )
        capsys.readouterr()
        assert main(["check", str(big)]) == 1
        assert "'delta0'" in capsys.readouterr().err

    def test_list_problems(self, capsys):
        assert main(["list-problems"]) == 0
        out = capsys.readouterr().out
        for pid in ("P1", "P2", "P3", "P4"):
            assert pid in out
        assert "rosenbrock-plant" in out

    def test_compare_prints_table(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            [
                {"problem": "P2", "algorithm": "basic-ma", "u0": [3.0]},
                {"problem": "P2", "algorithm": "ma-tr", "u0": [3.0]},
            ],
        )
        assert main(["compare", str(path)]) == 0
        out = capsys.readouterr().out
        assert "unbounded-subproblem" in out
        assert "converged" in out

    def test_compare_output_is_summary_not_trace(self, tmp_path):
        trace_out = tmp_path / "p2_trace.csv"
        summary_out = tmp_path / "summary.csv"
        path = write_config(
            tmp_path,
            [
                {
                    "problem": "P2",
                    "algorithm": "ma-tr",
                    "u0": [3.0],
                    "output": str(trace_out),
                },
                {"problem": "P2", "algorithm": "basic-ma", "u0": [3.0]},
            ],
        )
        assert main(["compare", str(path), "--output", str(summary_out)]) == 0
        assert trace_out.exists()  # per-config trace path untouched by --output
        lines = summary_out.read_text().splitlines()
        assert lines[0].startswith("problem,algorithm,status")
        assert len(lines) == 3

    def test_reproducible_trace_files(self, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        payload = {
            "problem": "P1",
            "algorithm": "ma-tr",
            "u0": [0, 0],
            "noise_level": 0.05,
            "seed": 11,
            "format": "json",
        }
        path = write_config(tmp_path, payload)
        assert main(["run", str(path), "--output", str(out_a)]) == 0
        assert main(["run", str(path), "--output", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()


class TestCommittedConfigs:
    @pytest.mark.parametrize(
        "path", sorted((ROOT / "configs").glob("*.json")), ids=lambda path: path.name
    )
    def test_committed_config_loads(self, path):
        load_config(path)

    def test_compare_prints_the_readme_block(self, capsys):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        intro = "`rtopt compare configs/p2_compare.json` prints the motivating contrast:"
        block = readme.split(intro, 1)[1].split("```")[1]
        assert main(["compare", str(ROOT / "configs" / "p2_compare.json")]) == 0
        assert capsys.readouterr().out == block.lstrip("\n")
