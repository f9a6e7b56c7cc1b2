"""Tests for trace export, run summaries, and the command-line interface."""

import gc
import json
import math
import os
from dataclasses import fields
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
        assert list(rec) == [f.name for f in fields(IterationRecord)]

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


def reference_csv_row(r):
    """A record's CSV row, one ``format(float(x), ".17g")`` per number."""

    def fmt(x):
        return format(float(x), ".17g")

    def vector(v):
        return ";".join(fmt(x) for x in np.asarray(v).reshape(-1))

    return ",".join((
        str(r.k), vector(r.applied_input), vector(r.reference),
        fmt(r.plant_value_at_reference), fmt(r.plant_gradient_norm_at_reference),
        "" if r.rho is None else r.rho if r.rho == "degenerate" else fmt(r.rho),
        "" if r.radius is None else fmt(r.radius),
        "true" if r.accepted else "false", "true" if r.cauchy_override else "false",
    ))


def reference_record_dict(r):
    """A record's JSON fields, each converted by its value's type."""

    def convert(name, value):
        if isinstance(value, np.ndarray):
            return value.astype(float, copy=False).tolist()
        if name == "k" or value is None or isinstance(value, (bool, str)):
            return value
        return float(value)

    return {name: convert(name, value) for name, value in vars(r).items()}


class TestRecordRendering:
    """Both exports render each record as the per-value formatting does."""

    def records(self):
        extremes = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308,
                    1.0 / 3.0, -1e16, 0.1]
        for i, x in enumerate(extremes):
            yield IterationRecord(
                k=i, applied_input=np.array([x, -x, 1.0]), reference=np.array([0.5, x, -0.0]),
                plant_value_at_reference=np.float64(x), plant_gradient_norm_at_reference=abs(x),
                rho=(None, "degenerate", x, np.float64(x))[i % 4], radius=(None, x)[i % 2],
                accepted=bool(i % 2), cauchy_override=not i % 3,
                modifiers=np.array([x, 2.0, -x]),
            )
        for trace in (small_trace(), degenerate_trace(), run_basic_ma(get_problem("P2"), [3.0])):
            yield from trace.records

    def test_csv_rows_match_the_per_value_formatting(self, tmp_path):
        for r in self.records():
            trace = RunTrace("custom", "ma-tr", {}, [r], "max-iterations", 1, 1,
                             np.array([0.0]), 0.0, 1.0)
            row = export_trace(trace, "csv", tmp_path / "t.csv").read_text().splitlines()[1]
            assert row == reference_csv_row(r)

    def test_json_records_match_the_per_value_conversion(self):
        for r in self.records():
            trace = RunTrace("custom", "ma-tr", {}, [r], "max-iterations", 1, 1,
                             np.array([0.0]), 0.0, 1.0)
            got = trace_to_dict(trace)["records"][0]
            want = reference_record_dict(r)
            assert json.dumps(got) == json.dumps(want)
            assert [type(v) for v in got.values()] == [type(v) for v in want.values()]

    def test_exports_write_the_reference_bytes(self, tmp_path):
        records = list(self.records())
        trace = RunTrace("custom", "ma-tr", {"u0": [0.0]}, records, "max-iterations", 1, 1,
                         np.array([-0.0]), np.float64(math.nan), math.inf)
        csv_bytes = export_trace(trace, "csv", tmp_path / "t.csv").read_bytes()
        rows = [",".join(CSV_COLUMNS), *map(reference_csv_row, records)]
        assert csv_bytes == ("\n".join(rows) + "\n").encode()
        json_bytes = export_trace(trace, "json", tmp_path / "t.json").read_bytes()
        assert json_bytes == (json.dumps(trace_to_dict(trace)) + "\n").encode()


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


def expected_bytes(kind, trace):
    """The bytes an export of ``trace`` must hold, rendered independently."""
    if kind == "csv":
        rows = [",".join(CSV_COLUMNS), *map(reference_csv_row, trace.records)]
    elif kind == "json":
        return (json.dumps(trace_to_dict(trace)) + "\n").encode()
    else:
        rows = [
            "problem,algorithm,status,iterations,plant_evals,final_grad_norm,final_plant_value",
            ",".join([trace.problem_id, trace.algorithm, trace.termination_status,
                      str(trace.iterations), str(trace.plant_evaluation_count),
                      format(trace.final_gradient_norm, ".6g"),
                      format(trace.final_plant_value, ".6g")]),
        ]
    return ("\n".join(rows) + "\n").encode()


def write_output(kind, trace, path):
    if kind == "summary":
        summarize([trace], csv_path=path)
    else:
        export_trace(trace, kind, path)


class TestInPlaceWrite:
    """A file is rewritten in place: every old byte past the new payload
    is trimmed, and the open never truncates."""

    @pytest.mark.parametrize("kind", ["csv", "json", "summary"])
    @pytest.mark.parametrize("old_size", ["new", "longer", "shorter", "equal"])
    def test_rewrite_holds_exactly_the_payload(self, tmp_path, kind, old_size):
        trace = small_trace()
        want = expected_bytes(kind, trace)
        path = tmp_path / ("out.json" if kind == "json" else "out.csv")
        old = {"longer": len(want) + 4096, "shorter": 7, "equal": len(want)}.get(old_size)
        if old is not None:
            path.write_bytes(b"#" * old)
        write_output(kind, trace, path)
        assert path.read_bytes() == want

    @pytest.mark.parametrize("kind", ["csv", "json", "summary"])
    def test_rewrite_opens_without_truncation(self, tmp_path, monkeypatch, kind):
        trace = small_trace()
        path = tmp_path / ("out.json" if kind == "json" else "out.csv")
        path.write_bytes(b"#" * 10_000)
        flags, real_open = [], os.open

        def recording_open(file, flag, *args, **kwargs):
            flags.append(flag)
            return real_open(file, flag, *args, **kwargs)

        monkeypatch.setattr(os, "open", recording_open)
        write_output(kind, trace, path)
        monkeypatch.undo()
        assert flags and not any(flag & os.O_TRUNC for flag in flags)
        assert path.read_bytes() == expected_bytes(kind, trace)

    @pytest.mark.parametrize("kind", ["csv", "json", "summary"])
    def test_short_writes_are_continued(self, tmp_path, monkeypatch, kind):
        trace = small_trace()
        path = tmp_path / ("out.json" if kind == "json" else "out.csv")
        real_write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, bytes(data[:100])))
        write_output(kind, trace, path)
        monkeypatch.undo()
        assert path.read_bytes() == expected_bytes(kind, trace)

    def test_new_file_gets_the_default_permissions(self, tmp_path):
        plain = tmp_path / "plain.csv"
        plain.write_text("")
        written = export_trace(small_trace(), "csv", tmp_path / "t.csv")
        assert written.stat().st_mode == plain.stat().st_mode

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
    @pytest.mark.parametrize("kind", ["csv", "json", "summary"])
    def test_device_is_written_and_never_trimmed(self, kind):
        write_output(kind, small_trace(), "/dev/null")


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

    @pytest.mark.parametrize("suffix", ["csv", "json"])
    def test_output_suffix_names_the_trace_format(self, tmp_path, capsys, suffix):
        # a config's output path and the same suffix given as --output write the same bytes
        out, flagged = tmp_path / f"t.{suffix}", tmp_path / f"flagged.{suffix}"
        raw = {"problem": "P1", "algorithm": "ma-tr", "u0": [0, 0]}
        assert main(["run", str(write_config(tmp_path, {**raw, "output": str(out)}))]) == 0
        assert main(["run", str(write_config(tmp_path, raw, "raw.json")), "--output",
                     str(flagged)]) == 0
        text = out.read_text(encoding="utf-8")
        if suffix == "json":
            assert json.loads(text)["config"]["problem"] == "P1"
        else:
            assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
        assert flagged.read_bytes() == out.read_bytes()

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

    def test_compare_rejects_a_summary_path_not_ending_in_csv(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        config = str(ROOT / "configs" / "p2_compare.json")
        assert main(["compare", config, "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert "'output'" in captured.err and ".csv" in captured.err
        assert captured.out == ""  # nothing ran
        assert not out.exists()

    def test_reproducible_trace_files(self, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        payload = {
            "problem": "P1",
            "algorithm": "ma-tr",
            "u0": [0, 0],
            "noise_level": 0.05,
            "seed": 11,
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
