"""Tests for configuration loading, validation, and dispatch."""

import json
import re
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from rtopt import ConfigError, RunConfig, load_config, run_config
from rtopt.config import config_from_dict
from rtopt.drivers import TERMINATION_STATUSES

README = Path(__file__).resolve().parents[1] / "README.md"


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestLoadConfig:
    def test_minimal_config_fills_defaults(self, tmp_path):
        path = write_config(
            tmp_path, {"problem": "P1", "algorithm": "ma-tr", "u0": [0, 0]}
        )
        cfg = load_config(path)
        assert isinstance(cfg, RunConfig)
        assert cfg.delta0 == 1.0
        assert cfg.eta1 == 0.1
        assert cfg.eta2 == 0.9
        assert cfg.alpha == 1.0
        assert cfg.tolerance == 1e-6
        assert cfg.max_iterations == 500
        assert cfg.seed == 0
        assert cfg.format == "csv"
        assert cfg.output is None

    def test_array_yields_list(self, tmp_path):
        path = write_config(
            tmp_path,
            [
                {"problem": "P1", "algorithm": "ma-tr", "u0": [0, 0]},
                {"problem": "P2", "algorithm": "basic-ma", "u0": [3.0]},
            ],
        )
        configs = load_config(path)
        assert isinstance(configs, list)
        assert [c.problem for c in configs] == ["P1", "P2"]

    def test_array_entry_that_is_not_an_object_is_config_error(self, tmp_path):
        path = write_config(tmp_path, [{"problem": "P1", "algorithm": "ma-tr", "u0": [0, 0]}, 3])
        with pytest.raises(ConfigError, match=re.escape(f"{path}[1]: expected an object, got int")):
            load_config(path)

    def test_parse_error_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="cannot parse"):
            load_config(path)

    def test_integer_past_parser_digit_limit_is_config_error(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(
            '{"problem": "P1", "algorithm": "ma-tr", "u0": [0, 0], "delta0": 1'
            + "0" * 5000
            + "}",
            encoding="utf-8",
        )
        with pytest.raises(ConfigError, match="cannot parse"):
            load_config(path)

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")

    def test_scalar_u0_promoted_for_1d(self, tmp_path):
        path = write_config(tmp_path, {"problem": "P2", "algorithm": "ma-tr", "u0": 3.0})
        assert load_config(path).u0 == [3.0]


class TestValidation:
    def base(self, **overrides):
        d = {"problem": "P1", "algorithm": "ma-tr", "u0": [0, 0]}
        d.update(overrides)
        return d

    def test_eta_ordering_rejected(self):
        with pytest.raises(ConfigError, match="eta1"):
            config_from_dict(self.base(eta1=0.95, eta2=0.9))

    def test_alpha_zero_rejected(self):
        with pytest.raises(ConfigError, match="'alpha'"):
            config_from_dict(self.base(alpha=0))

    def test_alpha_above_one_rejected(self):
        with pytest.raises(ConfigError, match="'alpha'"):
            config_from_dict(self.base(alpha=1.5))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="'delta_zero'"):
            config_from_dict(self.base(delta_zero=2.0))

    def test_unknown_problem_rejected(self):
        with pytest.raises(ConfigError, match="'problem'"):
            config_from_dict(self.base(problem="P9"))

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigError, match="'algorithm'"):
            config_from_dict(self.base(algorithm="newton"))

    def test_missing_required_field(self):
        with pytest.raises(ConfigError, match="'u0'"):
            config_from_dict({"problem": "P1", "algorithm": "ma-tr"})

    def test_u0_dimension_checked(self):
        with pytest.raises(ConfigError, match="dimension"):
            config_from_dict(self.base(u0=[0, 0, 0]))

    def test_u0_must_be_finite_numbers(self):
        with pytest.raises(ConfigError, match="'u0'"):
            config_from_dict(self.base(u0=[0, "x"]))

    def test_negative_noise_rejected(self):
        with pytest.raises(ConfigError, match="'noise_level'"):
            config_from_dict(self.base(noise_level=-0.5))

    def test_nonpositive_delta0_rejected(self):
        with pytest.raises(ConfigError, match="'delta0'"):
            config_from_dict(self.base(delta0=0))

    def test_shrink_factor_outside_open_unit_interval_rejected(self):
        for shrink in (0, 1):
            with pytest.raises(ConfigError, match="'shrink_factor'"):
                config_from_dict(self.base(shrink_factor=shrink))
        assert config_from_dict(self.base(shrink_factor=0.9)).shrink_factor == 0.9

    def test_shift_only_for_ma_tr(self):
        # the shift is the model's, not a setting: no algorithm takes it;
        # the loop always shrinks by shrink_factor, so no interval either
        for key, value in (("shift_enabled", True), ("gamma1", 0.5), ("gamma2", 0.5)):
            for algorithm in ("trust-region", "ma-tr"):
                with pytest.raises(ConfigError, match=f"'{key}': unknown configuration key"):
                    config_from_dict(
                        {"problem": "P1", "algorithm": algorithm, "u0": [0, 0], key: value}
                    )

    def test_inapplicable_fields_rejected(self):
        with pytest.raises(ConfigError, match="'alpha'"):
            config_from_dict(
                {"problem": "P1", "algorithm": "trust-region", "u0": [0, 0], "alpha": 0.5}
            )
        with pytest.raises(ConfigError, match="'delta0'"):
            config_from_dict(
                {"problem": "P2", "algorithm": "basic-ma", "u0": [3.0], "delta0": 2.0}
            )
        with pytest.raises(ConfigError, match="'box_halfwidth'"):
            config_from_dict(
                {"problem": "P1", "algorithm": "ma-tr", "u0": [0, 0], "box_halfwidth": 10.0}
            )

    def test_delta0_capped_by_radius_max(self):
        with pytest.raises(ConfigError, match="'delta0'"):
            config_from_dict(self.base(delta0=5.0, radius_max=2.0))

    def test_bad_format_rejected(self):
        with pytest.raises(ConfigError, match="'format'"):
            config_from_dict(self.base(format="xml"))

    def test_seed_must_be_integer(self):
        with pytest.raises(ConfigError, match="'seed'"):
            config_from_dict(self.base(seed=1.5))

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="'seed'"):
            config_from_dict(self.base(seed=-1))

    @pytest.mark.parametrize(
        "name, value",
        [("u0", [10**400, 0]), ("delta0", 10**400), ("radius_max", 10**400)],
        ids=["u0", "delta0", "radius_max"],
    )
    def test_integer_too_large_for_a_float_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"'{name}'"):
            config_from_dict(self.base(**{name: value}))


class TestRunConfigDispatch:
    def test_ma_tr(self):
        cfg = config_from_dict({"problem": "P1", "algorithm": "ma-tr", "u0": [0, 0]})
        trace = run_config(cfg)
        assert trace.algorithm == "ma-tr"
        assert trace.termination_status == "converged"

    def test_trust_region(self):
        cfg = config_from_dict(
            {"problem": "P1", "algorithm": "trust-region", "u0": [0, 0]}
        )
        trace = run_config(cfg)
        assert trace.algorithm == "trust-region"
        assert trace.termination_status == "converged"

    def test_basic_ma(self):
        cfg = config_from_dict({"problem": "P2", "algorithm": "basic-ma", "u0": [3.0]})
        trace = run_config(cfg)
        assert trace.algorithm == "basic-ma"
        assert trace.termination_status == "unbounded-subproblem"

    def test_overrides_reach_the_run(self):
        cfg = config_from_dict(
            {
                "problem": "P4",
                "algorithm": "ma-tr",
                "u0": [0, 0],
                "max_iterations": 7,
                "tolerance": 1e-3,
            }
        )
        trace = run_config(cfg)
        assert trace.config["max_iterations"] == 7
        assert trace.config["tolerance"] == 1e-3
        assert trace.iterations <= 7


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
        readme = README.read_text(encoding="utf-8")
        section = readme.split("## Configuration reference", 1)[1].split("\n## ", 1)[0]
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
        readme = README.read_text(encoding="utf-8")
        table = readme.split("| status | meaning |", 1)[1].split("\n\n", 1)[0]
        rows = re.findall(r"^\| `([\w-]+)` \|", table, re.MULTILINE)
        assert tuple(rows) == TERMINATION_STATUSES
