"""Tests for configuration loading, validation, and dispatch."""

import argparse
import json
import math
import re
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from rtopt import (
    ConfigError,
    ProblemPair,
    RunConfig,
    ScalarOracle,
    get_problem,
    load_config,
    run_config,
    run_ma_tr,
)
from rtopt.cli import _apply_overrides, main
from rtopt.config import check_config, config_from_dict


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestLoadConfig:
    def test_minimal_config_fills_defaults(self, tmp_path):
        path = write_config(
            tmp_path, {"problem": "P1", "algorithm": "ma-tr", "u0": [0, 0]}
        )
        [cfg] = load_config(path)
        assert isinstance(cfg, RunConfig)
        assert cfg.delta0 == 1.0
        assert cfg.eta1 == 0.1
        assert cfg.eta2 == 0.9
        assert cfg.alpha == 1.0
        assert cfg.tolerance == 1e-6
        assert cfg.max_iterations == 500
        assert cfg.seed == 0
        assert cfg.output is None
        assert cfg.format is None

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
        [cfg] = load_config(path)
        assert cfg.u0 == (3.0,)


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

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigError, match="'algorithm'"):
            config_from_dict(self.base(algorithm="newton"))

    def test_missing_required_field(self):
        with pytest.raises(ConfigError, match="'u0'"):
            config_from_dict({"problem": "P1", "algorithm": "ma-tr"})

    def test_u0_must_be_finite_numbers(self):
        with pytest.raises(ConfigError, match="'u0'"):
            config_from_dict(self.base(u0=[0, "x"]))

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

    @pytest.mark.parametrize(
        "name, value",
        [("u0", [10**400, 0]), ("delta0", 10**400), ("radius_max", 10**400)],
        ids=["u0", "delta0", "radius_max"],
    )
    def test_integer_too_large_for_a_float_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"'{name}'"):
            config_from_dict(self.base(**{name: value}))


BASE = {"problem": "P1", "algorithm": "ma-tr", "u0": [0.0, 0.0]}


def _message(call) -> str:
    with pytest.raises(ConfigError) as info:
        call()
    return str(info.value)


# (field, value): each is rejected alone, with one message, by every entry point
SINGLE_FIELD_ERRORS = [
    ("problem", "P9"),
    ("problem", ["P1"]),
    ("noise_level", -0.5),
    ("noise_level", math.nan),
    ("noise_level", True),
    ("noise_level", "0.1"),
    ("seed", -1),
    ("seed", 1.5),
    ("seed", True),
    ("u0", [0.0, 0.0, 0.0]),
]


@pytest.mark.parametrize(
    "name, value", SINGLE_FIELD_ERRORS, ids=[f"{n}={v!r}" for n, v in SINGLE_FIELD_ERRORS]
)
def test_a_bad_field_is_one_config_error_from_every_entry_point(name, value):
    """A config file, a CLI override of a loaded config, a hand-built
    config's run and a driver call on a catalog pair apply one rule set.
    A pair cannot carry a bad name, so the driver call skips ``problem``:
    ``get_problem`` raises a KeyError with the same text."""
    raw = {**BASE, name: value}
    messages = {
        "config file": _message(lambda: config_from_dict(raw)),
        "override": _message(lambda: check_config(replace(config_from_dict(BASE), **{name: value}))),
        "hand-built run": _message(lambda: run_config(RunConfig(**raw))),
    }
    if name == "problem":
        if isinstance(value, str):
            with pytest.raises(KeyError) as info:
                get_problem(value)
            messages["catalog"] = f"field 'problem': {info.value.args[0]}"
    else:
        noise = {k: raw[k] for k in ("noise_level", "seed") if k in raw}
        messages["driver"] = _message(lambda: run_ma_tr(get_problem("P1", **noise), raw["u0"]))
    assert all(m.startswith(f"field '{name}': ") for m in messages.values()), messages
    assert len(set(messages.values())) == 1, messages


@pytest.fixture
def built(monkeypatch):
    """Counts of the ScalarOracles, ProblemPairs and generators built."""
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for cls in (ScalarOracle, ProblemPair):
        monkeypatch.setattr(cls, "__init__", counted(cls.__name__, cls.__init__))
    monkeypatch.setattr(np.random, "default_rng", counted("generator", np.random.default_rng))
    return counts


def test_checking_builds_no_problem_and_a_run_builds_one(tmp_path, capsys, built):
    noisy = {"problem": "P4", "u0": [0.0, 0.0], "noise_level": 0.02, "seed": 3}
    raw = [{**noisy, "algorithm": a} for a in ("basic-ma", "trust-region", "ma-tr")]
    path = write_config(tmp_path, raw)
    configs = load_config(path)
    check_config(config_from_dict(raw[0]))
    assert main(["check", str(path)]) == 0
    overrides = argparse.Namespace(seed=5, max_iterations=3, tolerance=1e-3)
    configs = [_apply_overrides(cfg, overrides) for cfg in configs]
    assert built == Counter()
    for runs, cfg in enumerate(configs, 1):
        run_config(cfg)
        assert built == Counter(ScalarOracle=2 * runs, ProblemPair=runs, generator=runs)


# (key, value): each is rejected, naming its key, by every entry point that takes it
OUTPUT_ERRORS = [("output", "t.txt"), ("output", "t"), ("output", "t.CSV"), ("format", "json")]


@pytest.mark.parametrize("key, value", OUTPUT_ERRORS, ids=[f"{k}={v!r}" for k, v in OUTPUT_ERRORS])
def test_an_output_names_its_format_from_every_entry_point(tmp_path, capsys, built, key, value):
    """An output path must end in exactly .csv or .json, and a format key is
    unknown: a config mapping, an override of a loaded config, ``rtopt
    check`` and ``rtopt run --output`` give one message, building no
    problem.  An override sets fields, so it has no format key to set."""
    raw = {**BASE, key: value}
    path = write_config(tmp_path, raw)
    messages = {"config file": _message(lambda: config_from_dict(raw))}
    if key == "output":
        messages["override"] = _message(
            lambda: check_config(replace(config_from_dict(BASE), output=value))
        )
        run = ["run", str(write_config(tmp_path, BASE, "base.json")), "--output", value]
    else:
        run = ["run", str(path), "--output", "t.json"]
    for verb, argv in {"check": ["check", str(path)], "run": run}.items():
        assert main(argv) == 1
        err = capsys.readouterr().err
        messages[f"rtopt {verb}"] = err.removeprefix("configuration error: ").rstrip("\n")
    assert all(m.startswith(f"field '{key}': ") for m in messages.values()), messages
    assert len(set(messages.values())) == 1, messages
    assert built == Counter()


class TestRunConfigIsValidOnceBuilt:
    """Building or replacing a RunConfig applies every rule, and a built
    one cannot change, so nothing downstream checks it again."""

    def test_building_applies_the_range_rules(self):
        with pytest.raises(ConfigError, match=r"^field 'delta0': "):
            RunConfig(problem="P1", algorithm="ma-tr", u0=[0, 0], delta0=-1.0)

    def test_replace_applies_the_range_rules(self):
        cfg = RunConfig(problem="P1", algorithm="ma-tr", u0=[0, 0])
        with pytest.raises(ConfigError, match=r"^field 'eta1': "):
            replace(cfg, eta1=0.95, eta2=0.9)

    @pytest.mark.parametrize(
        "algorithm, name, value, other",
        [
            ("ma-tr", "alpha", 0.5, "trust-region"),
            ("ma-tr", "delta0", 2.0, "basic-ma"),
            ("ma-tr", "radius_max", 5.0, "basic-ma"),
            ("basic-ma", "box_halfwidth", 10.0, "ma-tr"),
        ],
    )
    def test_a_setting_the_algorithm_ignores_is_rejected(self, algorithm, name, value, other):
        # hand-built or replaced, as a config file's key is: no run ignores a setting
        message = rf"^field '{name}': not applicable to algorithm '{other}' \(valid for "
        with pytest.raises(ConfigError, match=message):
            RunConfig(problem="P4", algorithm=other, u0=(0.0, 0.0), **{name: value})
        cfg = RunConfig(problem="P4", algorithm=algorithm, u0=(0.0, 0.0), **{name: value})
        with pytest.raises(ConfigError, match=message):
            replace(cfg, algorithm=other)

    def test_a_config_of_defaults_replaces_its_algorithm(self):
        cfg = RunConfig(problem="P1", algorithm="ma-tr", u0=(0.0, 0.0))
        for algorithm in ("basic-ma", "trust-region", "ma-tr"):
            raw = {"problem": "P1", "algorithm": algorithm, "u0": [0.0, 0.0]}
            assert replace(cfg, algorithm=algorithm) == config_from_dict(raw)

    def test_replace_reads_through_the_type_rules(self):
        cfg = replace(RunConfig(problem="P1", algorithm="ma-tr", u0=(0, 1)), seed=np.int64(4))
        assert cfg.u0 == (0.0, 1.0) and type(cfg.seed) is int

    @pytest.mark.parametrize("name", [f.name for f in fields(RunConfig)])
    def test_every_field_is_frozen(self, name):
        cfg = RunConfig(problem="P1", algorithm="ma-tr", u0=[0, 0])
        with pytest.raises(FrozenInstanceError):
            setattr(cfg, name, getattr(cfg, name))

    def test_u0_is_a_tuple_of_floats(self):
        # a frozen config holds nothing that changes in place; the trace records a list
        for u0 in ([0, 1], (0, 1), np.array([0.0, 1.0])):
            cfg = RunConfig(problem="P1", algorithm="ma-tr", u0=u0)
            assert type(cfg.u0) is tuple and all(type(x) is float for x in cfg.u0)
            with pytest.raises(TypeError):
                cfg.u0[0] = "x"
        assert run_config(cfg).config["u0"] == [0.0, 1.0]

    def test_there_is_no_separate_check(self):
        assert not hasattr(RunConfig, "check")


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
