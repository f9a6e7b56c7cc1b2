"""Run configuration: a flat, diffable JSON document per experiment.

A config file holds either a single object or an array of objects.  The
schema is :class:`RunConfig`: its field types drive parsing here, its
field metadata says which algorithms take each field, and unspecified
fields take its defaults.  Range rules are not repeated here: a parsed
config is checked by building its problem and by ``RunConfig.check``,
which raise a :class:`ConfigError` naming the field.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, fields

from .drivers import (
    ALGORITHMS,
    FORMATS,
    SETTINGS,
    RunConfig,
    RunTrace,
    run_basic_ma,
    run_ma_tr,
    run_trust_region,
)
from .errors import ConfigError, require
from .problems import get_problem

__all__ = [
    "RunConfig",
    "load_config",
    "config_from_dict",
    "check_config",
    "run_config",
    "ALGORITHMS",
    "FORMATS",
]


def _is_finite(v) -> bool:
    """math.isfinite, false also for an integer too large for a float."""
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _as_float(name, v):
    require(_is_number(v), name, f"expected a number, got {v!r}")
    require(_is_finite(v), name, f"must be finite, got {v!r}")
    return float(v)


def _as_int(name, v):
    ok = isinstance(v, int) and not isinstance(v, bool)
    require(ok, name, f"expected an integer, got {v!r}")
    return v


def _as_str(name, v):
    require(isinstance(v, str), name, f"expected a string, got {v!r}")
    return v


def _as_vector(name, v):
    if _is_number(v):
        v = [v]
    require(isinstance(v, list) and len(v) > 0, name, "expected a non-empty array")
    for x in v:
        require(
            _is_number(x) and _is_finite(x), name, f"components must be finite numbers, got {x!r}"
        )
    return [float(x) for x in v]


def _or_none(parse):
    return lambda name, v: None if v is None else parse(name, v)


# RunConfig field annotation -> parser
_PARSERS = {
    "str": _as_str,
    "list": _as_vector,
    "float": _as_float,
    "int": _as_int,
    "float | None": _or_none(_as_float),
    "str | None": _or_none(_as_str),
}

# (name, parser, default, algorithms that take it or None for all, choices)
_SCHEMA = tuple(
    (
        f.name,
        _PARSERS[f.type],
        f.default,
        None if f.metadata["algorithms"] == ALGORITHMS else f.metadata["algorithms"],
        f.metadata["choices"],
    )
    for f in fields(RunConfig)
)
_KNOWN = frozenset(name for name, *_ in _SCHEMA)
_REQUIRED = tuple(name for name, _, default, *_ in _SCHEMA if default is MISSING)


def config_from_dict(raw: dict, where: str = "config") -> RunConfig:
    """Parse a raw mapping into a RunConfig and check it, naming bad fields."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected an object, got {type(raw).__name__}")
    for key in raw:
        require(key in _KNOWN, key, "unknown configuration key")
    for key in _REQUIRED:
        require(key in raw, key, "required field is missing")

    values = {}
    for name, parse, default, algorithms, choices in _SCHEMA:
        if name not in raw:
            values[name] = default
            continue
        # fields come in RunConfig order, so 'algorithm' is checked first
        if algorithms is not None:
            algorithm = values["algorithm"]
            require(
                algorithm in algorithms,
                name,
                f"not applicable to algorithm {algorithm!r} "
                f"(valid for {', '.join(algorithms)})",
            )
        value = parse(name, raw[name])
        if choices is not None:
            require(value in choices, name, f"must be one of {', '.join(choices)}; got {value!r}")
        values[name] = value
    return check_config(RunConfig(**values))


def check_config(cfg: RunConfig) -> RunConfig:
    """Check the ranges of a typed RunConfig: its problem's rules, by
    building the problem, and ``RunConfig.check``; returns ``cfg``."""
    try:
        problem = get_problem(cfg.problem, noise_level=cfg.noise_level, seed=cfg.seed)
    except KeyError as exc:
        raise ConfigError(f"field 'problem': {exc.args[0]}") from None
    require(
        len(cfg.u0) == problem.dimension,
        "u0",
        f"length {len(cfg.u0)} does not match problem dimension {problem.dimension}",
    )
    return cfg.check()


def load_config(path) -> RunConfig | list[RunConfig]:
    """Parse a config file into one RunConfig or a list of them."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise ConfigError(f"cannot parse config {path}: {exc}") from None
    if isinstance(raw, list):
        if not raw:
            raise ConfigError(f"{path}: expected at least one config, got an empty array")
        return [config_from_dict(entry, where=f"{path}[{i}]") for i, entry in enumerate(raw)]
    return config_from_dict(raw, where=str(path))


def run_config(cfg: RunConfig) -> RunTrace:
    """Build the problem and execute the configured run."""
    problem = get_problem(cfg.problem, noise_level=cfg.noise_level, seed=cfg.seed)
    # the drivers are looked up per call, where the benchmark's tracer rebinds them
    driver = {"basic-ma": run_basic_ma, "trust-region": run_trust_region, "ma-tr": run_ma_tr}
    settings = {name: getattr(cfg, name) for name in SETTINGS[cfg.algorithm]}
    return driver[cfg.algorithm](problem, cfg.u0, **settings)
