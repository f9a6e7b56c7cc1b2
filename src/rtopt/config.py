"""Run configuration: a flat, diffable JSON document per experiment.

A config file holds a single object or an array of objects, and loads
as a list of runs either way.  The schema is :class:`RunConfig`: its
field metadata says which algorithms take each field, and unspecified
fields take its defaults.  Only the keys are checked here.  Every type
and range rule of a value is applied by building the ``RunConfig``, the
rule that an ``output`` path's ``.csv`` or ``.json`` suffix names its
trace format among them; ``check_config`` checks the problem's name and
dimension against the catalog, building no problem.  A violation raises
a :class:`ConfigError` naming the field.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, fields

from .drivers import (
    ALGORITHMS,
    SETTINGS,
    RunConfig,
    RunTrace,
    _check_length,
    run_basic_ma,
    run_ma_tr,
    run_trust_region,
)
from .errors import ConfigError, require
from .problems import get_problem, lookup_problem

__all__ = [
    "RunConfig",
    "load_config",
    "config_from_dict",
    "check_config",
    "run_config",
    "ALGORITHMS",
]


# each field's algorithms, and the fields a config must give
_TAKES = {f.name: f.metadata["algorithms"] for f in fields(RunConfig)}
_REQUIRED = tuple(f.name for f in fields(RunConfig) if f.default is MISSING)


def config_from_dict(raw: dict, where: str = "config") -> RunConfig:
    """A raw mapping as a RunConfig checked against the catalog.  The keys
    are checked here: unknown, missing and inapplicable ones; building the
    RunConfig checks the values."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected an object, got {type(raw).__name__}")
    for key in raw:
        require(key in _TAKES, key, "unknown configuration key")
    for key in _REQUIRED:
        require(key in raw, key, "required field is missing")
    algorithm = raw["algorithm"]
    if algorithm in ALGORITHMS:  # any other value fails RunConfig, naming 'algorithm'
        for key in raw:
            takes = _TAKES[key]
            require(algorithm in takes, key, "not applicable to algorithm {!r} (valid for {})",
                    algorithm, ", ".join(takes))
    return check_config(RunConfig(**raw))


def check_config(cfg: RunConfig) -> RunConfig:
    """Check ``cfg``'s problem name and the length of its ``u0`` against the
    catalog, building no problem; returns ``cfg``."""
    _check_length(cfg, _lookup(cfg)[1])
    return cfg


def _lookup(cfg: RunConfig) -> tuple[str, int]:
    """(short id, dimension) of the problem ``cfg`` names; a name not in
    the catalog raises a ConfigError naming ``problem``."""
    try:
        return lookup_problem(cfg.problem)
    except KeyError as exc:
        raise ConfigError(f"field 'problem': {exc.args[0]}") from None


def load_config(path) -> list[RunConfig]:
    """Parse a config file into a list of RunConfigs, one object being a
    list of one."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise ConfigError(f"cannot parse config {path}: {exc}") from None
    if not isinstance(raw, list):
        return [config_from_dict(raw, where=str(path))]
    if not raw:
        raise ConfigError(f"{path}: expected at least one config, got an empty array")
    return [config_from_dict(entry, where=f"{path}[{i}]") for i, entry in enumerate(raw)]


def run_config(cfg: RunConfig) -> RunTrace:
    """Build the problem and execute the configured run."""
    # get_problem and the drivers are looked up per call, where the benchmark rebinds them
    problem = get_problem(_lookup(cfg)[0], noise_level=cfg.noise_level, seed=cfg.seed)
    driver = {"basic-ma": run_basic_ma, "trust-region": run_trust_region, "ma-tr": run_ma_tr}
    settings = {name: getattr(cfg, name) for name in SETTINGS[cfg.algorithm]}
    return driver[cfg.algorithm](problem, cfg.u0, **settings)
