"""Run configuration: a flat, diffable JSON document per experiment.

A config file holds either a single object or an array of objects.  Every
field is validated at load time and violations are reported with the
offending field's name; unspecified fields take the module defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

from .drivers import RunTrace, StoppingCriteria, run_basic_ma, run_ma_tr, run_trust_region
from .errors import ConfigError
from .problems import get_problem
from .trust_region import TrustRegionConstants

__all__ = ["RunConfig", "load_config", "run_config", "ALGORITHMS"]

ALGORITHMS = ("basic-ma", "trust-region", "ma-tr")
FORMATS = ("csv", "json")


@dataclass
class RunConfig:
    problem: str
    algorithm: str
    u0: list
    delta0: float = 1.0
    eta1: float = 0.1
    eta2: float = 0.9
    gamma1: float = 0.5
    gamma2: float = 0.5
    expansion_factor: float = 2.0
    shrink_factor: float = 0.5
    radius_max: float | None = None
    alpha: float = 1.0
    noise_level: float = 0.0
    seed: int = 0
    tolerance: float = 1e-6
    max_iterations: int = 500
    max_plant_evaluations: int = 10_000
    shift_enabled: bool = False
    subproblem_budget: int = 200
    box_halfwidth: float = 1e6
    output: str | None = None
    format: str = "csv"

    def constants(self) -> TrustRegionConstants:
        return TrustRegionConstants(
            eta1=self.eta1,
            eta2=self.eta2,
            gamma1=self.gamma1,
            gamma2=self.gamma2,
            expansion_factor=self.expansion_factor,
            shrink_factor=self.shrink_factor,
            radius_max=math.inf if self.radius_max is None else self.radius_max,
        )

    def stopping(self) -> StoppingCriteria:
        return StoppingCriteria(
            tolerance=self.tolerance,
            max_iterations=self.max_iterations,
            max_plant_evaluations=self.max_plant_evaluations,
        )


def _require(condition: bool, field_name: str, reason: str):
    if not condition:
        raise ConfigError(f"field {field_name!r}: {reason}")


def _is_finite(v) -> bool:
    """math.isfinite, false also for an integer too large for a float."""
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _as_float(d, name):
    v = d[name]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"field {name!r}: expected a number, got {v!r}")
    if not _is_finite(v):
        raise ConfigError(f"field {name!r}: must be finite, got {v!r}")
    return float(v)


def _as_int(d, name):
    v = d[name]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"field {name!r}: expected an integer, got {v!r}")
    return int(v)


def config_from_dict(raw: dict, where: str = "config") -> RunConfig:
    """Validate a raw mapping into a RunConfig, naming bad fields."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected an object, got {type(raw).__name__}")
    known = {f.name for f in fields(RunConfig)}
    for key in raw:
        if key not in known:
            raise ConfigError(f"field {key!r}: unknown configuration key")
    for key in ("problem", "algorithm", "u0"):
        _require(key in raw, key, "required field is missing")

    d = dict(raw)
    cfg = {}

    _require(isinstance(d["problem"], str), "problem", "expected a string identifier")
    try:
        problem = get_problem(d["problem"])
    except KeyError as exc:
        raise ConfigError(f"field 'problem': {exc.args[0]}") from None
    cfg["problem"] = d["problem"]

    _require(
        d["algorithm"] in ALGORITHMS,
        "algorithm",
        f"must be one of {', '.join(ALGORITHMS)}; got {d['algorithm']!r}",
    )
    cfg["algorithm"] = d["algorithm"]

    # reject fields the chosen algorithm would silently ignore
    applicability = {
        "delta0": ("trust-region", "ma-tr"),
        "eta1": ("trust-region", "ma-tr"),
        "eta2": ("trust-region", "ma-tr"),
        "gamma1": ("trust-region", "ma-tr"),
        "gamma2": ("trust-region", "ma-tr"),
        "expansion_factor": ("trust-region", "ma-tr"),
        "shrink_factor": ("trust-region", "ma-tr"),
        "radius_max": ("trust-region", "ma-tr"),
        "subproblem_budget": ("trust-region", "ma-tr"),
        "alpha": ("basic-ma", "ma-tr"),
        "shift_enabled": ("ma-tr",),
        "box_halfwidth": ("basic-ma",),
    }
    for key, algorithms in applicability.items():
        _require(
            key not in d or d["algorithm"] in algorithms,
            key,
            f"not applicable to algorithm {d['algorithm']!r} "
            f"(valid for {', '.join(algorithms)})",
        )

    u0 = d["u0"]
    if isinstance(u0, (int, float)) and not isinstance(u0, bool):
        u0 = [u0]
    _require(isinstance(u0, list) and len(u0) > 0, "u0", "expected a non-empty array")
    for x in u0:
        _require(
            isinstance(x, (int, float)) and not isinstance(x, bool) and _is_finite(x),
            "u0",
            f"components must be finite numbers, got {x!r}",
        )
    _require(
        len(u0) == problem.dimension,
        "u0",
        f"length {len(u0)} does not match problem dimension {problem.dimension}",
    )
    cfg["u0"] = [float(x) for x in u0]

    defaults = RunConfig(problem="P1", algorithm="ma-tr", u0=[0.0, 0.0])
    for name in (
        "delta0",
        "eta1",
        "eta2",
        "gamma1",
        "gamma2",
        "expansion_factor",
        "shrink_factor",
        "alpha",
        "noise_level",
        "tolerance",
        "box_halfwidth",
    ):
        cfg[name] = _as_float(d, name) if name in d else getattr(defaults, name)
    for name in ("seed", "max_iterations", "max_plant_evaluations", "subproblem_budget"):
        cfg[name] = _as_int(d, name) if name in d else getattr(defaults, name)

    if "radius_max" in d and d["radius_max"] is not None:
        cfg["radius_max"] = _as_float(d, "radius_max")
    else:
        cfg["radius_max"] = None

    if "shift_enabled" in d:
        _require(isinstance(d["shift_enabled"], bool), "shift_enabled", "expected a boolean")
        cfg["shift_enabled"] = d["shift_enabled"]
    else:
        cfg["shift_enabled"] = False

    if "output" in d and d["output"] is not None:
        _require(isinstance(d["output"], str), "output", "expected a path string")
        cfg["output"] = d["output"]
    else:
        cfg["output"] = None
    if "format" in d:
        _require(
            d["format"] in FORMATS,
            "format",
            f"must be one of {', '.join(FORMATS)}; got {d['format']!r}",
        )
        cfg["format"] = d["format"]
    else:
        cfg["format"] = "csv"

    _require(cfg["delta0"] > 0, "delta0", "must be > 0")
    _require(0 < cfg["eta1"] <= cfg["eta2"] < 1, "eta1", "require 0 < eta1 <= eta2 < 1")
    _require(0 < cfg["gamma1"] <= cfg["gamma2"] < 1, "gamma1", "require 0 < gamma1 <= gamma2 < 1")
    _require(
        cfg["gamma1"] <= cfg["shrink_factor"] <= cfg["gamma2"],
        "shrink_factor",
        "must lie in [gamma1, gamma2]",
    )
    _require(cfg["expansion_factor"] > 1, "expansion_factor", "must be > 1")
    _require(0 < cfg["alpha"] <= 1, "alpha", "must be in (0, 1]")
    _require(cfg["noise_level"] >= 0, "noise_level", "must be >= 0")
    _require(cfg["tolerance"] > 0, "tolerance", "must be > 0")
    _require(cfg["seed"] >= 0, "seed", "must be >= 0")
    _require(cfg["max_iterations"] >= 1, "max_iterations", "must be >= 1")
    _require(cfg["max_plant_evaluations"] >= 1, "max_plant_evaluations", "must be >= 1")
    _require(cfg["subproblem_budget"] >= 1, "subproblem_budget", "must be >= 1")
    _require(cfg["box_halfwidth"] > 0, "box_halfwidth", "must be > 0")
    if cfg["radius_max"] is not None:
        _require(cfg["radius_max"] > 0, "radius_max", "must be > 0")
        _require(cfg["delta0"] <= cfg["radius_max"], "delta0", "must not exceed radius_max")

    return RunConfig(**cfg)


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
        return [config_from_dict(entry, where=f"{path}[{i}]") for i, entry in enumerate(raw)]
    return config_from_dict(raw, where=str(path))


def run_config(cfg: RunConfig) -> RunTrace:
    """Build the problem and execute the configured run."""
    problem = get_problem(cfg.problem, noise_level=cfg.noise_level, seed=cfg.seed)
    if cfg.algorithm == "basic-ma":
        return run_basic_ma(
            problem,
            cfg.u0,
            alpha=cfg.alpha,
            stop=cfg.stopping(),
            box_halfwidth=cfg.box_halfwidth,
            seed=cfg.seed,
        )
    if cfg.algorithm == "trust-region":
        return run_trust_region(
            problem,
            cfg.u0,
            delta0=cfg.delta0,
            constants=cfg.constants(),
            stop=cfg.stopping(),
            subproblem_budget=cfg.subproblem_budget,
        )
    return run_ma_tr(
        problem,
        cfg.u0,
        delta0=cfg.delta0,
        constants=cfg.constants(),
        alpha=cfg.alpha,
        stop=cfg.stopping(),
        shift_enabled=cfg.shift_enabled,
        subproblem_budget=cfg.subproblem_budget,
    )
