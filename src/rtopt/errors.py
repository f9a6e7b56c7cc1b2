"""Exception types shared across the package, and the type rules of run
settings: ``as_<type>(name, value)`` returns ``value`` as its Python type
or raises a :class:`ConfigError` naming ``name``.  A number is a real
number that is not a bool, NumPy's real scalars included."""

import math
from numbers import Integral, Real


class OracleError(RuntimeError):
    """An oracle produced a non-finite value or could not be evaluated."""


class ConfigError(ValueError):
    """A run configuration failed validation; the message names the field."""


def require(condition: bool, field: str, reason: str, *args) -> None:
    """Raise a ConfigError naming ``field`` unless ``condition`` holds.
    Given ``args``, the message is ``reason.format(*args)``, built only on
    failure."""
    if not condition:
        raise ConfigError(f"field {field!r}: {reason.format(*args) if args else reason}")


def _is_number(v) -> bool:
    return type(v) is float or (isinstance(v, Real) and not isinstance(v, bool))


def _is_finite(v) -> bool:
    """math.isfinite, false also for an integer too large for a float."""
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def as_float(name: str, v) -> float:
    require(_is_number(v), name, "expected a number, got {!r}", v)
    require(_is_finite(v), name, "must be finite, got {!r}", v)
    return float(v)


def as_int(name: str, v) -> int:
    ok = isinstance(v, Integral) and not isinstance(v, bool)
    require(ok, name, "expected an integer, got {!r}", v)
    return int(v)


def as_str(name: str, v) -> str:
    require(isinstance(v, str), name, "expected a string, got {!r}", v)
    return v


def as_vector(name: str, v) -> tuple:
    """A list, tuple or 1-D NumPy array of finite numbers, or one number,
    as a non-empty tuple of floats."""
    if hasattr(v, "tolist"):  # a NumPy array or scalar
        v = v.tolist()
    if _is_number(v):
        v = [v]
    require(isinstance(v, (list, tuple)) and len(v) > 0, name, "expected a non-empty array")
    for x in v:
        ok = _is_number(x) and _is_finite(x)
        require(ok, name, "components must be finite numbers, got {!r}", x)
    return tuple(float(x) for x in v)


def or_none(rule):
    """``rule``, passing None through."""
    return lambda name, v: None if v is None else rule(name, v)
