"""Exception types shared across the package."""


class OracleError(RuntimeError):
    """An oracle produced a non-finite value or could not be evaluated."""


class ConfigError(ValueError):
    """A run configuration failed validation; the message names the field."""


def require(condition: bool, field: str, reason: str) -> None:
    """Raise a ConfigError naming ``field`` unless ``condition`` holds."""
    if not condition:
        raise ConfigError(f"field {field!r}: {reason}")
