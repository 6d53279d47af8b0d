"""Exception types shared across the package, and the config value check
that raises one."""

import math


class ConfigError(ValueError):
    """A configuration value violates a documented invariant."""


class NonFiniteGradientError(RuntimeError):
    """An optimizer step received NaN/inf gradients; the step was aborted."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or reward; the run was aborted."""


_KINDS = {
    bool: "true or false",
    int: "an integer",
    float: "a number",
    str: "a string",
    dict: "a JSON object",
}

POSITIVE = "a positive finite number"


def check_value(key: str, value, default, bound=None, where: str = "") -> None:
    """ConfigError naming ``key`` unless ``value`` has the kind of
    ``default`` (a type stands in for a key with no default value; a number
    must be finite) and lies within ``bound``: a least number, POSITIVE, or
    a tuple of the allowed strings."""
    kind = default if isinstance(default, type) else type(default)
    wanted = _KINDS[kind]
    # bool subclasses int, so JSON true/false must be ruled out for numbers
    ok = (isinstance(value, (int, float) if kind is float else kind)
          and (kind is bool or not isinstance(value, bool)))
    if ok and kind is float:
        # JSON has no NaN or Infinity, though Python's reader takes them
        ok = -math.inf < value < math.inf
    if isinstance(bound, tuple):
        if ok and value not in bound:
            raise ConfigError(f"{where}unknown {key} {value!r}, expected one "
                              f"of {', '.join(bound)}")
    elif bound == POSITIVE:
        wanted = POSITIVE
        ok = ok and value > 0
    elif bound is not None:
        wanted += f" >= {bound}"
        ok = ok and value >= bound
    if not ok:
        raise ConfigError(
            f"{where}config key {key!r} must be {wanted}, got {value!r}"
        )
