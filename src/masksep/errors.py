"""Exception types shared across the package, and the config value checks
that raise one."""

import math
from typing import get_type_hints


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
    must be finite) and lies within ``bound``: a least number, POSITIVE, an
    interval such as "(0, 1]" or a tuple of the allowed strings."""
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
    elif isinstance(bound, str):
        low, high = map(float, bound[1:-1].split(","))
        wanted += f" in {bound}"
        ok = (ok and (low < value if bound[0] == "(" else low <= value)
              and (value < high if bound[-1] == ")" else value <= high))
    elif bound is not None:
        wanted += f" >= {bound}"
        ok = ok and value >= bound
    if not ok:
        raise ConfigError(
            f"{where}config key {key!r} must be {wanted}, got {value!r}"
        )


def check_fields(config, bounds: dict, where: str = "") -> None:
    """check_value on each field of the dataclass ``config``: its declared
    type is its kind, and ``bounds`` must hold its bound."""
    for key, kind in get_type_hints(type(config)).items():
        check_value(key, getattr(config, key), kind, bounds[key], where)
