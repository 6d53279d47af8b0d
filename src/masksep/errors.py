"""Exception types shared across the package, and the config-file value
check that raises one."""


class ConfigError(ValueError):
    """A configuration value violates a documented invariant."""


class NonFiniteGradientError(RuntimeError):
    """An optimizer step received NaN/inf gradients; the step was aborted."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or reward; the run was aborted."""


_FIELD_KINDS = {
    "float": ((int, float), "a number"),
    "int": ((int,), "an integer"),
    "bool": ((bool,), "true or false"),
    "str": ((str,), "a string"),
}


def check_field_types(cls, values: dict, where: str = "") -> None:
    """ConfigError naming the key when a value in ``values`` does not have
    the type of the dataclass field of ``cls`` it sets."""
    for key, value in values.items():
        kinds, wanted = _FIELD_KINDS[cls.__dataclass_fields__[key].type]
        # bool subclasses int, so JSON true/false must be ruled out for
        # numbers and in for booleans explicitly
        is_bool = isinstance(value, bool)
        if not isinstance(value, kinds) or is_bool != (kinds == (bool,)):
            raise ConfigError(
                f"{where}config key {key!r} must be {wanted}, got {value!r}"
            )
