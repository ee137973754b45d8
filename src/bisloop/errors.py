"""Exception types shared across the package, and the rules of its checks.

The number rule is stated here once: a checked number is a real number and
not a bool (is_number), lies within the float range (NaN, infinity and an
integer beyond the float range fail), and meets its rule, "positive" (> 0),
"non_negative" (>= 0) or None (no range test).  number_error says what a
value fails; require raises it for a dataclass's fields.  An integer is an
int and not a bool (is_integer).
"""

import sys
from numbers import Real

# What a number must be, by rule: number_error's answer when it fails.
_WANT = {None: "finite", "positive": "finite and positive", "non_negative": "finite and >= 0"}


def is_number(value) -> bool:
    """A real number and not a bool.  A float or int passes before the Real
    test, which costs some 20 times as much."""
    return type(value) in (float, int) or isinstance(value, Real) and not isinstance(value, bool)


def is_integer(value) -> bool:
    """An int and not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def number_error(value, rule: str | None = None) -> str | None:
    """None when value is a finite number that meets rule, else what it must
    be: "a number", "finite", "finite and positive" or "finite and >= 0"."""
    want = _WANT[rule]  # a KeyError names an unknown rule
    if not is_number(value):
        return "a number"
    # <= float max, not < inf: an int above the float range is below inf; NaN fails.
    ok = abs(value) <= sys.float_info.max and (
        rule is None or (value > 0 if rule == "positive" else value >= 0))
    return None if ok else want


def require(obj, names: str, rule: str | None, error: type[Exception]) -> None:
    """Raise error naming the first of obj's space-separated attributes that
    fails number_error under rule."""
    for name in names.split():
        value = getattr(obj, name)
        want = number_error(value, rule)
        if want is not None:
            raise error(f"{name} must be {want}, got {value!r}")


class BisloopError(Exception):
    """Base class for all errors raised by this package."""


class ModelError(BisloopError):
    """Non-physical patient parameters or a diverged model integration."""


class NonPhysicalParameterError(ModelError):
    """A derived parameter came out non-physical; carries the offending value."""

    def __init__(self, message: str, value: float | None = None):
        super().__init__(message)
        self.value = value


class ControllerError(BisloopError):
    """Controller computation left its valid domain or diverged."""


class ScenarioError(BisloopError):
    """Scenario document could not be parsed or validated."""
