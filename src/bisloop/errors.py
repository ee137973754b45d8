"""Exception types shared across the package, and the number rule of its checks."""

from numbers import Real


def is_number(value) -> bool:
    """A real number and not a bool: the rule of every checked number."""
    return isinstance(value, Real) and not isinstance(value, bool)


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
