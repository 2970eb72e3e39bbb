"""Exception types, grouped by the CLI exit code they map to, and the one
check that a count is an integer."""

from numbers import Integral


class PatchmaskError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(PatchmaskError):
    """Invalid configuration or parameter value (CLI exit code 2)."""


class DataError(PatchmaskError):
    """Malformed or inconsistent input data (CLI exit code 3)."""


class ConvergenceError(PatchmaskError):
    """A search failed to reach its target (CLI exit code 4)."""


def check_integer(name, value, minimum=None):
    """Raise ConfigError unless value, a count, size or seed, is an
    integer (a float such as 2.0 is not one, nor is a bool) and, given a
    minimum, at least that."""
    # int first: the ABC's check is slow
    if not isinstance(value, (int, Integral)) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
