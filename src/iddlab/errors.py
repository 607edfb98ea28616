"""Exception types shared across the library.

The CLI maps these onto process exit codes: input and configuration
problems exit 1, numerical failures exit 2.
"""

__all__ = [
    "IddlabError",
    "InputError",
    "ConfigError",
    "PositivityError",
    "MomentError",
    "QuadratureError",
]


class IddlabError(Exception):
    """Base class for all library errors."""


class InputError(IddlabError, ValueError):
    """Invalid argument values: bad parameters, malformed sample files."""


class ConfigError(IddlabError, ValueError):
    """Invalid configuration objects (grids, tolerances, policies)."""


class PositivityError(IddlabError):
    """A characteristic function value was nonpositive where a positive
    value is required (roots, logarithms).  Carries the offending t."""

    def __init__(self, t: float, value: float):
        self.t = float(t)
        self.value = float(value)
        super().__init__(
            f"characteristic function is {value:.6g} <= 0 at t = {t:.6g}; "
            "the requested operation needs a strictly positive value there"
        )


class MomentError(IddlabError):
    """The distribution has no finite moment of the requested order."""


class QuadratureError(IddlabError):
    """Numerical integration could not reach the requested accuracy."""
