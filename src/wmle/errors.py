"""Exception hierarchy shared by the whole package.

``WmleError`` is the common base so callers can catch everything from this
package with one clause.  Domain, configuration and data-schema problems
subclass ``ValueError`` as well, matching what users of numeric libraries
expect from bad inputs.
"""

from __future__ import annotations

__all__ = [
    "WmleError",
    "DomainError",
    "NumericError",
    "ConfigError",
    "SchemaError",
    "AggregationError",
    "SolverError",
    "NoSolutionError",
    "ConvergenceError",
]


class WmleError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(WmleError, ValueError):
    """An input lies outside the mathematical domain of an operation."""


class NumericError(WmleError, ArithmeticError):
    """A computation produced a non-finite intermediate where one is required."""


class ConfigError(WmleError, ValueError):
    """A model, policy or configuration object is inconsistent."""


class SchemaError(WmleError, ValueError):
    """An input file does not match the expected column schema."""


class AggregationError(WmleError, ValueError):
    """Aggregation of returns data hit an impossible state (e.g. zero votes)."""


class SolverError(WmleError):
    """Base class for failures of the moment-matching solver."""


class NoSolutionError(SolverError):
    """The requested moment target is outside the attainable range.

    ``hint`` describes the attainable range when it is known.
    """

    def __init__(self, message: str, hint: str | None = None):
        super().__init__(message if hint is None else f"{message} ({hint})")
        self.hint = hint


class ConvergenceError(SolverError):
    """The iterative solver stopped before reaching the requested tolerance.

    Carries the last iterate and its residual so callers can inspect or
    restart from it.
    """

    def __init__(self, message: str, last_eta=None, residual: float | None = None):
        super().__init__(message)
        self.last_eta = last_eta
        self.residual = residual


def not_utf8(path, exc: UnicodeDecodeError) -> str:
    """The message for a file at ``path`` that is not UTF-8 text."""
    return f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x}: {exc.reason})"
