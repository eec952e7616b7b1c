"""Exception hierarchy shared by all coauthnet modules.

The CLI maps these onto exit codes: ConfigError -> 1, DataError (and
subclasses) -> 2, ConvergenceError -> 3.
"""

from __future__ import annotations

__all__ = ["CoauthNetError", "ConfigError", "ConvergenceError", "DataError", "ParseError"]


class CoauthNetError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(CoauthNetError):
    """Invalid configuration: bad flags, unresolvable paths, broken merge maps."""


class DataError(CoauthNetError):
    """Input data violates an operation's precondition."""


class ParseError(DataError):
    """Malformed bibliographic input file (bad header, row, or duplicate id)."""


class ConvergenceError(CoauthNetError):
    """An iterative solver exhausted its iteration budget."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual
