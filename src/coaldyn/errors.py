"""Typed exceptions shared across the engine and the CLI."""

from __future__ import annotations


class CoaldynError(Exception):
    """Base class for engine-level failures."""


class ConfigError(CoaldynError):
    """A configuration file or option set is malformed or inconsistent."""


class CapacityError(CoaldynError):
    """A requested computation exceeds the configured size budget."""


class NonConvergenceError(CoaldynError):
    """An iterative solver hit its cap before reaching tolerance."""

    def __init__(self, message: str, *, residual: float | None = None,
                 iterations: int | None = None) -> None:
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class ReducibleChainError(CoaldynError, ValueError):
    """The chain is not irreducible, so it has no unique stationary law."""


class WorkerError(CoaldynError):
    """A child process could not start, ended without a result, or raised an unpicklable exception."""


class OutputError(CoaldynError):
    """An output file or the manifest could not be written once the output directory exists."""
