"""Exception hierarchy for the GC caching library.

Every error raised by this package derives from :class:`GCCachingError`,
so callers can catch library failures with a single ``except`` clause
while still distinguishing configuration mistakes from protocol
violations detected by the simulation engine's referee.
"""

from __future__ import annotations

import math

__all__ = [
    "GCCachingError",
    "ConfigurationError",
    "ProtocolViolation",
    "CapacityExceeded",
    "IllegalLoadSet",
    "SweepCellError",
    "TraceFormatError",
    "SolverError",
    "require_finite",
]


class GCCachingError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigurationError(GCCachingError, ValueError):
    """Invalid parameters (non-positive capacity, bad block size, ...)."""


class ProtocolViolation(GCCachingError):
    """A policy produced an action that violates the GC caching model.

    The simulation engine re-validates every policy decision against
    Definition 1 of the paper; any discrepancy (loading items outside
    the requested block, claiming a hit for a non-resident item,
    exceeding capacity) raises a subclass of this error rather than
    silently producing wrong statistics.
    """


class CapacityExceeded(ProtocolViolation):
    """Cache occupancy exceeded the configured capacity ``k``."""


class IllegalLoadSet(ProtocolViolation):
    """A miss loaded a set that is not a valid subset of the block.

    Definition 1 requires the loaded set to (a) be contained in the
    requested item's block and (b) contain the requested item.
    """


class SweepCellError(GCCachingError, RuntimeError):
    """A sweep worker failed; carries the failing cell's parameters.

    A bare exception surfacing from a parallel sweep says nothing
    about *which* grid cell died; this wrapper pins the cell's kwargs
    to the message (and keeps the original exception as
    ``__cause__``).
    """

    def __init__(self, message: str, cell: dict | None = None) -> None:
        super().__init__(message)
        #: The kwargs of the cell whose worker raised.
        self.cell = dict(cell or {})


class TraceFormatError(GCCachingError, ValueError):
    """A trace array or file does not satisfy the expected format."""


class SolverError(GCCachingError, RuntimeError):
    """An offline solver or LP optimizer failed to produce a solution."""


def require_finite(
    name: str,
    value: float,
    *,
    above: float | None = None,
    at_least: float | None = None,
) -> None:
    """Raise :class:`ConfigurationError` naming ``name`` unless ``value``
    is finite and ``> above`` / ``>= at_least`` (each when given)."""
    if not math.isfinite(value):
        raise ConfigurationError(f"{name} must be finite, got {value}")
    if above is not None and not value > above:
        raise ConfigurationError(f"{name} must be > {above}, got {value}")
    if at_least is not None and not value >= at_least:
        raise ConfigurationError(f"{name} must be >= {at_least}, got {value}")
