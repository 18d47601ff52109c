"""Fixed-bucket latency histograms with exact integer payloads.

Latency distributions are recorded into log-spaced buckets fixed at
construction (``per_decade`` buckets per factor of 10, starting at
``lo``), HdrHistogram-style: recording is O(1), memory is constant,
and the payload — an integer count vector plus exact count/sum/min/max
— serializes to JSON losslessly, which is what lets the campaign store
content-address serving results and lets the determinism suite demand
*bit-identical* histogram payloads across runs and resumes.

Quantiles report the **upper edge** of the bucket containing the
target rank (conservative: the true quantile is never above the
reported one by construction, and never below it by more than one
bucket width, a relative ``10^(1/per_decade) - 1`` — 12% at the
default 20 buckets per decade).  The exact observed ``max`` caps the
top, so p100 is always exact.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["LatencyHistogram"]

#: Values bucketed per :meth:`LatencyHistogram.record_many` step.
_CHUNK = 8192


def ordered_sum(total: float, values: np.ndarray) -> float:
    """``total + values[0] + values[1] + ...``, added left to right.

    ``np.sum`` adds pairwise and the builtin ``sum`` compensates (from
    Python 3.12); neither matches a loop of ``+=``.  ``np.cumsum`` does.
    """
    return float(np.cumsum(np.concatenate(([total], values)))[-1])


class LatencyHistogram:
    """Log-bucketed distribution of nonnegative latencies.

    Parameters
    ----------
    lo:
        Lower edge of the first bucket; values below land in a
        dedicated underflow bucket (reported as ``<= lo``).
    per_decade:
        Buckets per factor of 10 (resolution ``10^(1/per_decade)``).
    decades:
        Decades covered; values beyond ``lo * 10^decades`` land in an
        overflow bucket (reported via the exact ``max``).
    """

    __slots__ = (
        "lo",
        "per_decade",
        "decades",
        "counts",
        "underflow",
        "overflow",
        "count",
        "total",
        "min",
        "max",
    )

    def __init__(
        self, lo: float = 1e-3, per_decade: int = 20, decades: int = 12
    ) -> None:
        if lo <= 0:
            raise ConfigurationError(f"histogram lo must be > 0, got {lo}")
        if per_decade < 1 or decades < 1:
            raise ConfigurationError("per_decade and decades must be >= 1")
        self.lo = float(lo)
        self.per_decade = int(per_decade)
        self.decades = int(decades)
        self.counts = np.zeros(self.per_decade * self.decades, dtype=np.int64)
        self.underflow = 0
        self.overflow = 0
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    # -- recording ---------------------------------------------------------
    def record(self, value: float) -> None:
        """Add one observation (O(1))."""
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value < self.lo:
            self.underflow += 1
            return
        index = int(self.per_decade * math.log10(value / self.lo))
        if index >= self.counts.size:
            self.overflow += 1
        else:
            self.counts[index] += 1

    def record_many(self, values: Any) -> None:
        """Add observations in order; the payload equals a ``record``
        call per value.

        Buckets use :meth:`record`'s own ``math.log10`` expression
        (``np.log10`` may land an edge value one bucket off) and land
        in one ``bincount``; ``total`` is folded left to right, never
        summed pairwise, so it is bit-identical to sequential
        recording.  Work is chunked, so temporaries stay small.
        """
        values = np.asarray(values, dtype=np.float64)
        for lo in range(0, values.size, _CHUNK):
            self._record_chunk(values[lo : lo + _CHUNK])

    def _record_chunk(self, values: np.ndarray) -> None:
        under = values < self.lo
        ratios = (values[~under] / self.lo).tolist()
        scaled = self.per_decade * np.fromiter(
            map(math.log10, ratios), dtype=np.float64, count=len(ratios)
        )
        if not np.isfinite(scaled).all():
            raise ValueError("cannot bucket a non-finite latency")
        index = scaled.astype(np.int64)  # truncation, as int() does
        inside = index < self.counts.size
        self.count += int(values.size)
        self.total = ordered_sum(self.total, values)
        # argmin/argmax take the first extreme, as strict < / > updates do.
        low = float(values[values.argmin()])
        high = float(values[values.argmax()])
        if low < self.min:
            self.min = low
        if high > self.max:
            self.max = high
        self.underflow += int(np.count_nonzero(under))
        self.overflow += int(index.size - np.count_nonzero(inside))
        self.counts += np.bincount(index[inside], minlength=self.counts.size)

    # -- reading -----------------------------------------------------------
    def bucket_edge(self, index: int) -> float:
        """Upper edge of bucket ``index``."""
        return self.lo * 10.0 ** ((index + 1) / self.per_decade)

    def quantile(self, q: float) -> float:
        """Conservative quantile: upper edge of the bucket holding rank
        ``ceil(q * count)`` (0.0 on an empty histogram; exact ``max``
        for ranks in the overflow bucket or at ``q >= 1``)."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = max(1, math.ceil(q * self.count))
        seen = self.underflow
        if target <= seen:
            return min(self.lo, self.max)
        for index in range(self.counts.size):
            seen += int(self.counts[index])
            if target <= seen:
                return min(self.bucket_edge(index), self.max)
        return self.max

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    @property
    def p999(self) -> float:
        return self.quantile(0.999)

    @property
    def mean(self) -> float:
        """Exact mean of all recorded values (not bucket-approximated)."""
        return self.total / self.count if self.count else 0.0

    def merged_with(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Combine two histograms with identical bucket layouts."""
        if (
            self.lo != other.lo
            or self.per_decade != other.per_decade
            or self.decades != other.decades
        ):
            raise ConfigurationError("cannot merge differently-bucketed histograms")
        out = LatencyHistogram(self.lo, self.per_decade, self.decades)
        out.counts = self.counts + other.counts
        out.underflow = self.underflow + other.underflow
        out.overflow = self.overflow + other.overflow
        out.count = self.count + other.count
        out.total = self.total + other.total
        out.min = min(self.min, other.min)
        out.max = max(self.max, other.max)
        return out

    # -- lossless JSON round-trip ------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """Exact JSON-safe payload (sparse ``[index, count]`` pairs)."""
        nonzero: List[List[int]] = [
            [int(i), int(c)] for i, c in enumerate(self.counts.tolist()) if c
        ]
        return {
            "lo": self.lo,
            "per_decade": self.per_decade,
            "decades": self.decades,
            "buckets": nonzero,
            "underflow": self.underflow,
            "overflow": self.overflow,
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LatencyHistogram":
        out = cls(
            lo=float(data["lo"]),
            per_decade=int(data["per_decade"]),
            decades=int(data["decades"]),
        )
        for index, value in data["buckets"]:
            out.counts[int(index)] = int(value)
        out.underflow = int(data["underflow"])
        out.overflow = int(data["overflow"])
        out.count = int(data["count"])
        out.total = float(data["total"])
        out.min = float(data["min"]) if data["min"] is not None else math.inf
        out.max = float(data["max"]) if data["max"] is not None else -math.inf
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatencyHistogram):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"LatencyHistogram(count={self.count}, mean={self.mean:.4g}, "
            f"p50={self.p50:.4g}, p99={self.p99:.4g})"
        )
