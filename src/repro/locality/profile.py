"""Empirical locality profiling: extract f(n) and g(n) from traces.

``f(n)`` is the maximum number of distinct items over all windows of
``n`` consecutive accesses; ``g(n)`` the same for blocks (§2).  The
profile powers two workflows:

* *prediction* — plug the empirical profile into the Theorem 8–11
  fault-rate bounds and compare against measured miss ratios;
* *characterization* — fit the polynomial family of §7.3 to a real
  workload (``fit_polynomial``) and read off its spatial ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.bounds.locality import LocalityBounds
from repro.core.reuse import max_distinct_per_window
from repro.core.trace import Trace
from repro.errors import ConfigurationError

__all__ = ["LocalityProfile", "profile_trace", "default_windows"]


def default_windows(trace_length: int, count: int = 24) -> List[int]:
    """Log-spaced window sizes from 1 to the trace length."""
    if trace_length < 1:
        return [1]
    ws = np.unique(
        np.round(
            np.logspace(0, np.log10(max(trace_length, 2)), num=count)
        ).astype(int)
    )
    return [int(w) for w in ws if w >= 1]


@dataclass
class LocalityProfile:
    """Sampled (n, f(n), g(n)) triples for one trace."""

    windows: np.ndarray  # ascending window sizes
    f_values: np.ndarray  # distinct items per window
    g_values: np.ndarray  # distinct blocks per window
    block_size: int

    def spatial_ratio(self) -> np.ndarray:
        """``f(n)/g(n)`` per sampled window (1 = none, B = maximal)."""
        return self.f_values / np.maximum(self.g_values, 1)

    def f_at(self, n: float) -> float:
        """Monotone piecewise-linear interpolation of ``f``."""
        return float(np.interp(n, self.windows, self.f_values))

    def g_at(self, n: float) -> float:
        """Monotone piecewise-linear interpolation of ``g``."""
        return float(np.interp(n, self.windows, self.g_values))

    def f_inverse(self, y: float) -> float:
        """Smallest sampled-interpolated ``n`` with ``f(n) >= y``."""
        return _monotone_inverse(self.windows, self.f_values, y)

    def g_inverse(self, y: float) -> float:
        """Smallest sampled-interpolated ``n`` with ``g(n) >= y``."""
        return _monotone_inverse(self.windows, self.g_values, y)

    def to_bounds(self) -> LocalityBounds:
        """Adapt to the Theorem 8–11 bound evaluators."""
        return LocalityBounds(
            f=self.f_at,
            g=self.g_at,
            f_inverse=self.f_inverse,
            g_inverse=self.g_inverse,
        )

    def fit_polynomial(self) -> Tuple[float, float, float]:
        """Least-squares fit of §7.3's family; returns ``(c, p, gamma)``.

        Fits ``log f = log c + (1/p) log n`` over the sampled windows
        and ``gamma`` as the median of ``f/g``.
        """
        mask = self.windows >= 1
        logn = np.log(self.windows[mask].astype(float))
        logf = np.log(np.maximum(self.f_values[mask].astype(float), 1.0))
        slope, intercept = np.polyfit(logn, logf, 1)
        slope = min(max(slope, 1e-6), 1.0)
        c = float(np.exp(intercept))
        p = float(1.0 / slope)
        gamma = float(np.median(self.spatial_ratio()))
        return c, p, max(gamma, 1.0)


def _monotone_inverse(xs: np.ndarray, ys: np.ndarray, target: float) -> float:
    if target <= ys[0]:
        return float(xs[0])
    if target > ys[-1]:
        # Extrapolate with the final slope (conservative for concave f).
        if len(xs) >= 2 and ys[-1] > ys[-2]:
            slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
            return float(xs[-1] + (target - ys[-1]) / slope)
        return float(xs[-1])
    idx = int(np.searchsorted(ys, target, side="left"))
    x0, x1 = xs[idx - 1], xs[idx]
    y0, y1 = ys[idx - 1], ys[idx]
    if y1 == y0:
        return float(x0)
    return float(x0 + (target - y0) * (x1 - x0) / (y1 - y0))


def profile_trace(
    trace: Trace, windows: Optional[Sequence[int]] = None
) -> LocalityProfile:
    """Measure f(n) and g(n) for ``trace`` at the given window sizes.

    One sort of ``(id, position)`` keys per id column, then one O(T)
    ``cumsum`` per window size
    (:func:`repro.core.reuse.max_distinct_per_window`); default windows
    are log-spaced, which matches how the bounds consume the profile.
    """
    if len(trace) == 0:
        raise ConfigurationError("cannot profile an empty trace")
    ws = sorted(set(windows)) if windows else default_windows(len(trace))
    f_map = max_distinct_per_window(trace.items, ws)
    g_map = max_distinct_per_window(trace.block_trace(), ws)
    arr_w = np.asarray(ws, dtype=np.int64)
    # Enforce monotonicity (max over windows is non-decreasing in n;
    # sampling preserves that, but guard against degenerate inputs).
    f_vals = np.maximum.accumulate(np.asarray([f_map[w] for w in ws]))
    g_vals = np.maximum.accumulate(np.asarray([g_map[w] for w in ws]))
    return LocalityProfile(
        windows=arr_w,
        f_values=f_vals,
        g_values=g_vals,
        block_size=trace.block_size,
    )
