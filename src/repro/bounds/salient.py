"""Table 1: salient comparison points of the three bound families.

For each bound family — the Sleator–Tarjan bound (traditional), the GC
lower bound (Theorem 4 at the best ``a``), and the GC upper bound
(IBLP with optimal split, §5.3) — Table 1 reports three operating
points, each shown as *augmentation ⇒ competitive ratio* where
augmentation is ``k/h``:

1. **Constant augmentation** — the ratio at ``k = 2h``:
   ST ``⇒ 2x``, GC LB ``⇒ ≈Bx``, GC UB ``⇒ ≈2Bx``.
2. **Ratio = augmentation** — the ``k`` where the ratio equals ``k/h``:
   ST at ``k = 2h``, GC LB at ``k ≈ √B·h``, GC UB at ``k ≈ √(2B)·h``.
3. **Constant ratio** — the augmentation needed to reach a small
   constant ratio: ST reaches 2 at ``k = 2h``; both GC bounds need
   ``k ≈ Bh`` (ratios ≈2 and ≈3 respectively).

:func:`table1_rows` computes all nine cells exactly (numerically where
the paper writes ``≈``).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List

from repro.bounds.lower import gc_general_lower
from repro.bounds.traditional import sleator_tarjan_lower
from repro.bounds.upper import iblp_optimal_ratio
from repro.errors import ConfigurationError, SolverError, require_finite

__all__ = ["meeting_point", "k_for_ratio", "table1_rows", "BOUND_FAMILIES"]

BoundFn = Callable[[float, float, float], float]

#: name -> ratio(k, h, B) for the three Table 1 families.
BOUND_FAMILIES: Dict[str, BoundFn] = {
    "sleator_tarjan": lambda k, h, B: sleator_tarjan_lower(k, h),
    "gc_lower": gc_general_lower,
    "gc_upper": iblp_optimal_ratio,
}


def _check_h_B(h: float, B: float) -> None:
    require_finite("h", h, above=0)
    require_finite("B", B, at_least=1)


def meeting_point(bound: BoundFn, h: float, B: float, k_max: float = None) -> float:
    """The ``k`` at which ``bound(k, h, B) == k / h``.

    All three families are decreasing in ``k`` while ``k/h`` increases,
    so the crossing is unique; found by Brent's method
    (:func:`scipy.optimize.brentq`) over ``(h+1, k_max]``.
    """
    _check_h_B(h, B)
    if k_max is None:
        k_max = 4 * B * h + 16 * h
    require_finite("k_max", k_max)
    f = lambda k: bound(k, h, B) - k / h

    lo = h * (1 + 1e-9) + 1
    if f(lo) <= 0:
        return lo
    if f(k_max) > 0:
        raise SolverError(
            f"no meeting point below k={k_max}; increase k_max"
        )
    from scipy.optimize import brentq

    return float(brentq(f, lo, k_max, xtol=1e-6))


def k_for_ratio(
    bound: BoundFn, h: float, B: float, target: float, k_max: float = None
) -> float:
    """Smallest ``k`` with ``bound(k, h, B) <= target`` (Brent's method).

    Raises :class:`SolverError` if the family never reaches ``target``
    below ``k_max`` (e.g. asking the GC lower bound for ratio < 2 —
    its infimum as ``k → ∞`` is 1 but convergence is slow; pick
    ``k_max`` accordingly).
    """
    _check_h_B(h, B)
    require_finite("target", target)
    if target <= 1:
        raise ConfigurationError(f"target ratio must exceed 1, got {target}")
    if k_max is None:
        k_max = 64 * B * h
    require_finite("k_max", k_max)
    f = lambda k: bound(k, h, B) - target
    lo = h * (1 + 1e-9) + 1
    if f(lo) <= 0:
        return lo
    if f(k_max) > 0:
        raise SolverError(
            f"bound does not reach ratio {target} below k={k_max}"
        )
    from scipy.optimize import brentq

    return float(brentq(f, lo, k_max, xtol=1e-6))


def table1_rows(h: float = 10_000.0, B: float = 64.0) -> List[Dict[str, float]]:
    """Compute the nine cells of Table 1 at concrete ``(h, B)``.

    Returns one row per setting with, for each family, the
    ``(augmentation, ratio)`` pair:

    * ``constant_augmentation`` — ratio at ``k = 2h``;
    * ``ratio_equals_augmentation`` — the meeting point;
    * ``constant_ratio`` — augmentation at ``k = Bh`` (the paper's
      "constant ratio" operating point), plus the achieved ratio.
    """
    _check_h_B(h, B)
    rows: List[Dict[str, float]] = []

    row: Dict[str, float] = {"setting": "constant_augmentation"}
    for name, fn in BOUND_FAMILIES.items():
        k = 2 * h
        row[f"{name}_augmentation"] = k / h
        row[f"{name}_ratio"] = fn(k, h, B)
    rows.append(row)

    row = {"setting": "ratio_equals_augmentation"}
    for name, fn in BOUND_FAMILIES.items():
        k = meeting_point(fn, h, B)
        row[f"{name}_augmentation"] = k / h
        row[f"{name}_ratio"] = fn(k, h, B)
    rows.append(row)

    row = {"setting": "constant_ratio"}
    for name, fn in BOUND_FAMILIES.items():
        k = B * h if name != "sleator_tarjan" else 2 * h
        row[f"{name}_augmentation"] = k / h
        row[f"{name}_ratio"] = fn(k, h, B)
    rows.append(row)
    return rows


def paper_predictions(B: float) -> Dict[str, Dict[str, float]]:
    """The paper's approximate Table 1 cells as functions of ``B``.

    Used by tests and EXPERIMENTS.md to compare measured vs printed.
    """
    return {
        "constant_augmentation": {
            "sleator_tarjan": 2.0,
            "gc_lower": B,
            "gc_upper": 2 * B,
        },
        "ratio_equals_augmentation": {
            "sleator_tarjan": 2.0,
            "gc_lower": math.sqrt(B),
            "gc_upper": math.sqrt(2 * B),
        },
        "constant_ratio": {
            "sleator_tarjan": 2.0,
            "gc_lower": 2.0,
            "gc_upper": 3.0,
        },
    }
