"""Fault-rate bounds in the extended locality model (§7, Table 2).

The model characterizes a trace by two concave increasing functions:
``f(n)`` (max distinct items in any window of ``n`` accesses) and
``g(n)`` (max distinct blocks).  ``f/g`` measures spatial locality,
ranging from 1 (none) to ``B`` (whole-block runs).

Bounds
------
* Theorem 8 (lower bound, any deterministic policy, cache ``k``):
  ``g(f⁻¹(k+1) − 2) / (f⁻¹(k+1) − 2)``.
* Theorem 9 (IBLP item layer, size ``i``):
  ``(i − 1) / (f⁻¹(i+1) − 2)``.
* Theorem 10 (IBLP block layer, size ``b``):
  ``(b/B − 1) / (g⁻¹(b/B + 1) − 2)``.

  .. note::
     The paper's displayed Theorem 10 prints ``f⁻¹``, but its proof
     ("using the number of blocks in a window g(n) as the items per
     window function") and every Table 2 entry require ``g⁻¹``; we
     implement ``g⁻¹`` and cross-check both readings in the tests.
* Theorem 11 (IBLP): the min of the two layer bounds.

Table 2 instantiates these for polynomial locality
``f(n) = n^{1/p}``, ``g = f / γ`` with ``γ ∈ {1, B^{1−1/p}, B}``
(the printed table's middle row writes ``B^{1/2}``, which equals
``B^{1−1/p}`` at its leading case ``p = 2``; §7.3's "largest gap at
f/g = B^{1−(1/p)}" fixes the general form).  The asymptotic orders:

====================  ===================  ==============  =================
``γ`` (spatial loc.)  lower bound (size h)  item layer UB   block layer UB
====================  ===================  ==============  =================
``1``                 ``1/h^{p-1}``         ``1/i^{p-1}``   ``B^{p-1}/b^{p-1}``
``B^{1-1/p}``         ``1/(γ h^{p-1})``     ``1/i^{p-1}``   ``1/b^{p-1}``
``B``                 ``1/(B h^{p-1})``     ``1/i^{p-1}``   ``1/(B b^{p-1})``
====================  ===================  ==============  =================
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import ConfigurationError

__all__ = [
    "LocalityBounds",
    "fault_rate_lower",
    "item_layer_fault_upper",
    "block_layer_fault_upper",
    "iblp_fault_rate_upper",
    "table2_asymptotics",
]


def _numeric_inverse(
    func: Callable[[float], float], target: float, hi_guess: float = 4.0
) -> float:
    """Smallest ``n >= 1`` with ``func(n) >= target`` (monotone ``func``)."""
    if func(1.0) >= target:
        return 1.0
    hi = hi_guess
    for _ in range(200):
        if func(hi) >= target:
            from scipy.optimize import brentq

            return float(brentq(lambda n: func(n) - target, 1.0, hi))
        hi *= 2.0
    raise ConfigurationError(
        f"could not invert locality function up to target {target}"
    )


@dataclass(frozen=True)
class LocalityBounds:
    """A (f, g) locality pair with optional exact inverses.

    ``f`` and ``g`` map window size → max distinct items/blocks; they
    must be increasing and concave for the model's guarantees.  When
    the exact inverse is unavailable, a numeric root-finder
    (:func:`scipy.optimize.brentq`) is used instead.
    """

    f: Callable[[float], float]
    g: Callable[[float], float]
    f_inverse: Optional[Callable[[float], float]] = None
    g_inverse: Optional[Callable[[float], float]] = None

    def finv(self, y: float) -> float:
        """``f⁻¹(y)``: the window size at which ``f`` first reaches ``y``."""
        if self.f_inverse is not None:
            return self.f_inverse(y)
        return _numeric_inverse(self.f, y)

    def ginv(self, y: float) -> float:
        """``g⁻¹(y)``: the window size at which ``g`` first reaches ``y``."""
        if self.g_inverse is not None:
            return self.g_inverse(y)
        return _numeric_inverse(self.g, y)


def fault_rate_lower(loc: LocalityBounds, k: float) -> float:
    """Theorem 8: fault-rate lower bound for any deterministic policy."""
    if k < 1:
        raise ConfigurationError(f"cache size must be >= 1, got {k}")
    window = loc.finv(k + 1) - 2
    if window <= 0:
        return 1.0  # so little locality that every access can fault
    return min(1.0, loc.g(window) / window)


def item_layer_fault_upper(loc: LocalityBounds, i: float) -> float:
    """Theorem 9: fault-rate upper bound for the item layer (size i)."""
    if i < 1:
        raise ConfigurationError(f"item layer size must be >= 1, got {i}")
    window = loc.finv(i + 1) - 2
    if window <= 0:
        return 1.0
    return min(1.0, (i - 1) / window)


def block_layer_fault_upper(loc: LocalityBounds, b: float, B: float) -> float:
    """Theorem 10: fault-rate upper bound for the block layer (size b).

    The layer behaves as an LRU cache of ``b/B`` *blocks* over the
    block-granularity trace, whose working-set function is ``g``.
    """
    if b < 1:
        raise ConfigurationError(f"block layer size must be >= 1, got {b}")
    if B < 1:
        raise ConfigurationError(f"block size B must be >= 1, got {B}")
    eff = b / B
    if eff <= 1:
        return 1.0
    window = loc.ginv(eff + 1) - 2
    if window <= 0:
        return 1.0
    return min(1.0, (eff - 1) / window)


def iblp_fault_rate_upper(
    loc: LocalityBounds, i: float, b: float, B: float
) -> float:
    """Theorem 11: IBLP faults only when both layers fault."""
    return min(
        item_layer_fault_upper(loc, i),
        block_layer_fault_upper(loc, b, B),
    )


def table2_asymptotics(p: float, B: float) -> List[Dict[str, float]]:
    """Table 2's leading-order bounds for ``f(n)=n^{1/p}``, ``g=f/γ``.

    Evaluates the equal-split configuration the paper analyzes in §7.3:
    item layer ``i``, block layer ``b = i``, baseline optimal cache
    ``h = i + b`` (augmentation 2x).  Returns one row per
    ``γ ∈ {1, B^{1−1/p}, B}`` with the *exponents/coefficients* of the
    leading terms, normalized so each entry is the coefficient of the
    stated power (e.g. ``lower_bound = c ⇒ bound ≈ c / h^{p-1}``).
    """
    if p < 1:
        raise ConfigurationError(f"polynomial degree p must be >= 1, got {p}")
    if B < 1:
        raise ConfigurationError(f"block size B must be >= 1, got {B}")
    rows: List[Dict[str, float]] = []
    for label, gamma in (
        ("no_spatial", 1.0),
        ("high_spatial", B ** (1.0 - 1.0 / p)),
        ("max_spatial", float(B)),
    ):
        rows.append(
            {
                "gamma": gamma,
                "label": label,
                # Theorem 8 ≈ (h/γ) / h^p = 1/(γ h^{p-1})
                "lower_bound_coeff": 1.0 / gamma,  # of 1/h^{p-1}
                # Theorem 9 ≈ i / i^p
                "item_layer_coeff": 1.0,  # of 1/i^{p-1}
                # Theorem 10 ≈ (b/B) / (γ b/B)^p = B^{p-1}/(γ^p b^{p-1})
                "block_layer_coeff": B ** (p - 1) / gamma**p,  # of 1/b^{p-1}
            }
        )
    return rows


def gap_vs_baseline(p: float, B: float) -> float:
    """§7.3's worst multiplicative gap for equal-split IBLP: B^{1−1/p}.

    Occurs at ``f/g = B^{1−1/p}`` and approaches ``B`` as ``p → ∞``.
    """
    if p < 1 or B < 1:
        raise ConfigurationError("need p >= 1 and B >= 1")
    return float(B ** (1.0 - 1.0 / p))


def _self_test() -> None:  # pragma: no cover - convenience
    loc = LocalityBounds(f=math.sqrt, g=math.sqrt)
    assert fault_rate_lower(loc, 100) <= 1.0
