"""Numeric solutions of the §5.2 linear programs (Theorems 5–7).

The paper derives IBLP's upper bound by bounding how many hits an
optimal cache can collect inside a unit window against adversarial
traces, via a rectangle (time x space) accounting:

* ``r`` — fraction of accesses hit through *temporal* locality; each
  such hit pins ``i`` units of cache space (the item survived ``i``
  distinct intervening items in the item layer's LRU list).
* ``s``, ``t`` — fraction of accesses that are misses loading ``t``
  items for *spatial* locality; the ``j``-th extra item must survive
  ``j·(b/B + 1)`` further accesses (the triangle of Figure 5), so one
  such miss costs ``U(t) = Σ_{j=0}^{t-1} (1 + j(b/B + 1))`` space and
  yields ``t - 1`` hits.

Constraints: space ``r·i + s·U(t) <= h`` and accesses ``r + s·t <= 1``.
The authors solved the combined program symbolically (Mathematica);
here we solve it numerically — for each integer ``t`` the program is
linear in ``(r, s)`` and :func:`scipy.optimize.linprog` handles it —
and the test suite asserts the numeric optimum matches the closed
forms of Theorems 5, 6 and 7.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError, SolverError, require_finite

__all__ = ["LPSolution", "thm5_numeric", "thm6_numeric", "thm7_numeric", "space_cost"]


def space_cost(t: float, b: float, B: float) -> float:
    """``U(t)``: cache-space charged to a miss that loads ``t`` items.

    ``U(t) = Σ_{j=0}^{t-1} (1 + j (b/B + 1))
           = t + (b/B + 1) t (t - 1) / 2``.
    """
    if t < 1:
        raise ConfigurationError(f"t must be >= 1, got {t}")
    return t + (b / B + 1.0) * t * (t - 1.0) / 2.0


@dataclass(frozen=True)
class LPSolution:
    """Optimal hit allocation and the implied competitive ratio."""

    ratio: float
    r: float
    s: float
    t: float

    @property
    def hits(self) -> float:
        return self.r + self.s * (self.t - 1.0)


def _solve_fixed_t(
    i: float, b: float, h: float, B: float, t: float
) -> Optional[LPSolution]:
    """Maximize ``r + s(t-1)`` subject to the two §5.2 constraints."""
    from scipy.optimize import linprog

    # linprog minimizes, so negate the objective.
    c = np.array([-1.0, -(t - 1.0)])
    a_ub = np.array(
        [
            [i, space_cost(t, b, B)],  # space
            [1.0, t],  # accesses
        ]
    )
    b_ub = np.array([float(h), 1.0])
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(0, None), (0, None)])
    if not res.success:  # pragma: no cover - linprog is robust here
        raise SolverError(f"linprog failed at t={t}: {res.message}")
    r, s = float(res.x[0]), float(res.x[1])
    hits = r + s * (t - 1.0)
    if hits >= 1.0:
        return LPSolution(ratio=math.inf, r=r, s=s, t=t)
    return LPSolution(ratio=1.0 / (1.0 - hits), r=r, s=s, t=t)


def _check_b_h_B(b: float, h: float, B: float) -> None:
    require_finite("b", b, at_least=0)
    require_finite("h", h, above=0)
    require_finite("B", B, at_least=1)


def thm7_numeric(
    i: float, b: float, h: float, B: float, t_samples: int = 512
) -> LPSolution:
    """Numeric optimum of the combined LP over ``t ∈ [1, B]``.

    ``t`` is scanned on a dense grid (the objective is smooth in
    ``t``), keeping the best solution.  The result upper-bounds IBLP's
    competitive ratio for layer sizes ``(i, b)`` against OPT size
    ``h`` and must match Theorem 7's closed form.
    """
    require_finite("i", i, at_least=0)
    _check_b_h_B(b, h, B)
    best: Optional[LPSolution] = None
    ts = np.unique(
        np.concatenate(
            [
                np.linspace(1.0, float(B), num=min(t_samples, 4096)),
                np.arange(1.0, float(B) + 1.0),
            ]
        )
    )
    for t in ts:
        sol = _solve_fixed_t(i, b, h, B, float(t))
        if sol is not None and (best is None or sol.ratio > best.ratio):
            best = sol
    assert best is not None
    return best


def thm5_numeric(i: float, h: float) -> LPSolution:
    """Temporal-only program: spatial hits disabled (``s = 0``).

    Matches Theorem 5's ``i/(i-h)``.
    """
    require_finite("i", i, above=0)
    require_finite("h", h, above=0)
    # With s = 0 the program is max r s.t. r·i <= h, r <= 1.
    r = min(1.0, h / i)
    if r >= 1.0:
        return LPSolution(ratio=math.inf, r=r, s=0.0, t=1.0)
    return LPSolution(ratio=1.0 / (1.0 - r), r=r, s=0.0, t=1.0)


def thm6_numeric(b: float, h: float, B: float, t_samples: int = 512) -> LPSolution:
    """Spatial-only program: temporal hits disabled (``r = 0``).

    Matches Theorem 6's ``min(B, (b + 2Bh - B)/(b + B))``.  The item
    layer size enters only through ``r``; pinning ``r = 0`` is
    equivalent to ``i → ∞``.
    """
    _check_b_h_B(b, h, B)
    best: Optional[LPSolution] = None
    ts = np.unique(
        np.concatenate(
            [
                np.linspace(1.0, float(B), num=min(t_samples, 4096)),
                np.arange(1.0, float(B) + 1.0),
            ]
        )
    )
    for t in ts:
        if t <= 1.0:
            sol = LPSolution(ratio=1.0, r=0.0, s=min(1.0 / t, h / space_cost(t, b, B)), t=t)
        else:
            s = min(1.0 / t, h / space_cost(t, b, B))
            hits = s * (t - 1.0)
            ratio = math.inf if hits >= 1.0 else 1.0 / (1.0 - hits)
            sol = LPSolution(ratio=ratio, r=0.0, s=s, t=t)
        if best is None or sol.ratio > best.ratio:
            best = sol
    assert best is not None
    return best
