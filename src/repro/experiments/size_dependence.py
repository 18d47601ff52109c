"""The size-dependence phenomenon (§5.3 "Unknown optimal size", §6.2).

The paper's conceptual headline beyond the bounds themselves: in GC
caching, *which* online policy is more competitive depends on the size
``h`` of the offline cache it is compared against — "unique amongst
known caching problems".  Two demonstrations:

* **Bounds level** — for two IBLP splits tuned to different design
  points, the Theorem 7 upper-bound curves *cross* as functions of
  ``h`` (:func:`bounds_crossing`): each split is the better policy for
  some comparison sizes and the worse for others.
* **Empirical level** — the same two splits swap their measured
  ranking between a temporal-heavy and a spatial-heavy workload
  (:func:`empirical_flip`): the worst-case trace for small ``h``
  emphasizes spatial locality, for large ``h`` temporal locality, so
  no fixed split dominates (the reason §6 then looks to randomization,
  and finds it does not help either).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from scipy.optimize import brentq

from repro.analysis.tables import format_table
from repro.bounds.upper import iblp_optimal_item_layer, iblp_ratio
from repro.campaign.integrate import CampaignCache, cached_simulate
from repro.core.engine import simulate
from repro.errors import SolverError
from repro.workloads import hot_and_stream

__all__ = ["bounds_crossing", "empirical_flip", "capacity_curves", "render"]


def bounds_crossing(
    k: int = 1_280_000,
    B: int = 64,
    h_small: float = 2_000.0,
    h_large: float = 120_000.0,
) -> Dict[str, float]:
    """Find the ``h`` where two tuned splits swap superiority.

    Splits are §5.3-optimal for ``h_small`` and ``h_large``
    respectively; returns their Theorem 7 ratios at both design points
    and the crossing ``h`` in between.
    """
    i_small = iblp_optimal_item_layer(k, h_small, B)
    i_large = iblp_optimal_item_layer(k, h_large, B)

    def gap(h: float) -> float:
        return iblp_ratio(i_small, k - i_small, h, B) - iblp_ratio(
            i_large, k - i_large, h, B
        )

    if gap(h_small) * gap(h_large) > 0:
        raise SolverError(
            "the tuned splits do not cross between their design points"
        )
    h_cross = float(brentq(gap, h_small, h_large, xtol=1e-3))
    return {
        "k": k,
        "B": B,
        "i_tuned_small": i_small,
        "i_tuned_large": i_large,
        "h_small": h_small,
        "h_large": h_large,
        "h_cross": h_cross,
        "ratio_small_split_at_h_small": iblp_ratio(
            i_small, k - i_small, h_small, B
        ),
        "ratio_large_split_at_h_small": iblp_ratio(
            i_large, k - i_large, h_small, B
        ),
        "ratio_small_split_at_h_large": iblp_ratio(
            i_small, k - i_small, h_large, B
        ),
        "ratio_large_split_at_h_large": iblp_ratio(
            i_large, k - i_large, h_large, B
        ),
    }


def empirical_flip(
    k: int = 256,
    B: int = 8,
    length: int = 50_000,
    seed: int = 17,
    cache: Optional[CampaignCache] = None,
) -> List[Dict[str, float]]:
    """Measured ranking of two splits flips across locality regimes.

    * ``temporal_heavy``: a scattered hot set sized to the large item
      layer — the item-heavy split keeps it, the block-heavy split
      thrashes.
    * ``spatial_heavy``: many interleaved sequential streams — spatial
      hits require a block-layer footprint of one block per stream,
      which only the block-heavy split has.
    """
    from repro.workloads import interleaved_streams

    splits = {
        "item_heavy_split": int(0.9 * k),
        "block_heavy_split": int(0.25 * k),
    }
    traces = {
        "temporal_heavy": hot_and_stream(
            length=length,
            hot_items=int(0.8 * k),
            stream_blocks=4 * k // B,
            block_size=B,
            hot_fraction=0.95,
            seed=seed,
        ),
        "spatial_heavy": interleaved_streams(
            length=length,
            streams=2 * ((k // 4) // B) + 4,  # exceeds the small block layer
            blocks_per_stream=64,
            block_size=B,
        ),
    }
    rows: List[Dict[str, float]] = []
    for wname, trace in traces.items():
        cells = [("iblp", k, {"item_layer_size": i}) for i in splits.values()]
        results = cached_simulate(cache, cells, trace)
        for (sname, i), res in zip(splits.items(), results):
            rows.append(
                {
                    "workload": wname,
                    "split": sname,
                    "item_layer": i,
                    "misses": res.misses,
                    "miss_ratio": res.miss_ratio,
                }
            )
    return rows


def capacity_curves(
    B: int = 8,
    length: int = 50_000,
    seed: int = 17,
    capacities: tuple = (16, 32, 64, 128, 256, 512, 1024, 2048),
) -> List[Dict[str, float]]:
    """Item-LRU vs Block-LRU miss curves across cache sizes.

    The pure-granularity version of the size-dependence story: *which
    granularity* is the better LRU depends on the cache size, and the
    ranking swaps between a temporal-heavy and a spatial-heavy
    workload.  Both policies are stack policies, so the whole grid
    rides ``sweep``'s batched multi-capacity path — one Mattson
    stack-distance pass per (policy, workload) instead of one replay
    per capacity point.
    """
    from repro.analysis.sweep import grid, simulate_cell, sweep
    from repro.workloads import interleaved_streams

    traces = {
        "temporal_heavy": hot_and_stream(
            length=length,
            hot_items=200,
            stream_blocks=256,
            block_size=B,
            hot_fraction=0.95,
            seed=seed,
        ),
        "spatial_heavy": interleaved_streams(
            length=length,
            streams=16,
            blocks_per_stream=64,
            block_size=B,
        ),
    }
    rows: List[Dict[str, float]] = []
    for wname, trace in traces.items():
        cells = grid(
            policy=["item-lru", "block-lru"],
            capacity=list(capacities),
            trace=[trace],
        )
        for row in sweep(simulate_cell, cells):
            rows.append(
                {
                    "workload": wname,
                    "policy": row["policy"],
                    "capacity": row["capacity"],
                    "miss_ratio": row["miss_ratio"],
                    "spatial_fraction": row["spatial_fraction"],
                }
            )
    return rows


def adaptive_hedge(
    k: int = 256,
    B: int = 8,
    length: int = 50_000,
    seed: int = 17,
    cache: Optional[CampaignCache] = None,
) -> List[Dict[str, float]]:
    """The extension answer to §5.3: an adaptive split hedges both regimes.

    Repeats :func:`empirical_flip`'s two workloads with
    :class:`~repro.policies.adaptive_iblp.AdaptiveIBLP` added: the
    fixed splits each collapse in one regime; the adaptive split stays
    near the better fixed split in both, and reports where its
    boundary converged.

    The adaptive rows need the live policy instance afterwards (to read
    the converged ``item_layer_target``), so only the fixed-split rows
    go through ``cache``.
    """
    from repro.policies import AdaptiveIBLP

    rows = empirical_flip(k=k, B=B, length=length, seed=seed, cache=cache)
    traces = {}
    from repro.workloads import interleaved_streams

    traces["temporal_heavy"] = hot_and_stream(
        length=length,
        hot_items=int(0.8 * k),
        stream_blocks=4 * k // B,
        block_size=B,
        hot_fraction=0.95,
        seed=seed,
    )
    traces["spatial_heavy"] = interleaved_streams(
        length=length,
        streams=2 * ((k // 4) // B) + 4,
        blocks_per_stream=64,
        block_size=B,
    )
    for wname, trace in traces.items():
        policy = AdaptiveIBLP(k, trace.mapping)
        res = simulate(policy, trace, fast=True)
        rows.append(
            {
                "workload": wname,
                "split": "adaptive",
                "item_layer": policy.item_layer_target,
                "misses": res.misses,
                "miss_ratio": res.miss_ratio,
            }
        )
    return rows


def render(
    k: int = 256, B: int = 8, cache: Optional[CampaignCache] = None
) -> str:
    """Both demonstrations, formatted (simulations memoized via ``cache``)."""
    cross = bounds_crossing()
    lines = [
        "Size dependence (§5.3): tuned-split Theorem 7 curves cross at "
        f"h = {cross['h_cross']:.0f} (k = {cross['k']:,}, B = {cross['B']})",
        format_table([cross]),
        "",
        format_table(
            empirical_flip(k=k, B=B, cache=cache),
            title="Empirical ranking flip across locality regimes",
        ),
        "",
        format_table(
            capacity_curves(B=B),
            title="Granularity ranking across cache sizes "
            "(batched Mattson replay)",
        ),
    ]
    return "\n".join(lines)
