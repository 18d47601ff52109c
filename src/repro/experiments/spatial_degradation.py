"""Experiment E-CLUSTER: sharding splits blocks — measure the damage.

The paper's granularity lens says spatial locality is a property of
*blocks*; a sharded deployment that hashes *items* tears blocks apart,
so each shard sees shredded remnants of every within-block run.  This
experiment quantifies that: replay one spatial workload through
clusters of growing shard count under both hash schemes and track

* ``spatial_fraction`` — how much spatial locality each configuration
  still converts into hits (flat under block-aware hashing, strictly
  decaying under item-striping),
* the **IBLP vs item-LRU miss gap** — the paper's granularity-change
  advantage, which item-striping erodes shard by shard,
* ``blocks_split`` / ``load_imbalance`` — the routing cost side:
  block-aware hashing never splits a block but balances load at block
  granularity (slightly lumpier), striping balances items near
  perfectly while splitting every block it can.

All rows are seeded and content-addressable; with a ``cache`` over a
campaign directory each (policy × shards × scheme) cell memoizes
through the campaign store, so re-renders and interrupted sweeps
recompute nothing.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.tables import format_table
from repro.campaign.integrate import UNCACHED, CampaignCache
from repro.cluster import ClusterSpec
from repro.core.trace import Trace
from repro.workloads import markov_spatial

__all__ = ["run", "render", "default_trace"]

DEFAULT_SHARDS = (1, 2, 4, 8, 16)
DEFAULT_SCHEMES = ("block", "item")
DEFAULT_POLICIES = ("iblp", "item-lru")


def default_trace(
    length: int = 80_000,
    universe: int = 4096,
    block_size: int = 8,
    stay: float = 0.85,
    seed: int = 1,
) -> Trace:
    """Markov within-block walks: the high-spatial-locality regime
    where granularity change pays most — and where striping costs most.
    """
    return markov_spatial(
        length=length,
        universe=universe,
        block_size=block_size,
        stay=stay,
        seed=seed,
    )


def run(
    capacity: int = 256,
    shards: Sequence[int] = DEFAULT_SHARDS,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    policies: Sequence[str] = DEFAULT_POLICIES,
    trace: Optional[Trace] = None,
    fast: bool = True,
    cache: CampaignCache = UNCACHED,
) -> List[Dict[str, Any]]:
    """The shard-count curve: one row per (scheme × shards × policy).

    Each row also carries ``miss_gap`` — this configuration's
    ``policies[1]`` (baseline) miss ratio minus ``policies[0]``'s
    (granularity-aware) at the same scheme and shard count — on the
    *first* policy's rows, so the gap curve reads straight off the
    table.
    """
    trace = trace if trace is not None else default_trace()
    rows: List[Dict[str, Any]] = []
    for scheme in schemes:
        for n_shards in shards:
            spec = ClusterSpec(n_shards=n_shards, scheme=scheme)
            by_policy: Dict[str, Any] = {
                policy: cache.cluster(policy, capacity, trace, spec, fast=fast)
                for policy in policies
            }
            for policy in policies:
                result = by_policy[policy]
                row = {
                    "scheme": scheme,
                    "shards": n_shards,
                    "policy": policy,
                    "capacity": capacity,
                    "miss_ratio": result.sim.miss_ratio,
                    "spatial_fraction": result.sim.spatial_fraction,
                    "blocks_split": result.blocks_split,
                    "load_imbalance": result.load_imbalance,
                }
                if len(policies) >= 2 and policy == policies[0]:
                    row["miss_gap"] = (
                        by_policy[policies[1]].sim.miss_ratio
                        - result.sim.miss_ratio
                    )
                rows.append(row)
    return rows


def render(
    capacity: int = 256,
    shards: Sequence[int] = DEFAULT_SHARDS,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    policies: Sequence[str] = DEFAULT_POLICIES,
    cache: CampaignCache = UNCACHED,
    **kwargs: Any,
) -> str:
    """Formatted spatial-degradation table."""
    rows = run(
        capacity=capacity,
        shards=shards,
        schemes=schemes,
        policies=policies,
        cache=cache,
        **kwargs,
    )
    pretty = [
        {
            "scheme": r["scheme"],
            "shards": r["shards"],
            "policy": r["policy"],
            "miss%": f"{100 * r['miss_ratio']:.1f}",
            "spatial%": f"{100 * r['spatial_fraction']:.1f}",
            "gap%": (
                f"{100 * r['miss_gap']:.1f}" if "miss_gap" in r else ""
            ),
            "split": r["blocks_split"],
            "imbal": f"{r['load_imbalance']:.2f}",
        }
        for r in rows
    ]
    return format_table(
        pretty,
        title=(
            f"Spatial degradation vs shard count (capacity={capacity}; "
            "gap% = baseline miss% − granularity-aware miss%)"
        ),
    )
