"""Experiment E-SERVE: tail latency at offered load.

The paper motivates granularity change with hierarchies where what a
user feels is a miss's *latency*, not the miss count.  This experiment
asks the question the offline artifacts cannot: at a fixed capacity on
a spatially-structured workload, does granularity-aware loading (IBLP)
beat an item-granularity policy (item-LRU) on p99 *latency* — and how
does the gap scale as offered load approaches saturation?

Each row serves the same seeded trace through one policy at one
Poisson arrival rate (rates are expressed as a fraction of the
single-server service capacity a policy-agnostic all-miss run would
have, so the sweep brackets saturation for every service model).  All
randomness is seeded, so rows are bit-identical across runs; with a
``cache`` over a campaign directory each (policy × rate) cell is
content-addressed — including the serving config — and a killed sweep
resumes without recomputation.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.tables import format_table
from repro.campaign.integrate import UNCACHED, CampaignCache
from repro.cluster import ClusterSpec
from repro.core.trace import Trace
from repro.serving import ArrivalSpec, ServiceModel, ServingConfig
from repro.workloads import markov_spatial

__all__ = ["run", "render", "default_trace", "serving_config"]

#: Load points as fractions of the all-miss single-server capacity.
DEFAULT_LOADS = (0.2, 0.5, 0.8, 0.95)
DEFAULT_POLICIES = ("item-lru", "iblp")


def default_trace(
    length: int = 60_000,
    universe: int = 4096,
    block_size: int = 8,
    stay: float = 0.85,
    seed: int = 7,
) -> Trace:
    """The experiment's spatial workload: block-local Markov runs.

    High ``stay`` produces long intra-block runs — the regime where a
    spatial load turns would-be misses into spatial hits, i.e. where
    granularity change pays in latency, not just miss count.
    """
    return markov_spatial(
        length=length,
        universe=universe,
        block_size=block_size,
        stay=stay,
        seed=seed,
    )


def serving_config(
    rate: float,
    t_hit: float = 1.0,
    t_miss: float = 100.0,
    t_item: float = 1.0,
    concurrency: int = 4,
    seed: int = 1,
) -> ServingConfig:
    """Poisson open-loop serving config for one load point."""
    return ServingConfig(
        arrival=ArrivalSpec(process="poisson", rate=rate, seed=seed),
        service=ServiceModel(t_hit=t_hit, t_miss=t_miss, t_item=t_item),
        concurrency=concurrency,
    )


def run(
    capacity: int = 256,
    loads: Sequence[float] = DEFAULT_LOADS,
    policies: Sequence[str] = DEFAULT_POLICIES,
    trace: Optional[Trace] = None,
    t_hit: float = 1.0,
    t_miss: float = 100.0,
    t_item: float = 1.0,
    concurrency: int = 4,
    arrival_seed: int = 1,
    clusters: Optional[Sequence[ClusterSpec]] = None,
    cache: CampaignCache = UNCACHED,
) -> List[Dict[str, Any]]:
    """Latency-vs-load grid: one row per (load × policy [× cluster]).

    ``loads`` are occupancies relative to the worst-case (all-miss)
    service rate ``concurrency / (t_hit + t_miss)``; the actual
    utilization each policy sees is lower in proportion to the latency
    it saves, and is reported in the row.

    With ``clusters`` given, every (load × policy) point additionally
    runs once per :class:`~repro.cluster.ClusterSpec` with requests
    dispatched across that cluster's shards
    (:func:`~repro.cluster.serving_bridge.serve_cluster`) — arrivals
    and servers are identical, so the tail-latency difference between
    hash schemes is purely the cache behaviour they produce.
    """
    trace = trace if trace is not None else default_trace()
    worst_case_rate = concurrency / (t_hit + t_miss)
    variants: List[Optional[ClusterSpec]] = (
        [None] if not clusters else list(clusters)
    )
    rows: List[Dict[str, Any]] = []
    for load in loads:
        rate = load * worst_case_rate
        config = serving_config(
            rate,
            t_hit=t_hit,
            t_miss=t_miss,
            t_item=t_item,
            concurrency=concurrency,
            seed=arrival_seed,
        )
        for policy in policies:
            for spec in variants:
                if spec is None:
                    result = cache.serve(policy, capacity, trace, config)
                else:
                    result = cache.cluster(
                        policy, capacity, trace, spec, serving=config
                    )
                row = {
                    "load": load,
                    "rate": rate,
                    "policy": policy,
                    "capacity": capacity,
                    "miss_ratio": result.sim.miss_ratio,
                    "spatial_fraction": result.sim.spatial_fraction,
                    "utilization": result.utilization,
                    "mean_latency": result.mean_latency,
                    "p50": result.p50,
                    "p99": result.p99,
                    "p999": result.p999,
                    "p99_miss": result.latency_by_kind["miss"].p99,
                }
                if spec is not None:
                    row["shards"] = spec.n_shards
                    row["scheme"] = spec.scheme
                rows.append(row)
    return rows


def render(
    capacity: int = 256,
    loads: Sequence[float] = DEFAULT_LOADS,
    policies: Sequence[str] = DEFAULT_POLICIES,
    cache: CampaignCache = UNCACHED,
    **kwargs: Any,
) -> str:
    """Formatted latency-vs-load table."""
    rows = run(
        capacity=capacity, loads=loads, policies=policies, cache=cache, **kwargs
    )
    clustered = any("shards" in r for r in rows)
    pretty = [
        {
            "load": f"{r['load']:.2f}",
            "policy": r["policy"],
            **(
                {"cluster": f"{r['shards']}x{r['scheme']}"}
                if "shards" in r
                else ({"cluster": "single"} if clustered else {})
            ),
            "miss%": f"{100 * r['miss_ratio']:.1f}",
            "spatial%": f"{100 * r['spatial_fraction']:.1f}",
            "util": f"{r['utilization']:.2f}",
            "mean": f"{r['mean_latency']:.1f}",
            "p50": f"{r['p50']:.1f}",
            "p99": f"{r['p99']:.1f}",
            "p999": f"{r['p999']:.1f}",
        }
        for r in rows
    ]
    return format_table(
        pretty,
        title=f"Tail latency vs offered load (capacity={capacity})",
    )
