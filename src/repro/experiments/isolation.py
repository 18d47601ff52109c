"""Experiment E-ISOLATION: multi-tenant partitioning on a GC cluster.

A shared cache serving a temporal tenant (Zipf keys) next to a spatial
tenant (Markov within-block walks) faces two entangled problems: the
tenants *compete for capacity*, and no single policy exploits both
tenants' locality structure.  This experiment separates the two by
running the same tenant mix through four configurations, mirroring the
cache_ext-style "right policy per workload" argument:

``shared``
    One pool, one generic policy (item-LRU) — the baseline everything
    else is compared against.  Tenants interfere freely.
``static-lru``
    Static 50/50 capacity split, item-LRU on both sides — isolates
    *capacity* interference only.
``static-iblp``
    Same split, IBLP on both sides — one granularity-aware policy for
    everyone, still no per-tenant specialization.
``per-tenant``
    The full split: each tenant gets its share *and* its own policy
    (item-LRU for the temporal tenant, IBLP for the spatial one).

The headline is the spatial tenant's miss ratio falling monotonically
across the columns — most of the win appears only in ``per-tenant``,
because the spatial tenant needs a policy that loads whole-block
neighbourhoods, not merely its own slice of capacity.  Per-tenant
taxonomies come from the replay's exact hit-kind attribution
(:func:`repro.cluster.replay_multitenant`), so the numbers are
referee-grade, not sampled.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.analysis.tables import format_table
from repro.campaign.integrate import UNCACHED, CampaignCache
from repro.cluster import ClusterSpec
from repro.core.trace import Trace
from repro.workloads import markov_spatial, zipf_items

__all__ = ["run", "render", "default_tenants", "CONFIGS"]

#: The four partitioning configurations:
#: name → (tenancy mode, base policy, per-tenant policy overrides).
CONFIGS: Tuple[Tuple[str, str, str, Optional[Dict[str, str]]], ...] = (
    ("shared", "shared", "item-lru", None),
    ("static-lru", "static", "item-lru", None),
    ("static-iblp", "static", "iblp", None),
    (
        "per-tenant",
        "per-tenant",
        "item-lru",
        {"temporal": "item-lru", "spatial": "iblp"},
    ),
)


def default_tenants(
    length: int = 40_000,
    universe: int = 2048,
    block_size: int = 8,
    seed: int = 7,
) -> Dict[str, Trace]:
    """The canonical antagonistic pair.

    ``temporal`` reuses a small hot set (Zipf α=1.1 — item-LRU's home
    turf); ``spatial`` walks within blocks (Markov stay=0.9 — worthless
    to an item policy, gold to a granularity-aware one).
    """
    return {
        "temporal": zipf_items(
            length=length,
            universe=universe,
            block_size=block_size,
            alpha=1.1,
            seed=seed,
        ),
        "spatial": markov_spatial(
            length=length,
            universe=universe,
            block_size=block_size,
            stay=0.9,
            seed=seed + 1,
        ),
    }


def run(
    capacity: int = 256,
    n_shards: int = 4,
    scheme: str = "block",
    tenants: Optional[Mapping[str, Trace]] = None,
    fast: bool = True,
    cache: CampaignCache = UNCACHED,
) -> List[Dict[str, Any]]:
    """One row per configuration: cluster-wide and per-tenant taxonomy."""
    tenants = dict(tenants) if tenants is not None else default_tenants()
    spec = ClusterSpec(n_shards=n_shards, scheme=scheme)
    rows: List[Dict[str, Any]] = []
    for name, mode, policy, overrides in CONFIGS:
        result = cache.cluster_multitenant(
            tenants, mode, policy, capacity, spec, policies=overrides, fast=fast
        )
        row: Dict[str, Any] = {
            "config": name,
            "mode": mode,
            "policy": policy if overrides is None else "mixed",
            "shards": n_shards,
            "scheme": scheme,
            "capacity": capacity,
            "miss_ratio": result.sim.miss_ratio,
            "spatial_fraction": result.sim.spatial_fraction,
        }
        for tenant in tenants:
            row[f"miss_ratio_{tenant}"] = result.tenant_miss_ratio(tenant)
            row[f"spatial_fraction_{tenant}"] = result.tenant_spatial_fraction(
                tenant
            )
        rows.append(row)
    return rows


def render(
    capacity: int = 256,
    n_shards: int = 4,
    scheme: str = "block",
    cache: CampaignCache = UNCACHED,
    **kwargs: Any,
) -> str:
    """Formatted four-configuration isolation table."""
    rows = run(
        capacity=capacity,
        n_shards=n_shards,
        scheme=scheme,
        cache=cache,
        **kwargs,
    )
    tenant_names = sorted(
        {
            key[len("miss_ratio_") :]
            for row in rows
            for key in row
            if key.startswith("miss_ratio_")
        }
    )
    pretty = []
    for r in rows:
        out = {
            "config": r["config"],
            "policy": r["policy"],
            "miss%": f"{100 * r['miss_ratio']:.1f}",
        }
        for tenant in tenant_names:
            out[f"{tenant} miss%"] = f"{100 * r[f'miss_ratio_{tenant}']:.1f}"
            out[f"{tenant} sp%"] = (
                f"{100 * r[f'spatial_fraction_{tenant}']:.1f}"
            )
        pretty.append(out)
    return format_table(
        pretty,
        title=(
            f"Multi-tenant isolation on a {n_shards}-shard {scheme} cluster "
            f"(capacity={capacity})"
        ),
    )
