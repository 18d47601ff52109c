"""Single-pass cluster replay: route once, replay per shard, merge.

:func:`replay_cluster` scales the single-cache :func:`simulate` to an
N-shard cluster.  One vectorized routing pass splits the trace by
shard (:meth:`ShardRouter.split`) and also yields the block-split
statistics (:func:`~repro.cluster.router.split_stats`); each shard then
replays *its own* sub-trace through an independent policy instance —
via the fast kernels when they apply, the referee otherwise — and the
per-shard taxonomies merge exactly (every access is served by exactly
one shard).  Total replay work is therefore one traversal of the trace
plus the O(n) routing pass, which is what the ``bench_cluster.py``
overhead gates pin (≤2× on the referee, ≤1.4× on the fast path).

The crucial modeling decision: **shard policies keep the full block
mapping.**  A shard's policy replays only the accesses routed to it,
but a miss still loads whatever subset of the *original* block the
policy chooses.  Under block-aware hashing every item of that block
routes back to the same shard, so side-loads turn into spatial hits
exactly as in the single cache; under item-striped hashing the
side-loaded neighbours mostly belong to *other* shards — capacity
spent on items this shard will never be asked for — which is precisely
the sharding-splits-blocks degradation the paper's granularity lens
predicts.  At ``n_shards=1`` both schemes route everything to shard 0
and the replay is bit-identical to single-cache :func:`simulate`
(pinned by ``tests/test_cluster_replay.py``).

Multi-tenancy
-------------
:func:`combine_tenants` packs per-tenant traces into one cluster trace
over disjoint block-aligned item ranges, deterministically interleaved
in proportion to each tenant's length, and returns per-access tenant
tags.  :func:`replay_cluster` accepts those tags and attributes every
access's hit kind back to its tenant (``ClusterResult.tenants``).
Capacity partitioning modes for the isolation experiment:

* ``"shared"`` — all tenants compete inside one policy instance per
  shard (one cluster replay over the combined trace).
* ``"static"`` — each tenant gets a static capacity share and its own
  policy instances (tenant item ranges are disjoint, so this
  decomposes into independent per-tenant cluster replays whose shard
  results merge by shard id).
* ``"per-tenant"`` — like ``static`` but each tenant also chooses its
  own policy (the cache_ext-style "right policy per workload" split).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.result import ClusterResult
from repro.cluster.router import ShardRouter, split_stats
from repro.core.conformance import KIND_CODE
from repro.core.engine import simulate
from repro.core.fast import KIND_MISS, KIND_SPATIAL, KIND_TEMPORAL
from repro.core.mapping import FixedBlockMapping
from repro.core.trace import Trace
from repro.errors import ConfigurationError
from repro.telemetry import spans
from repro.types import HitKind, SimResult

__all__ = [
    "ClusterSpec",
    "replay_cluster",
    "replay_multitenant",
    "combine_tenants",
    "CAPACITY_MODES",
    "TENANCY_MODES",
]

#: How the total capacity is divided across shards.
CAPACITY_MODES: Tuple[str, ...] = ("split", "per-shard")
#: Multi-tenant partitioning modes (see the module docstring).
TENANCY_MODES: Tuple[str, ...] = ("shared", "static", "per-tenant")


@dataclass(frozen=True)
class ClusterSpec:
    """Declarative cluster shape (joins campaign content addresses).

    ``capacity_mode="split"`` divides the cell's total capacity evenly
    (``max(1, k // n_shards)`` per shard — so ``n_shards=1`` keeps the
    full ``k`` and single-cache conformance holds); ``"per-shard"``
    gives every shard the full ``k`` (models scale-out at constant
    per-instance memory).
    """

    n_shards: int
    scheme: str = "block"
    vnodes: int = 64
    hash_seed: int = 0
    capacity_mode: str = "split"

    def __post_init__(self) -> None:
        if self.capacity_mode not in CAPACITY_MODES:
            raise ConfigurationError(
                f"unknown capacity_mode {self.capacity_mode!r}; known: "
                f"{', '.join(CAPACITY_MODES)}"
            )

    def router(self) -> ShardRouter:
        return ShardRouter(
            n_shards=self.n_shards,
            scheme=self.scheme,
            vnodes=self.vnodes,
            seed=self.hash_seed,
        )

    def shard_capacity(self, capacity: int) -> int:
        if self.capacity_mode == "per-shard":
            return capacity
        return max(1, capacity // self.n_shards)

    def as_dict(self) -> Dict[str, Any]:
        """Canonical JSON-scalar form (hashed into cluster cells)."""
        return {
            "n_shards": self.n_shards,
            "scheme": self.scheme,
            "vnodes": self.vnodes,
            "hash_seed": self.hash_seed,
            "capacity_mode": self.capacity_mode,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ClusterSpec":
        return cls(
            n_shards=int(data["n_shards"]),
            scheme=str(data.get("scheme", "block")),
            vnodes=int(data.get("vnodes", 64)),
            hash_seed=int(data.get("hash_seed", 0)),
            capacity_mode=str(data.get("capacity_mode", "split")),
        )


def _replay_shard(
    policy_name: str,
    capacity: int,
    sub: Trace,
    *,
    policy_kwargs: Mapping[str, Any],
    fast: bool,
    want_kinds: bool,
) -> Tuple[SimResult, Optional[np.ndarray]]:
    """Replay one shard's sub-trace; optionally return per-access kinds.

    The kinds stream (0=miss, 1=temporal, 2=spatial, trace order) is
    only materialized when tenant attribution needs it: the fast
    kernels expose it through their ``record`` hook at native speed,
    the referee through ``on_access`` — both streams are
    conformance-proven identical, so attribution is path-independent.
    """
    from repro.policies import make_policy

    instance = make_policy(
        policy_name, capacity, sub.mapping, **dict(policy_kwargs)
    )
    if not want_kinds:
        return simulate(instance, sub, fast=fast), None
    if fast:
        from repro.core.fast import fast_simulate

        record: List[int] = []
        result = fast_simulate(instance, sub, record)
        if result is not None:
            return result, np.asarray(record, dtype=np.int8)
    kinds = np.empty(len(sub), dtype=np.int8)

    def observe(pos: int, item: int, kind: HitKind) -> None:
        kinds[pos] = KIND_CODE[kind]

    result = simulate(instance, sub, on_access=observe)
    return result, kinds


def _merge_shards(
    policy_name: str,
    capacity: int,
    shard_results: Sequence[SimResult],
    trace: Trace,
) -> SimResult:
    """Exact cross-shard merge; metadata comes from the parent trace.

    Each access is served by exactly one shard, so the counters sum;
    metadata is rebuilt from the parent (shard sub-traces tag
    themselves with ``shard``/``n_shards``, which must not leak into
    the merged result — at ``n_shards=1`` the merge is bit-identical
    to single-cache :func:`simulate`).
    """
    merged = SimResult(policy=policy_name, capacity=capacity)
    merged.metadata.update(trace.scalar_metadata())
    for res in shard_results:
        merged.add_counts(res)
    return merged


def _tenant_taxonomy(
    kinds: np.ndarray,
    tenant_ids: np.ndarray,
    tenant_names: Sequence[str],
) -> Dict[str, Dict[str, int]]:
    """Scatter per-access kinds into per-tenant taxonomy counters."""
    out: Dict[str, Dict[str, int]] = {}
    for tid, name in enumerate(tenant_names):
        mask = tenant_ids == tid
        tk = kinds[mask]
        out[name] = {
            "accesses": int(tk.size),
            "misses": int(np.count_nonzero(tk == KIND_MISS)),
            "temporal_hits": int(np.count_nonzero(tk == KIND_TEMPORAL)),
            "spatial_hits": int(np.count_nonzero(tk == KIND_SPATIAL)),
        }
    return out


def replay_cluster(
    policy: str,
    capacity: int,
    trace: Trace,
    cluster: ClusterSpec,
    *,
    policy_kwargs: Optional[Mapping[str, Any]] = None,
    tenant_ids: Optional[np.ndarray] = None,
    tenant_names: Optional[Sequence[str]] = None,
    fast: bool = True,
) -> ClusterResult:
    """Replay ``trace`` through an N-shard cluster of ``policy`` caches.

    Parameters
    ----------
    policy:
        Registry name (``make_policy``); each shard gets its own
        instance at :meth:`ClusterSpec.shard_capacity`.
    capacity:
        Total cluster capacity (split per ``cluster.capacity_mode``).
    tenant_ids / tenant_names:
        Optional per-access tenant tags (from :func:`combine_tenants`);
        when given, every access's hit kind is attributed back to its
        tenant in ``ClusterResult.tenants``.
    fast:
        Forwarded to each shard's replay, same semantics as
        :func:`repro.core.engine.simulate`; shards on the referee
        validate every cache action.
    """
    policy_kwargs = policy_kwargs or {}
    want_kinds = tenant_ids is not None
    if want_kinds:
        tenant_ids = np.asarray(tenant_ids, dtype=np.int64)
        if tenant_ids.size != len(trace):
            raise ConfigurationError(
                f"tenant_ids length {tenant_ids.size} != trace length {len(trace)}"
            )
        if tenant_names is None:
            raise ConfigurationError("tenant_ids given without tenant_names")
    router = cluster.router()
    with spans.span(
        "cluster.replay",
        policy=policy,
        capacity=capacity,
        n_shards=cluster.n_shards,
        scheme=cluster.scheme,
    ):
        with spans.span("cluster.route", scheme=cluster.scheme) as sp:
            plan = router.split(trace)
            block_stats = split_stats(
                trace.block_trace(), plan.shard_of, cluster.n_shards
            )
            if sp is not None:
                sp.set("blocks_split", block_stats["blocks_split"])
        shard_capacity = cluster.shard_capacity(capacity)
        shard_results: List[SimResult] = []
        kinds_global = (
            np.empty(len(trace), dtype=np.int8) if want_kinds else None
        )
        for shard, sub in enumerate(plan.subtraces):
            with spans.span(
                "cluster.shard", shard=shard, accesses=len(sub)
            ):
                res, kinds = _replay_shard(
                    policy,
                    shard_capacity,
                    sub,
                    policy_kwargs=policy_kwargs,
                    fast=fast,
                    want_kinds=want_kinds,
                )
            shard_results.append(res)
            if kinds_global is not None:
                kinds_global[plan.indices[shard]] = kinds
        with spans.span("cluster.merge", n_shards=cluster.n_shards):
            merged = _merge_shards(policy, capacity, shard_results, trace)
            tenants = (
                _tenant_taxonomy(kinds_global, tenant_ids, list(tenant_names))
                if kinds_global is not None
                else {}
            )
    return ClusterResult(
        sim=merged,
        shards=shard_results,
        cluster=cluster.as_dict(),
        tenants=tenants,
        block_stats=block_stats,
    )


# -- multi-tenancy ---------------------------------------------------------
def combine_tenants(
    tenant_traces: Mapping[str, Trace],
) -> Tuple[Trace, np.ndarray, List[str]]:
    """Pack per-tenant traces into one tagged cluster trace.

    Tenants get disjoint block-aligned item ranges (each tenant's
    universe is already a whole number of blocks, so offsets preserve
    every block boundary), and their accesses interleave
    deterministically in proportion to trace length: the ``j``-th of
    ``m`` accesses sorts at key ``(j + 0.5) / m``, ties broken by
    tenant order.  No RNG — the same tenant traces always produce the
    same combined trace (and fingerprint).

    Returns ``(combined, tenant_ids, tenant_names)`` where
    ``tenant_ids[i]`` indexes ``tenant_names`` for access ``i``.
    """
    if not tenant_traces:
        raise ConfigurationError("combine_tenants needs at least one tenant")
    names = list(tenant_traces)
    block_sizes = {tenant_traces[n].block_size for n in names}
    if len(block_sizes) != 1:
        raise ConfigurationError(
            f"tenant traces must share one block size, got {sorted(block_sizes)}"
        )
    block_size = block_sizes.pop()
    offsets: Dict[str, int] = {}
    total_universe = 0
    for name in names:
        offsets[name] = total_universe
        total_universe += tenant_traces[name].universe
    keys: List[np.ndarray] = []
    tags: List[np.ndarray] = []
    shifted: List[np.ndarray] = []
    for tid, name in enumerate(names):
        tr = tenant_traces[name]
        m = len(tr)
        if m == 0:
            continue
        keys.append((np.arange(m, dtype=np.float64) + 0.5) / m)
        tags.append(np.full(m, tid, dtype=np.int64))
        shifted.append(tr.items + offsets[name])
    if not keys:
        raise ConfigurationError("all tenant traces are empty")
    all_keys = np.concatenate(keys)
    all_tags = np.concatenate(tags)
    all_items = np.concatenate(shifted)
    order = np.lexsort((all_tags, all_keys))
    combined = Trace(
        all_items[order],
        FixedBlockMapping(total_universe, block_size),
        {
            "generator": "combine_tenants",
            "tenants": ",".join(names),
            "block_size": block_size,
        },
    )
    return combined, all_tags[order], names


def replay_multitenant(
    tenant_traces: Mapping[str, Trace],
    mode: str,
    policy: str,
    capacity: int,
    cluster: ClusterSpec,
    *,
    policies: Optional[Mapping[str, str]] = None,
    shares: Optional[Mapping[str, float]] = None,
    fast: bool = True,
) -> ClusterResult:
    """Run one multi-tenant partitioning configuration on the cluster.

    ``mode`` is one of :data:`TENANCY_MODES`.  ``shares`` gives each
    tenant's fraction of the total capacity for the partitioned modes
    (default: equal split); ``policies`` overrides the per-tenant
    policy for ``"per-tenant"`` mode (default: ``policy`` for all).
    The merged result's ``policy`` string records the mode so rows from
    different configurations stay distinguishable.
    """
    if mode not in TENANCY_MODES:
        raise ConfigurationError(
            f"unknown tenancy mode {mode!r}; known: {', '.join(TENANCY_MODES)}"
        )
    names = list(tenant_traces)
    if mode == "shared":
        combined, tenant_ids, tenant_names = combine_tenants(tenant_traces)
        result = replay_cluster(
            policy,
            capacity,
            combined,
            cluster,
            tenant_ids=tenant_ids,
            tenant_names=tenant_names,
            fast=fast,
        )
        result.sim.metadata["tenancy"] = mode
        return result

    # Partitioned modes: tenant item ranges are disjoint, so each tenant
    # replays through its own per-shard instances independently and the
    # shard taxonomies merge by shard id.
    if shares is None:
        shares = {name: 1.0 / len(names) for name in names}
    per_policy = {name: policy for name in names}
    if mode == "per-tenant" and policies:
        per_policy.update(policies)
    shard_totals = [SimResult() for _ in range(cluster.n_shards)]
    tenants: Dict[str, Dict[str, int]] = {}
    merged = SimResult(policy=f"{policy}[{mode}]", capacity=capacity)
    block_stats = {
        "blocks_referenced": 0,
        "blocks_split": 0,
        "mean_shards_per_block": 0.0,
    }
    spread_weighted = 0.0
    with spans.span(
        "cluster.multitenant", mode=mode, tenants=",".join(names)
    ):
        for name in names:
            share = max(1, int(round(capacity * shares.get(name, 0.0))))
            sub = replay_cluster(
                per_policy[name], share, tenant_traces[name], cluster, fast=fast
            )
            tenants[name] = {
                "accesses": sub.sim.accesses,
                "misses": sub.sim.misses,
                "temporal_hits": sub.sim.temporal_hits,
                "spatial_hits": sub.sim.spatial_hits,
            }
            for shard, res in enumerate(sub.shards):
                shard_totals[shard].add_counts(res)
            merged.add_counts(sub.sim)
            referenced = sub.block_stats.get("blocks_referenced", 0)
            block_stats["blocks_referenced"] += referenced
            block_stats["blocks_split"] += sub.block_stats.get("blocks_split", 0)
            spread_weighted += (
                sub.block_stats.get("mean_shards_per_block", 0.0) * referenced
            )
    if block_stats["blocks_referenced"]:
        block_stats["mean_shards_per_block"] = (
            spread_weighted / block_stats["blocks_referenced"]
        )
    merged.metadata["tenancy"] = mode
    for shard_total in shard_totals:
        shard_total.policy = f"{policy}[{mode}]"
        shard_total.capacity = cluster.shard_capacity(capacity)
    return ClusterResult(
        sim=merged,
        shards=shard_totals,
        cluster=cluster.as_dict(),
        tenants=tenants,
        block_stats=block_stats,
    )
