"""Cluster dispatch for the request-level serving simulator.

:class:`ClusterEngine` presents the referee
:class:`~repro.core.engine.Engine` surface the serving loop drives —
``access(item)`` → :class:`~repro.types.HitKind`, a live merged
``result``, a ``resident`` membership view for the SJF queue — while
routing every request to its owning shard's engine through a
precomputed item→shard table over the trace's distinct items (one dict
lookup per access, no per-access hashing, memory O(distinct items)).
:func:`serve_cluster` then reuses the *unmodified* serving event loop
via ``serve(engine=...)``: arrivals, queueing, drops, and histograms
all behave exactly as in the single-cache case, so tail latency
differences between hash schemes come from cache behaviour alone.

At ``n_shards=1`` every request routes to shard 0 with the full
capacity, so the served cache stream — and the embedded
:class:`~repro.types.SimResult` — is bit-identical to single-cache
:func:`~repro.serving.serve` (pinned by
``tests/test_cluster_serving.py``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional

import numpy as np

from repro.cluster.replay import ClusterSpec
from repro.core.engine import Engine
from repro.core.trace import Trace
from repro.serving.service import ServingConfig, ServingResult, serve
from repro.telemetry import spans
from repro.types import HitKind, SimResult

__all__ = ["ClusterEngine", "serve_cluster"]


class _ClusterResident:
    """Read-only membership view across all shard engines.

    The serving loop's SJF queue only asks ``item in engine.resident``;
    delegating to the owning shard keeps that O(1) and honest (an item
    is resident in the cluster iff its shard holds it).  An item the
    trace never references has no shard and is never resident.
    """

    __slots__ = ("_engines", "_lookup")

    def __init__(self, engines: List[Engine], lookup: Dict[int, int]) -> None:
        self._engines = engines
        self._lookup = lookup

    def __contains__(self, item: int) -> bool:
        shard = self._lookup.get(item)
        return shard is not None and item in self._engines[shard].resident

    def __len__(self) -> int:
        return sum(len(engine.resident) for engine in self._engines)


class ClusterEngine:
    """N per-shard referee engines behind one Engine-shaped facade.

    Each shard owns an independent policy instance at
    :meth:`ClusterSpec.shard_capacity`; :meth:`access` routes the item
    to its shard, forwards the access, and folds the shard's counter
    deltas into the merged ``result`` so the serving loop's
    ``loaded_items``-delta service-time accounting works unchanged.

    Offline policies are prepared per shard with the sub-trace that
    shard will actually see (the router is deterministic, so the
    request stream each shard receives is known up front).
    """

    def __init__(
        self,
        policy: str,
        capacity: int,
        trace: Trace,
        cluster: ClusterSpec,
        *,
        policy_kwargs: Optional[Mapping[str, Any]] = None,
        validate: bool = True,
    ) -> None:
        from repro.policies import make_policy

        router = cluster.router()
        self.cluster = cluster
        self.mapping = trace.mapping
        shard_capacity = cluster.shard_capacity(capacity)
        instances = [
            make_policy(
                policy, shard_capacity, trace.mapping, **dict(policy_kwargs or {})
            )
            for _ in range(cluster.n_shards)
        ]
        if any(inst.is_offline for inst in instances):
            plan = router.split(trace)
            for inst, sub in zip(instances, plan.subtraces):
                if inst.is_offline:
                    inst.prepare(sub)
        self.engines = [
            Engine(inst, trace.mapping, validate=validate) for inst in instances
        ]
        #: item id → shard id over the trace's distinct items: the
        #: per-access routing cost is one dict lookup, and the table
        #: grows with the trace, not the universe.
        distinct = np.unique(trace.items)
        self._lookup: Dict[int, int] = dict(
            zip(
                distinct.tolist(),
                router.shards_of(distinct, trace.mapping).tolist(),
            )
        )
        self.resident = _ClusterResident(self.engines, self._lookup)
        self.result = SimResult(
            policy=getattr(instances[0], "name", type(instances[0]).__name__),
            capacity=capacity,
        )
        #: Mirrors :attr:`repro.core.engine.Engine.last_outcome` (the
        #: owning shard's most recent outcome) for size-aware serving.
        self.last_outcome = None

    def access(self, item: int) -> HitKind:
        """Serve one request on its owning shard; merge the counters."""
        engine = self.engines[self._lookup[item]]
        shard_result = engine.result
        loaded_before = shard_result.loaded_items
        evicted_before = shard_result.evicted_items
        kind = engine.access(item)
        self.last_outcome = engine.last_outcome
        merged = self.result
        merged.accesses += 1
        if kind is HitKind.MISS:
            merged.misses += 1
            merged.loaded_items += shard_result.loaded_items - loaded_before
        elif kind is HitKind.SPATIAL_HIT:
            merged.spatial_hits += 1
        else:
            merged.temporal_hits += 1
        merged.evicted_items += shard_result.evicted_items - evicted_before
        return kind

    def shard_results(self) -> List[SimResult]:
        """Per-shard taxonomies (index = shard id), live views."""
        return [engine.result for engine in self.engines]


def serve_cluster(
    policy: str,
    capacity: int,
    trace: Trace,
    cluster: ClusterSpec,
    config: Optional[ServingConfig] = None,
    *,
    policy_kwargs: Optional[Mapping[str, Any]] = None,
    validate: bool = True,
    on_access: Optional[Callable[[int, int, HitKind], None]] = None,
    on_event: Optional[Callable[[str, float, int], None]] = None,
) -> ServingResult:
    """Run the serving simulator with requests dispatched across shards.

    Same contract as :func:`repro.serving.serve` (one arrival stream,
    one server pool, one latency story) — only the cache behind the
    servers is an N-shard cluster, so scheme/shard-count effects show
    up purely as hit/miss mix and load-set-size changes.  The returned
    :class:`~repro.serving.ServingResult` carries the merged cluster
    taxonomy as its ``sim``.
    """
    with spans.span(
        "cluster.serve",
        policy=policy,
        capacity=capacity,
        n_shards=cluster.n_shards,
        scheme=cluster.scheme,
    ):
        engine = ClusterEngine(
            policy,
            capacity,
            trace,
            cluster,
            policy_kwargs=policy_kwargs,
            validate=validate,
        )
        return serve(
            None,
            trace,
            config,
            validate=validate,
            engine=engine,
            on_access=on_access,
            on_event=on_event,
        )
