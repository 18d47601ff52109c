"""Cluster dispatch for the request-level serving simulator.

:func:`serve_cluster` serves one arrival stream through one server pool
whose cache is an N-shard cluster: arrivals, queueing, drops and
histograms behave exactly as in the single-cache case, so tail latency
differences between hash schemes come from cache behaviour alone.
Every request routes to its owning shard through a precomputed
item→shard table over the trace's distinct items (one dict lookup per
access, no per-access hashing, memory O(distinct items)).

Each shard is a :func:`repro.core.fast.stepper` kernel stepped once per
started request, so SJF reads the shard kernels' residency probes.
Policies without a kernel (the offline Belady family) and ETC-sized
service stay on the referee: :class:`ClusterEngine` presents the
referee :class:`~repro.core.engine.Engine` surface the serving loop
drives — ``access(item)`` → :class:`~repro.types.HitKind`, a live
merged ``result``, a ``resident`` membership view — over N per-shard
referee engines, and ``serve(engine=ClusterEngine(...))`` is the
oracle the kernel path must match field for field
(``tests/test_cluster_serving.py``).

At ``n_shards=1`` every request routes to shard 0 with the full
capacity, so the served cache stream — and the embedded
:class:`~repro.types.SimResult` — is bit-identical to single-cache
:func:`~repro.serving.serve` (pinned by
``tests/test_cluster_serving.py``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.cluster.replay import ClusterSpec, _merge_shards
from repro.core.engine import Engine
from repro.core.fast import KIND_MISS, compile_trace, stepper
from repro.core.trace import Trace
from repro.serving.service import (
    ServingConfig,
    ServingResult,
    _check_in_order,
    _referee_reason,
    _serve,
    serve,
)
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


def _shard_table(trace: Trace, cluster: ClusterSpec) -> Dict[int, int]:
    """item id → shard id over the trace's distinct items: the
    per-access routing cost is one dict lookup, and the table grows
    with the trace, not the universe."""
    distinct = np.unique(trace.items)
    shards = cluster.router().shards_of(distinct, trace.mapping)
    return dict(zip(distinct.tolist(), shards.tolist()))


def _shard_policies(
    policy: str,
    capacity: int,
    trace: Trace,
    cluster: ClusterSpec,
    policy_kwargs: Optional[Mapping[str, Any]],
) -> list:
    """One fresh policy instance per shard at the shard capacity."""
    from repro.policies import make_policy

    shard_capacity = cluster.shard_capacity(capacity)
    return [
        make_policy(policy, shard_capacity, trace.mapping, **dict(policy_kwargs or {}))
        for _ in range(cluster.n_shards)
    ]


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
    ) -> None:
        self.cluster = cluster
        self.mapping = trace.mapping
        instances = _shard_policies(policy, capacity, trace, cluster, policy_kwargs)
        if any(inst.is_offline for inst in instances):
            plan = cluster.router().split(trace)
            for inst, sub in zip(instances, plan.subtraces):
                if inst.is_offline:
                    inst.prepare(sub)
        self.engines = [Engine(inst, trace.mapping) for inst in instances]
        self._lookup = _shard_table(trace, cluster)
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


class _ClusterStepper:
    """N per-shard kernel steppers behind the item→shard table.

    The :class:`~repro.core.fast.Stepper` surface the serving loop
    drives: ``step(index)`` runs trace position ``index`` on its owning
    shard's kernel, ``contains(item)`` asks that shard's residency
    probe, and :meth:`result` merges the shard counters the way
    :class:`ClusterEngine` folds them.
    """

    def __init__(
        self, instances: list, capacity: int, trace: Trace, cluster: ClusterSpec
    ) -> None:
        self._steppers = [stepper(inst, trace) for inst in instances]
        self._name = getattr(instances[0], "name", type(instances[0]).__name__)
        self._capacity = capacity
        lookup = _shard_table(trace, cluster)
        # The steppers' memoized compilation already holds the items as
        # a list (an mmap-backed one holds its column instead).
        items = compile_trace(trace).items
        if not isinstance(items, list):
            items = trace.items.tolist()
        steps = [shard.step for shard in self._steppers]
        probes = [shard.contains for shard in self._steppers]

        def step(index: int) -> Tuple[int, int]:
            return steps[lookup[items[index]]](index)

        def contains(item: int) -> bool:
            shard = lookup.get(item)
            return shard is not None and probes[shard](item)

        self.step = step
        self.contains = contains

    def result(self, trace: Trace) -> SimResult:
        return _merge_shards(
            self._name,
            self._capacity,
            [shard.result(trace) for shard in self._steppers],
            trace,
        )


def _stepped_replay(
    cache: _ClusterStepper, trace: Trace
) -> Tuple[SimResult, List[int], List[int]]:
    """Step every request in trace order: the fixed FIFO stream's pass."""
    record: List[int] = []
    loads: List[int] = []
    step = cache.step
    for index in range(len(trace)):
        code, load = step(index)
        record.append(code)
        if code == KIND_MISS:
            loads.append(load)
    return cache.result(trace), record, loads


def serve_cluster(
    policy: str,
    capacity: int,
    trace: Trace,
    cluster: ClusterSpec,
    config: Optional[ServingConfig] = None,
    *,
    policy_kwargs: Optional[Mapping[str, Any]] = None,
    on_access: Optional[Callable[[int, int, HitKind], None]] = None,
) -> ServingResult:
    """Run the serving simulator with requests dispatched across shards.

    Same contract as :func:`repro.serving.serve` (one arrival stream,
    one server pool, one latency story) — only the cache behind the
    servers is an N-shard cluster, so scheme/shard-count effects show
    up purely as hit/miss mix and load-set-size changes.  The returned
    :class:`~repro.serving.ServingResult` carries the merged cluster
    taxonomy as its ``sim``.

    Shards run on kernel steppers when a kernel covers the policy and
    service sizes are fixed; otherwise (``fallback_reason``
    ``"etc-sizes"`` or a :func:`~repro.core.fast.fast_fallback_reason`
    value) the run is ``serve(engine=ClusterEngine(...))``, whose shard
    engines validate every cache action.  The ``cluster.serve`` span
    records ``path="kernel"|"referee"`` and the ``fallback_reason``.
    An offline policy under SJF, a ``queue_limit`` or a ``timeout``
    raises :class:`~repro.errors.ConfigurationError`, as in ``serve``.
    To observe serving events, pass ``on_event`` to
    ``serve(None, trace, config, engine=ClusterEngine(...))``.
    """
    config = config if config is not None else ServingConfig()
    with spans.span(
        "cluster.serve",
        policy=policy,
        capacity=capacity,
        n_shards=cluster.n_shards,
        scheme=cluster.scheme,
    ) as sp:
        instances = _shard_policies(policy, capacity, trace, cluster, policy_kwargs)
        _check_in_order(instances[0], config)
        reason = _referee_reason(instances[0], trace, config, None)
        if sp is not None:
            sp.set("path", "kernel" if reason is None else "referee")
            sp.set("fallback_reason", reason)
        if reason is not None:
            engine = ClusterEngine(
                policy, capacity, trace, cluster, policy_kwargs=policy_kwargs
            )
            return serve(None, trace, config, engine=engine, on_access=on_access)
        cache = _ClusterStepper(instances, capacity, trace, cluster)
        return _serve(
            trace,
            config,
            None,
            lambda: _stepped_replay(cache, trace),
            lambda: cache,
            on_access,
            None,
        )
