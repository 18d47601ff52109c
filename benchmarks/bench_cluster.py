"""E-CLUSTER: cluster replay overhead + the degradation separation.

Times one 4-shard block-aware cluster replay of IBLP on a spatial
Markov trace against the sum of the four per-shard single-cache
``simulate()`` calls over the same sub-traces.  The cluster engine
adds the vectorized routing pass, sub-trace construction, derived
fingerprints, and the merge on top of work that is otherwise identical,
so the machine-independent ``cluster_overhead`` ratio
``cluster_seconds / sum(per-shard referee seconds)`` is the cost of the
sharding layer itself — the number the CI gate pins at ≤2×.  The slow
referee hides most of that layer, so the same ratio is also taken on
the fast path: ``fast_cluster_overhead`` divides a ``fast=True``
cluster replay by the four per-shard ``simulate(fast=True)`` calls,
both after a warm-up so every sub-trace's compilation is memoized, and
is gated at ≤1.4× (:data:`FAST_GATE`).

Cluster serving is timed the same way: ``cluster_serve_speedup`` is
the time of the referee oracle, ``serve(engine=ClusterEngine(...))``,
over the time of ``serve_cluster``, which steps one kernel per shard.
The run is SJF with an admission bound under MMPP arrivals at 0.9
load (the e2e ``cluster`` workload's serving shape) on a
:data:`SERVE_LENGTH`-request prefix, both sides must return the same
:meth:`ServingResult.fields`, and the ratio is gated at
≥ :data:`SERVE_GATE`.

The run also re-asserts the conservation invariant (merged taxonomy ==
per-shard sums) and records the paper-facing headline as a
machine-independent ratio: the IBLP-vs-item-LRU miss gap under
block-aware hashing divided by the gap under item-striped hashing at
the same shard count (``gap_retention`` > 1 means striping destroys
granularity-change value that block-aware hashing keeps).

Writes ``BENCH_cluster.json`` through the flight-recorder harness.

Knobs (env vars, so CI can shrink the run):

* ``REPRO_CLUSTER_BENCH_LEN`` — trace length (default 300_000)
* ``REPRO_CLUSTER_GATE``      — max overhead ratio (default 2.0)

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_cluster.py``.
"""

from __future__ import annotations

import os
import time

import pytest

from _harness import metric, write_bench
from repro.cluster import ClusterSpec, replay_cluster
from repro.cluster.serving_bridge import ClusterEngine, serve_cluster
from repro.core.engine import simulate
from repro.core.trace import Trace
from repro.policies import make_policy
from repro.serving import ArrivalSpec, ServiceModel, ServingConfig, serve
from repro.workloads import markov_spatial

LENGTH = int(os.environ.get("REPRO_CLUSTER_BENCH_LEN", "300000"))
GATE = float(os.environ.get("REPRO_CLUSTER_GATE", "2.0"))
FAST_GATE = 1.4
CAPACITY = 256
N_SHARDS = 4
#: Timed runs per fast-path side; the fastest one counts.
FAST_RUNS = 3
#: Requests served per cluster-serving run, and its speedup gate.
SERVE_LENGTH = 25_000
SERVE_GATE = 1.3


@pytest.fixture(scope="module")
def bench_trace():
    return markov_spatial(
        length=LENGTH, universe=4096, block_size=8, stay=0.85, seed=7
    )


def _miss_gap(trace, scheme):
    """item-LRU minus IBLP miss ratio on a 4-shard cluster."""
    spec = ClusterSpec(n_shards=N_SHARDS, scheme=scheme)
    lru = replay_cluster("item-lru", CAPACITY, trace, spec, fast=True)
    iblp = replay_cluster("iblp", CAPACITY, trace, spec, fast=True)
    return lru.sim.miss_ratio - iblp.sim.miss_ratio


def _fast_overhead(trace, spec, plan):
    """Fastest fast-path cluster replay over its fastest per-shard floor."""
    shard_capacity = spec.shard_capacity(CAPACITY)
    replay_cluster("iblp", CAPACITY, trace, spec, fast=True)  # warm-up
    t_cluster = t_shards = float("inf")
    for _ in range(FAST_RUNS):
        t0 = time.perf_counter()
        replay_cluster("iblp", CAPACITY, trace, spec, fast=True)
        t_cluster = min(t_cluster, time.perf_counter() - t0)
        total = 0.0
        for sub in plan.subtraces:
            policy = make_policy("iblp", shard_capacity, sub.mapping)
            t0 = time.perf_counter()
            simulate(policy, sub, fast=True)
            total += time.perf_counter() - t0
        t_shards = min(t_shards, total)
    return t_cluster, t_shards


def _serve_speedup(trace, spec):
    """Fastest referee-oracle cluster serving over fastest ``serve_cluster``."""
    sub = Trace(trace.items[:SERVE_LENGTH], trace.mapping, dict(trace.metadata))
    offline = replay_cluster("iblp", CAPACITY, sub, spec, fast=True).sim
    extra = offline.loaded_items - offline.misses
    mean_service = 1.0 + (100.0 * offline.misses + extra) / offline.accesses
    config = ServingConfig(
        arrival=ArrivalSpec(process="mmpp", rate=0.9 * 4 / mean_service, seed=1),
        service=ServiceModel(t_hit=1.0, t_miss=100.0, t_item=1.0),
        concurrency=4,
        queue="sjf",
        queue_limit=8,
    )
    t_kernel = t_referee = float("inf")
    for _ in range(FAST_RUNS):
        t0 = time.perf_counter()
        served = serve_cluster("iblp", CAPACITY, sub, spec, config)
        t_kernel = min(t_kernel, time.perf_counter() - t0)
        t0 = time.perf_counter()
        oracle = serve(
            None, sub, config, engine=ClusterEngine("iblp", CAPACITY, sub, spec)
        )
        t_referee = min(t_referee, time.perf_counter() - t0)
        assert served.fields() == oracle.fields()
    return t_kernel, t_referee


def test_cluster_overhead_gate(bench_trace, out_dir):
    spec = ClusterSpec(n_shards=N_SHARDS, scheme="block")

    t0 = time.perf_counter()
    clustered = replay_cluster("iblp", CAPACITY, bench_trace, spec, fast=False)
    t_cluster = time.perf_counter() - t0

    # The comparison floor: the same four sub-traces through plain
    # single-cache referee replays (no routing, no merge).
    plan = spec.router().split(bench_trace)
    shard_capacity = spec.shard_capacity(CAPACITY)
    t_shards = 0.0
    for sub in plan.subtraces:
        policy = make_policy("iblp", shard_capacity, sub.mapping)
        t0 = time.perf_counter()
        simulate(policy, sub, fast=False)
        t_shards += time.perf_counter() - t0

    # Conservation must hold on the timed run itself.
    assert clustered.sim.accesses == LENGTH
    assert clustered.sim.misses == sum(s.misses for s in clustered.shards)

    block_gap = _miss_gap(bench_trace, "block")
    item_gap = _miss_gap(bench_trace, "item")
    gap_retention = block_gap / max(item_gap, 1e-9)

    overhead = t_cluster / t_shards
    t_fast_cluster, t_fast_shards = _fast_overhead(bench_trace, spec, plan)
    fast_overhead = t_fast_cluster / t_fast_shards
    t_serve, t_serve_referee = _serve_speedup(bench_trace, spec)
    serve_speedup = t_serve_referee / t_serve
    path = write_bench(
        "cluster",
        metrics={
            "cluster_seconds": metric(t_cluster, "s", "lower"),
            "per_shard_seconds": metric(t_shards, "s", "lower"),
            "accesses_per_second": metric(
                LENGTH / t_cluster, "acc/s", "higher"
            ),
            "cluster_overhead": metric(overhead, "x", "lower"),
            "fast_cluster_seconds": metric(t_fast_cluster, "s", "lower"),
            "fast_per_shard_seconds": metric(t_fast_shards, "s", "lower"),
            "fast_cluster_overhead": metric(fast_overhead, "x", "lower"),
            "gap_retention": metric(gap_retention, "x", "higher"),
            "cluster_serve_seconds": metric(t_serve, "s", "lower"),
            "cluster_engine_serve_seconds": metric(t_serve_referee, "s", "lower"),
            "cluster_serve_speedup": metric(serve_speedup, "x", "higher"),
        },
        extra={
            "trace_length": LENGTH,
            "capacity": CAPACITY,
            "n_shards": N_SHARDS,
            "block_scheme_miss_gap": block_gap,
            "item_scheme_miss_gap": item_gap,
            "gate": GATE,
            "fast_gate": FAST_GATE,
            "serve_length": SERVE_LENGTH,
            "serve_gate": SERVE_GATE,
        },
    )
    print(
        f"\ncluster: {LENGTH} accesses x {N_SHARDS} shards in "
        f"{t_cluster:.2f}s vs {t_shards:.2f}s per-shard floor, "
        f"overhead {overhead:.2f}x (fast path {fast_overhead:.2f}x), "
        f"gap retention {gap_retention:.2f}x, "
        f"serving {serve_speedup:.2f}x faster than the referee oracle "
        f"-> {path}"
    )
    assert overhead <= GATE, (
        f"cluster overhead {overhead:.2f}x above the {GATE:.1f}x gate "
        f"(cluster {t_cluster:.2f}s vs per-shard floor {t_shards:.2f}s)"
    )
    assert fast_overhead <= FAST_GATE, (
        f"fast-path cluster overhead {fast_overhead:.2f}x above the "
        f"{FAST_GATE:.1f}x gate (cluster {t_fast_cluster:.3f}s vs per-shard "
        f"floor {t_fast_shards:.3f}s)"
    )
    assert serve_speedup >= SERVE_GATE, (
        f"serve_cluster only {serve_speedup:.2f}x faster than "
        f"serve(engine=ClusterEngine(...)), below the {SERVE_GATE:.1f}x gate "
        f"({t_serve:.3f}s vs {t_serve_referee:.3f}s)"
    )
    assert gap_retention > 1.0, (
        f"block-aware hashing kept a smaller miss gap ({block_gap:.3f}) "
        f"than item striping ({item_gap:.3f})"
    )
