"""Cluster serving bridge: the unmodified event loop over N shards.

``serve_cluster`` must collapse to single-cache ``serve`` exactly at
``n_shards=1`` — full :meth:`ServingResult.fields` payloads, latency
histograms included — because the serving loop is reused verbatim and
only the engine behind it changes.  Multi-shard runs must still serve
every arrival exactly once under both hash schemes and both queue
disciplines, with the scheme's effect confined to the cache taxonomy.
"""

import tracemalloc

import numpy as np
import pytest

from repro.cluster import ClusterSpec
from repro.cluster.serving_bridge import ClusterEngine, serve_cluster
from repro.core.mapping import FixedBlockMapping
from repro.core.trace import Trace
from repro.serving import ArrivalSpec, ServiceModel, ServingConfig, serve_policy
from repro.workloads import markov_spatial

CAPACITY = 128


def trace():
    return markov_spatial(
        length=4000, universe=512, block_size=8, stay=0.85, seed=3
    )


def config(queue="fifo", rate=0.02):
    return ServingConfig(
        arrival=ArrivalSpec(process="poisson", rate=rate, seed=2),
        service=ServiceModel(t_hit=1.0, t_miss=50.0, t_item=1.0),
        concurrency=3,
        queue=queue,
    )


@pytest.mark.parametrize("policy", ["item-lru", "iblp", "gcm"])
@pytest.mark.parametrize("scheme", ["block", "item"])
def test_single_shard_serving_bit_identical(policy, scheme):
    tr = trace()
    reference = serve_policy(policy, CAPACITY, tr, config())
    clustered = serve_cluster(
        policy, CAPACITY, tr, ClusterSpec(n_shards=1, scheme=scheme), config()
    )
    assert clustered.fields() == reference.fields()


@pytest.mark.parametrize("scheme", ["block", "item"])
@pytest.mark.parametrize("queue", ["fifo", "sjf"])
def test_multi_shard_serving_serves_every_request_once(scheme, queue):
    tr = trace()
    result = serve_cluster(
        "iblp",
        CAPACITY,
        tr,
        ClusterSpec(n_shards=4, scheme=scheme),
        config(queue=queue),
    )
    assert result.completions == len(tr)
    assert result.sim.accesses == len(tr)
    total_hits = result.sim.temporal_hits + result.sim.spatial_hits
    assert result.sim.misses + total_hits == len(tr)
    assert result.p99 >= result.p50 > 0


def test_scheme_shows_up_in_tail_latency_on_spatial_workload():
    """Same arrivals, same servers: item-striping's lost spatial hits
    surface as a strictly worse mean latency than block-aware hashing
    on the same 4-shard cluster."""
    tr = trace()
    block = serve_cluster(
        "iblp", 256, tr, ClusterSpec(n_shards=4, scheme="block"), config()
    )
    item = serve_cluster(
        "iblp", 256, tr, ClusterSpec(n_shards=4, scheme="item"), config()
    )
    assert block.arrivals == item.arrivals
    assert item.sim.miss_ratio > block.sim.miss_ratio
    assert item.mean_latency > block.mean_latency


def test_cluster_engine_merges_counters_and_tracks_outcomes():
    tr = trace()
    engine = ClusterEngine(
        "item-lru", CAPACITY, tr, ClusterSpec(n_shards=4, scheme="block")
    )
    for item in tr.items[:500].tolist():
        engine.access(item)
        assert engine.last_outcome is not None
        assert engine.last_outcome.item == item
    shard_sums = {
        f: sum(getattr(r, f) for r in engine.shard_results())
        for f in ("accesses", "misses", "loaded_items", "evicted_items")
    }
    assert engine.result.accesses == 500 == shard_sums["accesses"]
    assert engine.result.misses == shard_sums["misses"]
    assert engine.result.loaded_items == shard_sums["loaded_items"]
    assert engine.result.evicted_items == shard_sums["evicted_items"]
    assert len(engine.resident) <= CAPACITY


def sparse_trace():
    """3000 accesses over 2000 distinct items of a 2**24-item universe."""
    rng = np.random.default_rng(4)
    distinct = rng.choice(1 << 24, size=2000, replace=False)
    items = distinct[rng.integers(0, distinct.size, size=3000)]
    return Trace(items, FixedBlockMapping(1 << 24, 8))


def test_serving_memory_follows_the_trace_not_the_universe():
    tr = sparse_trace()
    tracemalloc.start()
    try:
        result = serve_cluster(
            "iblp",
            CAPACITY,
            tr,
            ClusterSpec(n_shards=4, scheme="item"),
            config(queue="sjf"),
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.completions == len(tr)
    # A universe-sized routing table alone would be 128 MiB.
    assert peak < 16 * 2**20, f"serve_cluster peaked at {peak / 2**20:.1f} MiB"


def test_items_outside_the_trace_are_never_resident():
    tr = sparse_trace()
    engine = ClusterEngine(
        "item-lru", CAPACITY, tr, ClusterSpec(n_shards=4, scheme="block")
    )
    for item in tr.items[:200].tolist():
        engine.access(item)
    absent = int(np.setdiff1d(np.arange(64), tr.items)[0])
    assert absent not in engine.resident
    assert tr.items[199] in engine.resident
