"""Cluster serving bridge: the unmodified event loop over N shards.

``serve_cluster`` must collapse to single-cache ``serve`` exactly at
``n_shards=1`` — full :meth:`ServingResult.fields` payloads, latency
histograms included — because the serving loop is reused verbatim and
only the cache behind it changes.  Its per-shard kernel steppers must
match the referee oracle, ``serve(engine=ClusterEngine(...))``, field
for field without one ``Engine.access`` call.  Multi-shard runs must
still serve every arrival exactly once under both hash schemes and both
queue disciplines, with the scheme's effect confined to the cache
taxonomy.
"""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from repro.cluster import ClusterSpec
from repro.cluster.serving_bridge import ClusterEngine, serve_cluster
from repro.core.engine import Engine
from repro.core.mapping import FixedBlockMapping
from repro.core.trace import Trace
from repro.errors import ConfigurationError
from repro.serving import (
    ArrivalSpec,
    ServiceModel,
    ServingConfig,
    serve,
    serve_policy,
)
from repro.telemetry import spans
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


@pytest.fixture
def access_calls(monkeypatch):
    """Count every referee ``Engine.access`` and ``ClusterEngine.access``."""
    calls = {"engine": 0, "cluster": 0}
    for owner, key in ((Engine, "engine"), (ClusterEngine, "cluster")):
        real = owner.access

        def spy(self, item, real=real, key=key):
            calls[key] += 1
            return real(self, item)

        monkeypatch.setattr(owner, "access", spy)
    return calls


@pytest.mark.parametrize("policy", ["iblp", "item-lru", "gcm", "iblp-adaptive"])
@pytest.mark.parametrize(
    "stream",
    [
        {},
        {"queue": "sjf"},
        {"queue": "sjf", "queue_limit": 2, "timeout": 40.0},
        {"arrival": ArrivalSpec(process="closed", clients=5, think=10.0, seed=1)},
    ],
)
@pytest.mark.parametrize("shards, scheme", [(1, "block"), (4, "block"), (4, "item")])
def test_kernel_shards_match_cluster_engine_oracle(
    access_calls, policy, stream, shards, scheme
):
    tr = trace()
    spec = ClusterSpec(n_shards=shards, scheme=scheme)
    cfg = dataclasses.replace(
        config(rate=0.06),
        service=ServiceModel(
            t_hit=1.0, t_miss=50.0, t_item=1.0, dist="exponential", seed=3
        ),
        **stream,
    )
    fast_seen, oracle_seen = [], []
    fast = serve_cluster(
        policy, CAPACITY, tr, spec, cfg, on_access=lambda *a: fast_seen.append(a)
    )
    assert access_calls == {"engine": 0, "cluster": 0}
    oracle = serve(
        None,
        tr,
        cfg,
        engine=ClusterEngine(policy, CAPACITY, tr, spec),
        on_access=lambda *a: oracle_seen.append(a),
    )
    assert access_calls["cluster"] == oracle.sim.accesses > 0
    assert fast.fields() == oracle.fields()
    assert fast_seen == oracle_seen


@pytest.mark.parametrize(
    "policy, service, path, reason",
    [
        ("iblp", ServiceModel(), "kernel", None),
        ("iblp", ServiceModel(size_dist="etc"), "referee", "etc-sizes"),
        ("belady-item", ServiceModel(), "referee", "unsupported-policy"),
    ],
)
def test_cluster_serve_span_names_the_path(tmp_path, policy, service, path, reason):
    tr = trace()
    # FIFO: an offline policy cannot replay a reordered stream.
    cfg = dataclasses.replace(config(), service=service)
    out = tmp_path / "spans.jsonl"
    spans.enable(out)
    try:
        result = serve_cluster(policy, CAPACITY, tr, ClusterSpec(n_shards=4), cfg)
    finally:
        spans.disable()
    records = [json.loads(line) for line in out.read_text().splitlines()]
    (attrs,) = [r["attrs"] for r in records if r.get("name") == "cluster.serve"]
    assert (attrs["path"], attrs["fallback_reason"]) == (path, reason)
    assert result.completions == len(tr)


def _serve_single(policy, tr, cfg):
    return serve_policy(policy, CAPACITY, tr, cfg)


def _serve_sharded(policy, tr, cfg):
    return serve_cluster(policy, CAPACITY, tr, ClusterSpec(n_shards=4), cfg)


@pytest.mark.parametrize("entry", [_serve_single, _serve_sharded])
@pytest.mark.parametrize(
    "stream, field",
    [
        ({"queue": "sjf"}, "queue"),
        ({"queue_limit": 1}, "queue_limit"),
        ({"timeout": 25.0}, "timeout"),
    ],
)
@pytest.mark.parametrize("policy", ["belady-item", "belady-block"])
def test_offline_policy_out_of_order_is_refused_up_front(
    monkeypatch, entry, stream, field, policy
):
    import repro.serving.service as service

    def no_arrivals(*args, **kwargs):
        raise AssertionError("arrivals generated before the config was refused")

    monkeypatch.setattr(service, "generate_arrivals", no_arrivals)
    cfg = dataclasses.replace(config(rate=0.06), **stream)
    with pytest.raises(ConfigurationError, match=f"{policy}.*ServingConfig.{field}="):
        entry(policy, trace(), cfg)


@pytest.mark.parametrize("entry", [_serve_single, _serve_sharded])
@pytest.mark.parametrize(
    "arrival",
    [
        ArrivalSpec(process="poisson", rate=0.06, seed=2),
        ArrivalSpec(process="closed", clients=5, think=10.0, seed=1),
    ],
)
def test_offline_policy_still_serves_fifo_without_drops(entry, arrival):
    tr = trace()
    result = entry("belady-item", tr, dataclasses.replace(config(), arrival=arrival))
    assert result.completions == len(tr)
