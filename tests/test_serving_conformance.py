"""Differential conformance: serving adds time, never changes decisions.

With the default FIFO queue and no drop knobs, requests start service
in arrival order — trace order — so the serving layer must produce the
*bit-identical* classified access stream (position, item,
miss/temporal/spatial) and the bit-identical embedded ``SimResult``
that offline ``simulate()`` produces for the same policy and trace.
This holds for referee-only policies and for policies the fast replay
kernels cover (the kernels are conformance-proven against the referee,
so serving must agree with ``simulate(fast=True)`` too).

The non-conformant knobs are exercised the other way around: drops
must *skip* cache accesses entirely (never a half-counted request),
and the SJF queue may reorder but must still serve every request
exactly once.
"""

import pytest

from repro.campaign.runner import result_fields
from repro.core.engine import simulate
from repro.policies import make_policy
from repro.serving import ArrivalSpec, ServiceModel, ServingConfig, serve
from repro.workloads import hot_and_stream, markov_spatial

CAPACITY = 64

#: (policy, has fast kernel) — mix of kernel-backed and referee-only.
POLICIES = [
    ("item-lru", True),
    ("iblp", True),
    ("block-fifo", True),
    ("gcm", True),
    ("belady-item", False),
]


def traces():
    return [
        markov_spatial(length=4000, universe=512, block_size=8, stay=0.85, seed=3),
        hot_and_stream(
            length=4000, hot_items=64, stream_blocks=64, block_size=8, seed=4
        ),
    ]


def default_config():
    return ServingConfig(
        arrival=ArrivalSpec(process="poisson", rate=0.01, seed=2),
        service=ServiceModel(t_hit=1.0, t_miss=50.0, t_item=1.0),
        concurrency=3,
    )


@pytest.mark.parametrize("policy_name,has_fast", POLICIES)
def test_taxonomy_bit_identical_to_simulate(policy_name, has_fast):
    for trace in traces():
        offline_stream = []
        offline = simulate(
            make_policy(policy_name, CAPACITY, trace.mapping),
            trace,
            on_access=lambda p, i, k: offline_stream.append((p, i, k)),
        )
        serving_stream = []
        served = serve(
            make_policy(policy_name, CAPACITY, trace.mapping),
            trace,
            default_config(),
            on_access=lambda p, i, k: serving_stream.append((p, i, k)),
        )
        # Same per-access stream, same aggregate result — bit for bit.
        assert serving_stream == offline_stream
        assert result_fields(served.sim) == result_fields(offline)
        if has_fast:
            fast = simulate(
                make_policy(policy_name, CAPACITY, trace.mapping), trace, fast=True
            )
            assert result_fields(served.sim) == result_fields(fast)


def test_conformance_holds_under_bursty_and_closed_arrivals():
    """Arrival timing shifts queueing, never decisions: any drop-free
    FIFO config yields the same access stream."""
    trace = traces()[0]
    reference = simulate(make_policy("iblp", CAPACITY, trace.mapping), trace)
    for arrival in (
        ArrivalSpec(process="mmpp", rate=0.02, seed=7),
        ArrivalSpec(process="constant", rate=0.05),
        ArrivalSpec(process="closed", clients=6, think=3.0, seed=8),
    ):
        served = serve(
            make_policy("iblp", CAPACITY, trace.mapping),
            trace,
            ServingConfig(arrival=arrival, concurrency=2),
        )
        assert result_fields(served.sim) == result_fields(reference)


def test_drops_skip_cache_entirely():
    trace = traces()[0]
    config = ServingConfig(
        arrival=ArrivalSpec(process="mmpp", rate=0.05, seed=5),
        service=ServiceModel(t_hit=1.0, t_miss=80.0),
        concurrency=1,
        queue_limit=4,
        timeout=100.0,
    )
    served = serve(make_policy("item-lru", CAPACITY, trace.mapping), trace, config)
    assert served.dropped > 0  # the config is tight enough to shed load
    assert served.sim.accesses == served.arrivals - served.dropped
    assert served.completions == served.sim.accesses


def test_sjf_serves_every_request_once():
    trace = traces()[0]
    positions = []
    served = serve(
        make_policy("item-lru", CAPACITY, trace.mapping),
        trace,
        ServingConfig(
            arrival=ArrivalSpec(process="poisson", rate=0.05, seed=6),
            service=ServiceModel(t_hit=1.0, t_miss=80.0),
            concurrency=1,
            queue="sjf",
        ),
        on_access=lambda p, i, k: positions.append(p),
    )
    # SJF may reorder (that is its point) but must not duplicate/skip.
    assert sorted(positions) == list(range(len(trace.items)))
    assert served.completions == len(trace.items)
