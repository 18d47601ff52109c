"""The fast serving paths are bit-identical to the slow ones.

Under the FIFO queue with no drops, :func:`repro.serving.serve` runs one
fast-kernel pass up front instead of stepping the referee, and with
open-loop arrivals it computes start and finish times from arrays
instead of stepping the event loop.  Under SJF or drops it steps the
kernel once per started request instead of the referee.  Each slow path
stays reachable and is the oracle for the fast one:

* ``engine=Engine(policy, mapping)`` forces the referee, which steps
  ``Engine.access`` once per started request;
* an ``on_event`` observer forces the event loop, which emits events.

These tests pin that every pair produces the same
:meth:`ServingResult.fields` payload (histograms included), that the
default path really skips the slow one, and that the ``serve`` span
names the path taken.
"""

import dataclasses
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import Engine
from repro.core.trace import Trace
from repro.policies import make_policy
from repro.serving import ArrivalSpec, ServiceModel, ServingConfig, serve
from repro.serving.histograms import LatencyHistogram
from repro.telemetry import spans
from repro.workloads import markov_spatial

POLICIES = ("gcm", "gcm-markall", "gcm-partial", "iblp", "item-lru")
CAPACITY = 48


@pytest.fixture(scope="module")
def trace():
    return markov_spatial(length=3000, universe=384, block_size=8, stay=0.85, seed=5)


def poisson_fifo(service_dist="deterministic"):
    return ServingConfig(
        arrival=ArrivalSpec(process="poisson", rate=0.02, seed=3),
        service=ServiceModel(t_hit=1.0, t_miss=40.0, t_item=1.0, dist=service_dist),
        concurrency=3,
    )


@pytest.fixture
def access_calls(monkeypatch):
    """Count every ``Engine.access`` call made while the test runs."""
    calls = [0]
    real = Engine.access

    def spy(self, item):
        calls[0] += 1
        return real(self, item)

    monkeypatch.setattr(Engine, "access", spy)
    return calls


@pytest.mark.parametrize("service_dist", ["deterministic", "exponential"])
@pytest.mark.parametrize("name", POLICIES)
def test_kernel_path_fields_match_referee(name, service_dist, trace, access_calls):
    config = poisson_fifo(service_dist)
    fast = serve(make_policy(name, CAPACITY, trace.mapping), trace, config)
    assert access_calls[0] == 0
    referee = serve(
        None,
        trace,
        config,
        engine=Engine(make_policy(name, CAPACITY, trace.mapping), trace.mapping),
    )
    assert access_calls[0] == len(trace)
    assert fast.fields() == referee.fields()


def traced_serve(tmp_path, *args, **kwargs):
    """``serve()`` with spans on: the result and the ``serve`` span's attrs."""
    path = tmp_path / "spans.jsonl"
    spans.enable(path)
    try:
        result = serve(*args, **kwargs)
    finally:
        spans.disable()
    records = [json.loads(line) for line in path.read_text().splitlines()]
    (attrs,) = [r["attrs"] for r in records if r.get("name") == "serve"]
    return result, attrs


@pytest.mark.parametrize(
    "stream, loop_reason",
    [
        ({"queue": "sjf"}, "sjf"),
        ({"queue_limit": 2}, "drops"),
        ({"timeout": 30.0}, "drops"),
        ({"queue": "sjf", "queue_limit": 3, "timeout": 60.0}, "sjf"),
    ],
)
@pytest.mark.parametrize("dist", ["deterministic", "exponential"])
@pytest.mark.parametrize("name", POLICIES + ("iblp-adaptive", "item-clock"))
def test_stepped_kernel_path_matches_referee(
    tmp_path, trace, access_calls, name, dist, stream, loop_reason
):
    config = dataclasses.replace(queued_config("mmpp", 2, dist), **stream)
    fast_seen, referee_seen = [], []
    fast, attrs = traced_serve(
        tmp_path,
        make_policy(name, CAPACITY, trace.mapping),
        trace,
        config,
        on_access=lambda *access: fast_seen.append(access),
    )
    assert access_calls[0] == 0
    assert (attrs["path"], attrs["fallback_reason"]) == ("kernel", None)
    assert (attrs["loop"], attrs["loop_reason"]) == ("events", loop_reason)
    referee = serve(
        None,
        trace,
        config,
        engine=Engine(make_policy(name, CAPACITY, trace.mapping), trace.mapping),
        on_access=lambda *access: referee_seen.append(access),
    )
    assert access_calls[0] == referee.sim.accesses > 0
    assert fast.fields() == referee.fields()
    assert fast_seen == referee_seen
    assert fast.dropped or config.queue == "sjf"


# -- array form vs event loop ------------------------------------------------


def both_forms(tmp_path, name, trace, config):
    """Serve once on the default path and once on the event loop.

    Returns ``(default, loop, default_attrs, default_accesses,
    loop_accesses)``; the ``on_access`` streams are recorded for both.
    """
    fast_seen, loop_seen = [], []
    fast, attrs = traced_serve(
        tmp_path,
        make_policy(name, CAPACITY, trace.mapping),
        trace,
        config,
        on_access=lambda *access: fast_seen.append(access),
    )
    loop = serve(
        make_policy(name, CAPACITY, trace.mapping),
        trace,
        config,
        on_access=lambda *access: loop_seen.append(access),
        on_event=lambda *event: None,
    )
    return fast, loop, attrs, fast_seen, loop_seen


def queued_config(process, concurrency, dist="deterministic", **service):
    # ~0.9 load for a ~10-unit mean service: queues form (MMPP bursts
    # at twice the rate overload outright), so waits and queue peaks
    # are exercised, not just the idle-server case.
    model = {"t_hit": 1.0, "t_miss": 40.0, "t_item": 1.0, **service}
    return ServingConfig(
        arrival=ArrivalSpec(process=process, rate=0.0937 * concurrency, seed=11),
        service=ServiceModel(dist=dist, seed=4, **model),
        concurrency=concurrency,
    )


@pytest.mark.parametrize("dist", ["deterministic", "exponential"])
@pytest.mark.parametrize("concurrency", [1, 3, 8])
@pytest.mark.parametrize("process", ["poisson", "mmpp", "constant"])
@pytest.mark.parametrize("name", ["iblp", "item-lru", "gcm"])
def test_array_form_matches_event_loop(tmp_path, trace, name, process, concurrency, dist):
    config = queued_config(process, concurrency, dist)
    fast, loop, attrs, fast_seen, loop_seen = both_forms(tmp_path, name, trace, config)
    assert attrs["path"] == "kernel"
    assert (attrs["loop"], attrs["loop_reason"]) == ("array", None)
    assert fast.fields() == loop.fields()
    assert fast_seen == loop_seen
    assert len(fast_seen) == len(trace)
    assert loop.queue_peak > 0 and loop.wait_sum > 0


@given(
    process=st.sampled_from(["poisson", "mmpp", "constant"]),
    rate=st.floats(min_value=0.005, max_value=2.0),
    concurrency=st.integers(min_value=1, max_value=6),
    t_hit=st.sampled_from([0.0, 0.25, 1.0, 1.7]),
    t_miss=st.sampled_from([0.5, 13.0, 40.0]),
    t_item=st.sampled_from([0.0, 1.0, 0.3]),
    dist=st.sampled_from(["deterministic", "exponential"]),
    length=st.integers(min_value=0, max_value=300),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=80, deadline=None)
def test_array_form_matches_event_loop_on_random_configs(
    process, rate, concurrency, t_hit, t_miss, t_item, dist, length, seed
):
    small = markov_spatial(length=max(length, 1), universe=64, block_size=4, seed=seed)
    small = Trace(small.items[:length], small.mapping, dict(small.metadata))
    config = ServingConfig(
        arrival=ArrivalSpec(process=process, rate=rate, seed=seed),
        service=ServiceModel(
            t_hit=t_hit, t_miss=t_miss, t_item=t_item, dist=dist, seed=seed
        ),
        concurrency=concurrency,
    )
    fast_seen, loop_seen = [], []
    fast = serve(
        make_policy("iblp", 12, small.mapping),
        small,
        config,
        on_access=lambda *access: fast_seen.append(access),
    )
    loop = serve(
        make_policy("iblp", 12, small.mapping),
        small,
        config,
        on_access=lambda *access: loop_seen.append(access),
        on_event=lambda *event: None,
    )
    assert fast.fields() == loop.fields()
    assert fast_seen == loop_seen


def test_constant_arrival_tie_stays_on_event_loop(tmp_path, trace):
    # Arrivals every 2 units; a 2-unit miss on an idle server finishes
    # exactly when the next request arrives.  The heap orders that tie
    # by insertion, which the arrays do not model.
    config = ServingConfig(
        arrival=ArrivalSpec(process="constant", rate=0.5),
        service=ServiceModel(t_hit=1.0, t_miss=1.0),
    )
    fast, loop, attrs, fast_seen, loop_seen = both_forms(tmp_path, "iblp", trace, config)
    assert (attrs["loop"], attrs["loop_reason"]) == ("events", "tie")
    assert fast.fields() == loop.fields()
    assert fast_seen == loop_seen


def test_equal_finish_times_complete_in_index_order(tmp_path, trace):
    # Integer arrivals and half-integer services: requests started at
    # different times finish together, and never when one arrives.
    config = ServingConfig(
        arrival=ArrivalSpec(process="constant", rate=0.5),
        service=ServiceModel(t_hit=0.5, t_miss=40.0, t_item=1.0),
        concurrency=16,
    )
    fast, attrs = traced_serve(
        tmp_path, make_policy("iblp", CAPACITY, trace.mapping), trace, config
    )
    done = []
    loop = serve(
        make_policy("iblp", CAPACITY, trace.mapping),
        trace,
        config,
        on_event=lambda name, t, index: done.append(t) if name == "done" else None,
    )
    assert attrs["loop"] == "array"
    assert len(set(done)) < len(done)
    assert fast.fields() == loop.fields()


@pytest.mark.parametrize("length", [0, 1, 2])
def test_tiny_traces(tmp_path, trace, length):
    tiny = Trace(trace.items[:length], trace.mapping, dict(trace.metadata))
    fast, loop, attrs, fast_seen, loop_seen = both_forms(
        tmp_path, "iblp", tiny, queued_config("poisson", 3)
    )
    assert attrs["loop"] == "array"
    assert fast.fields() == loop.fields()
    assert fast_seen == loop_seen
    assert fast.completions == length


@pytest.mark.parametrize("dist", ["deterministic", "exponential"])
def test_zero_hit_time(tmp_path, trace, dist):
    # Free hits finish at their own start: on an idle server that ties
    # with their own arrival, so the run keeps the event loop.
    config = queued_config("poisson", 3, dist, t_hit=0.0)
    fast, loop, attrs, fast_seen, loop_seen = both_forms(tmp_path, "iblp", trace, config)
    assert attrs["loop_reason"] == "tie"
    assert fast.fields() == loop.fields()
    assert fast_seen == loop_seen


@pytest.mark.parametrize(
    "config_kwargs, kwargs, loop_reason",
    [
        ({}, {"on_event": lambda *event: None}, "on_event"),
        ({"arrival": ArrivalSpec(process="closed", clients=3, think=5.0)}, {}, "closed-loop"),
        ({"queue": "sjf"}, {}, "sjf"),
        ({"queue_limit": 4}, {}, "drops"),
        ({"timeout": 50.0}, {}, "drops"),
        ({"service": ServiceModel(size_dist="etc")}, {}, "etc-sizes"),
    ],
)
def test_serve_span_names_the_loop(tmp_path, trace, config_kwargs, kwargs, loop_reason):
    config = ServingConfig(**config_kwargs)
    policy = make_policy("iblp", CAPACITY, trace.mapping)
    result, attrs = traced_serve(tmp_path, policy, trace, config, **kwargs)
    assert (attrs["loop"], attrs["loop_reason"]) == ("events", loop_reason)
    assert result.arrivals == len(trace)


def test_array_form_peak_memory():
    trace = markov_spatial(length=40_000, universe=4096, block_size=8, stay=0.85, seed=1)
    config = ServingConfig(
        arrival=ArrivalSpec(process="poisson", rate=0.8 * 4 / 101, seed=1),
        service=ServiceModel(t_hit=1.0, t_miss=100.0, t_item=1.0),
        concurrency=4,
    )

    def peak(**kwargs):
        policy = make_policy("iblp", 256, trace.mapping)
        tracemalloc.start()
        try:
            serve(policy, trace, config, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    serve(make_policy("iblp", 256, trace.mapping), trace, config)  # warm imports
    array_peak = peak()
    loop_peak = peak(on_event=lambda *event: None)
    assert array_peak <= 1.25 * loop_peak, (array_peak, loop_peak)


# -- batched histogram recording ---------------------------------------------

LO, PER_DECADE, DECADES = 1e-3, 20, 4
#: Exact bucket edges ``lo * 10**(k / per_decade)``, where float rounding
#: of ``log10`` decides the bucket.
EDGES = [LO * 10 ** (k / PER_DECADE) for k in range(PER_DECADE * DECADES + 3)]
latencies = st.one_of(
    st.floats(min_value=0.0, max_value=1e3 * LO * 10**DECADES),  # overflow too
    st.floats(min_value=0.0, max_value=LO),  # underflow
    st.sampled_from(EDGES),
)


@given(
    st.lists(latencies, max_size=200),
    st.lists(latencies, max_size=5),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=200, deadline=None)
def test_record_many_equals_sequential_record(values, before, repeat):
    values = values * repeat  # repeated values
    one = LatencyHistogram(LO, PER_DECADE, DECADES)
    many = LatencyHistogram(LO, PER_DECADE, DECADES)
    for value in before:  # start from a non-empty histogram
        one.record(value)
        many.record(value)
    for value in values:
        one.record(value)
    many.record_many(values)
    assert many.as_dict() == one.as_dict()
    assert many.total == one.total


def test_record_many_empty_and_chunked():
    hist = LatencyHistogram()
    hist.record_many([])
    assert hist.as_dict() == LatencyHistogram().as_dict()
    values = [0.5 + (i % 97) * 1.37 for i in range(20_000)]  # > one chunk
    one = LatencyHistogram()
    for value in values:
        one.record(value)
    hist.record_many(values)
    assert hist.as_dict() == one.as_dict()
