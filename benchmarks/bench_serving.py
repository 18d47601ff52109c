"""E-SERVING: request-level simulator throughput + latency separation.

Times one serving run (IBLP on a spatial Markov trace at 80% of
all-miss capacity) against the plain referee ``simulate()`` on the
same policy/trace.  The serving layer drives the same referee engine
and adds the event heap, queue bookkeeping, and histograms on top, so
the *overhead ratio* ``serving_seconds / referee_seconds`` is the
machine-independent cost of the serving layer — the number the CI
gate watches.  The run also re-asserts the conformance invariant
(serving's cache stream == offline's) and the paper-facing acceptance
criterion: IBLP's p99 beats item-LRU's p99 on this workload at this
load (reported as the machine-independent ``p99_separation`` ratio).

Now that default serving runs on the fast kernels and the array form,
the run also times the same ``serve()`` forced onto the referee engine
and the event loop (``engine=Engine(...)``) and reports
``fast_serving_speedup = engine_serving_seconds / serving_seconds``,
re-asserting that both give the same result payload.

Writes ``BENCH_serving.json`` through the flight-recorder harness.

Knobs (env vars, so CI can shrink the run):

* ``REPRO_SERVING_BENCH_LEN`` — trace length (default 300_000)
* ``REPRO_SERVING_GATE``      — max overhead ratio (default 8.0)

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_serving.py``.
"""

from __future__ import annotations

import os
import time

import pytest

from _harness import metric, write_bench
from repro.campaign.runner import result_fields
from repro.core.engine import Engine, simulate
from repro.policies import make_policy
from repro.serving import ArrivalSpec, ServiceModel, ServingConfig, serve
from repro.workloads import markov_spatial

LENGTH = int(os.environ.get("REPRO_SERVING_BENCH_LEN", "300000"))
GATE = float(os.environ.get("REPRO_SERVING_GATE", "8.0"))
CAPACITY = 256
T_HIT, T_MISS, T_ITEM = 1.0, 100.0, 1.0
CONCURRENCY = 4
LOAD = 0.8


@pytest.fixture(scope="module")
def bench_trace():
    return markov_spatial(
        length=LENGTH, universe=4096, block_size=8, stay=0.85, seed=7
    )


def bench_config():
    rate = LOAD * CONCURRENCY / (T_HIT + T_MISS)
    return ServingConfig(
        arrival=ArrivalSpec(process="poisson", rate=rate, seed=1),
        service=ServiceModel(t_hit=T_HIT, t_miss=T_MISS, t_item=T_ITEM),
        concurrency=CONCURRENCY,
    )


def _timed_serve(policy_name, trace):
    policy = make_policy(policy_name, CAPACITY, trace.mapping)
    t0 = time.perf_counter()
    result = serve(policy, trace, bench_config())
    return time.perf_counter() - t0, result


def test_serving_overhead_gate(bench_trace, out_dir):
    t_serve, served = _timed_serve("iblp", bench_trace)

    t0 = time.perf_counter()
    offline = simulate(make_policy("iblp", CAPACITY, bench_trace.mapping), bench_trace)
    t_referee = time.perf_counter() - t0

    # Serving must not have changed a single cache decision.
    assert result_fields(served.sim) == result_fields(offline)

    # The acceptance criterion, as a bench-visible ratio: granularity-
    # aware loading must beat item granularity on p99 latency here.
    _, rival = _timed_serve("item-lru", bench_trace)
    separation = rival.p99 / served.p99

    # The same serving run forced onto the referee engine and the event
    # loop: the slow path the fast one must equal.
    t0 = time.perf_counter()
    slow = serve(
        None,
        bench_trace,
        bench_config(),
        engine=Engine(
            make_policy("iblp", CAPACITY, bench_trace.mapping), bench_trace.mapping
        ),
    )
    t_engine = time.perf_counter() - t0
    assert slow.fields() == served.fields()

    overhead = t_serve / t_referee
    speedup = t_engine / t_serve
    path = write_bench(
        "serving",
        metrics={
            "serving_seconds": metric(t_serve, "s", "lower"),
            "referee_seconds": metric(t_referee, "s", "lower"),
            "requests_per_second": metric(LENGTH / t_serve, "req/s", "higher"),
            "overhead_vs_referee": metric(overhead, "x", "lower"),
            "p99_separation": metric(separation, "x", "higher"),
            "engine_serving_seconds": metric(t_engine, "s", "lower"),
            "fast_serving_speedup": metric(speedup, "x", "higher"),
        },
        extra={
            "trace_length": LENGTH,
            "capacity": CAPACITY,
            "concurrency": CONCURRENCY,
            "load": LOAD,
            "iblp_p99": served.p99,
            "item_lru_p99": rival.p99,
            "iblp_miss_ratio": served.sim.miss_ratio,
            "item_lru_miss_ratio": rival.sim.miss_ratio,
            "gate": GATE,
        },
    )
    print(
        f"\nserving: {LENGTH} reqs in {t_serve:.2f}s "
        f"({LENGTH / t_serve:,.0f} req/s), referee {t_referee:.2f}s, "
        f"overhead {overhead:.2f}x, p99 separation {separation:.2f}x, "
        f"engine-path serving {t_engine:.2f}s (fast path {speedup:.1f}x) -> {path}"
    )
    assert overhead <= GATE, (
        f"serving overhead {overhead:.2f}x above the {GATE:.1f}x gate "
        f"(serving {t_serve:.2f}s vs referee {t_referee:.2f}s)"
    )
    assert separation > 1.0, (
        f"IBLP p99 {served.p99:.1f} not better than item-LRU p99 "
        f"{rival.p99:.1f} on the spatial workload"
    )
