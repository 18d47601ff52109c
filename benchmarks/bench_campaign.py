"""Campaign orchestration: memoization payoff and overhead.

Three measurements:

* cold campaign vs the same grid computed without a store — the
  orchestration overhead (store writes, journaling, hashing) on a real
  grid.  The store-less baseline (``plain_sweep``) is
  ``UNCACHED.simulate_many`` per trace, the experiments' batched
  compute step;
* warm re-run of the same campaign — everything served from the
  content-addressed store, which must be far faster than recomputing;
* :class:`~repro.campaign.CampaignCache`-backed ablation study — the
  experiment-integration path, warm vs cold.

Artifacts: ``out/campaign_rows.csv`` (the grid rows, identical cold
and warm), ``out/campaign_timing.csv``, and the flight-recorder file
``BENCH_campaign.json`` (via ``benchmarks/_harness.py``).
"""

from __future__ import annotations

import time

from _harness import metric, write_bench
from repro.analysis.tables import format_table, write_csv
from repro.campaign import (
    UNCACHED,
    CampaignCache,
    CampaignRunner,
    CampaignSpec,
    TraceSpec,
)
from repro.experiments import ablation

SPEC_TRACES = {
    "zipf": TraceSpec(
        kind="workload",
        name="zipf",
        params={
            "length": 30_000,
            "universe": 2048,
            "alpha": 1.0,
            "block_size": 8,
            "seed": 0,
        },
    ),
    "markov": TraceSpec(
        kind="workload",
        name="markov",
        params={
            "length": 30_000,
            "universe": 2048,
            "block_size": 8,
            "stay": 0.8,
            "seed": 0,
        },
    ),
}


def _spec() -> CampaignSpec:
    return CampaignSpec.from_grid(
        name="bench",
        policies=["item-lru", "block-lru", "iblp", "gcm"],
        capacities=[64, 256],
        traces=SPEC_TRACES,
        fast=True,
    )


def test_campaign_cold_warm_vs_sweep(benchmark, tmp_path, out_dir):
    spec = _spec()

    t0 = time.perf_counter()
    traces = {key: t.materialize() for key, t in spec.traces.items()}
    results = {}
    for key, trace in traces.items():
        idx = [i for i, c in enumerate(spec.cells) if c.trace == key]
        batch = [(spec.cells[i].policy, spec.cells[i].capacity) for i in idx]
        results.update(zip(idx, UNCACHED.simulate_many(batch, trace)))
    sweep_s = time.perf_counter() - t0
    sweep_rows = [
        dict(results[i].as_row(), fast=c.fast) for i, c in enumerate(spec.cells)
    ]

    t0 = time.perf_counter()
    with CampaignRunner(tmp_path, spec) as runner:
        cold = runner.run()
    cold_s = time.perf_counter() - t0
    assert cold.computed == len(spec.cells)

    def warm_run():
        with CampaignRunner(tmp_path, spec) as runner:
            return runner.run()

    warm = benchmark.pedantic(warm_run, rounds=3, iterations=1)
    assert warm.computed == 0
    assert warm.memo_hits == len(spec.cells)

    rows = warm.rows()
    for row in rows:
        row.pop("trace")
    assert rows == sweep_rows  # warm rows bit-identical to the baseline

    write_csv(warm.rows(), out_dir / "campaign_rows.csv")
    timing = [
        {"mode": "plain_sweep", "seconds": sweep_s},
        {"mode": "campaign_cold", "seconds": cold_s},
        {"mode": "campaign_warm", "seconds": warm.seconds},
    ]
    write_csv(timing, out_dir / "campaign_timing.csv")
    write_bench(
        "campaign",
        metrics={
            "plain_sweep_seconds": metric(sweep_s, "s", "lower"),
            "cold_seconds": metric(cold_s, "s", "lower"),
            "warm_seconds": metric(warm.seconds, "s", "lower"),
            "cold_overhead_x": metric(cold_s / sweep_s, "x", "lower"),
            "warm_speedup": metric(sweep_s / warm.seconds, "x", "higher"),
        },
        extra={"cells": len(spec.cells), "policies": 4, "capacities": 2},
    )
    print()
    print(format_table(timing, title="campaign orchestration timing"))
    # The whole point: a warm campaign must crush recomputation.
    assert warm.seconds < 0.5 * sweep_s


def test_campaign_cache_ablation(benchmark, tmp_path, out_dir):
    kwargs = {"k": 256, "B": 8}

    with CampaignCache(tmp_path) as cache:
        cold = ablation.gcm_variants(cache=cache, **kwargs)
        assert cache.computed > 0 and cache.hits == 0

    def warm():
        with CampaignCache(tmp_path) as cache:
            rows = ablation.gcm_variants(cache=cache, **kwargs)
            return rows, cache

    rows, cache = benchmark.pedantic(warm, rounds=3, iterations=1)
    assert cache.computed == 0 and cache.hit_ratio == 1.0
    assert rows == cold
    write_csv(rows, out_dir / "campaign_cache_ablation.csv")
    print()
    print(format_table(rows, title="cache-backed §6 GCM variants"))
