"""E-EXT: library extensions beyond the paper's read-only model.

Three extension subsystems, each with a measurable claim:

* **Two-level hierarchy** (`repro.hierarchy`) — Figure 1's concrete
  system: block-aware policies cut row activations on interleaved
  streams and amortize each activation over many useful items.
* **Write-back accounting** (`repro.core.readwrite`) — footnote 1's
  write side: granularity change mirrors onto write amplification
  (sequential writes coalesce; scattered writes pay whole-block RMWs).
* **Mattson MRC** (`repro.analysis.mrc`) — one-pass miss-ratio curves
  that agree exactly with simulation for the stack policies.
"""

from __future__ import annotations

import pytest

from repro.analysis.mrc import miss_ratio_curve
from repro.analysis.tables import format_table, write_csv
from repro.core.engine import simulate
from repro.core.readwrite import WritebackSimulator, make_rw_trace
from repro.core.reuse import stack_distances
from repro.hierarchy import TwoLevelSimulator, traffic_cost
from repro.policies import IBLP, BlockLRU, ItemLRU
from repro.workloads import (
    dram_cache_workload,
    interleaved_streams,
    sequential_scan,
    zipf_items,
)


def test_hierarchy_row_activation_story(benchmark, out_dir):
    def run():
        trace = interleaved_streams(
            24_000, streams=8, blocks_per_stream=32, block_size=8
        )
        k = 256
        rows = []
        for policy in (
            ItemLRU(k, trace.mapping),
            BlockLRU(k, trace.mapping),
            IBLP(k, trace.mapping),
        ):
            stats = TwoLevelSimulator(policy, open_rows=1).run(trace)
            row = stats.as_row()
            row["traffic_cost"] = traffic_cost(stats)
            rows.append(row)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    write_csv(rows, out_dir / "ext_hierarchy.csv")
    print()
    print(format_table(rows, title="two-level row-buffer traffic"))
    by = {r["policy"]: r for r in rows}
    assert (
        by["item-lru"]["row_activations"]
        > 4 * by["iblp"]["row_activations"]
    )
    assert by["iblp"]["traffic_cost"] < by["item-lru"]["traffic_cost"]


def test_write_amplification_story(benchmark, out_dir):
    def run():
        rows = []
        # Sequential writes: block granularity retires clean.
        seq = make_rw_trace(sequential_scan(2048, block_size=8), 1.0, seed=0)
        for policy in (ItemLRU(128, seq.trace.mapping), BlockLRU(128, seq.trace.mapping)):
            stats = WritebackSimulator(policy).run(seq)
            row = stats.as_row()
            row["workload"] = "sequential"
            rows.append(row)
        # Scattered writes (zipf over scattered items): RMW-heavy.
        zipf = make_rw_trace(
            zipf_items(8000, 2048, alpha=1.0, block_size=8, seed=1), 0.5, seed=2
        )
        for policy in (ItemLRU(128, zipf.trace.mapping), BlockLRU(128, zipf.trace.mapping)):
            stats = WritebackSimulator(policy).run(zipf)
            row = stats.as_row()
            row["workload"] = "zipf"
            rows.append(row)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    write_csv(rows, out_dir / "ext_writeback.csv")
    print()
    print(format_table(rows, title="write-back amplification"))
    by = {(r["workload"], r["policy"]): r for r in rows}
    assert by[("sequential", "block-lru")]["rmw_fraction"] == 0.0
    assert by[("sequential", "block-lru")]["write_amplification"] == (
        pytest.approx(1.0)
    )
    assert by[("zipf", "item-lru")]["write_amplification"] > 1.5


def test_mrc_matches_simulation(benchmark, out_dir):
    trace = zipf_items(30_000, universe=4096, alpha=1.0, block_size=8, seed=3)

    def run():
        dists = stack_distances(trace.items)
        return miss_ratio_curve(dists, [16, 64, 256, 1024])

    curve = benchmark(run)
    rows = [{"capacity": k, "mrc_miss_ratio": r} for k, r in curve]
    for row in rows:
        sim = simulate(ItemLRU(row["capacity"], trace.mapping), trace)
        row["simulated"] = sim.miss_ratio
        assert row["simulated"] == pytest.approx(
            row["mrc_miss_ratio"], abs=1e-12
        )
    write_csv(rows, out_dir / "ext_mrc.csv")
    print()
    print(format_table(rows, title="Mattson MRC vs simulation"))
