"""E-SWEEP: batched multi-capacity sweeps vs the per-cell baseline.

Times an Item-LRU capacity sweep (12 capacities, 10^6-access Zipf
trace by default) two ways:

* **baseline** — the pre-batching parallel path, faithfully
  reproduced: a ``functools.partial(simulate_cell)`` worker (``sweep``
  collapses only cells bound for ``simulate_cell`` itself, so every
  cell replays alone) plus ``REPRO_NO_COMPILE_MEMO=1`` (the
  fingerprint-keyed compile memo would otherwise spare the baseline
  the per-cell recompiles it historically paid) and ``REPRO_NO_SHM=1``
  (per-cell trace pickling instead of arenas);
* **batched** — ``sweep`` as shipped: the grid collapses into one
  ``multi_policy_replay`` call in the parent, answered by a single
  Mattson pass.

Asserts the two row sets are bit-identical, re-certifies the batched
kernel against the validating referee on a trace prefix, writes
machine-readable ``BENCH_sweep.json`` through the flight-recorder
harness (wall times, cells/sec, speedup, git sha, machine
fingerprint), and enforces the acceptance gate:
``speedup >= REPRO_SWEEP_GATE`` (default 5.0).

Knobs (all env vars, so the CI smoke job can shrink the run):

* ``REPRO_SWEEP_BENCH_LEN``  — trace length (default 1_000_000)
* ``REPRO_SWEEP_BENCH_CAPS`` — number of capacities (default 12)
* ``REPRO_SWEEP_GATE``       — minimum speedup (default 5.0; CI uses a
  lower bar since multi-core runners parallelize the baseline away)

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_sweep.py``.
"""

from __future__ import annotations

import functools
import os
import time

import pytest

from _harness import metric, write_bench
from repro.analysis.sweep import default_workers, grid, simulate_cell, sweep
from repro.core.conformance import assert_multi_capacity_conformant
from repro.core.trace import Trace
from repro.workloads import zipf_items

LENGTH = int(os.environ.get("REPRO_SWEEP_BENCH_LEN", "1000000"))
N_CAPS = int(os.environ.get("REPRO_SWEEP_BENCH_CAPS", "12"))
GATE = float(os.environ.get("REPRO_SWEEP_GATE", "5.0"))
CONFORMANCE_PREFIX = 20_000


@pytest.fixture(scope="module")
def bench_trace():
    return zipf_items(LENGTH, universe=16384, alpha=1.0, block_size=8, seed=42)


@pytest.fixture(scope="module")
def capacities():
    return [2 ** (4 + i) for i in range(N_CAPS)]


def _strip(rows):
    return [
        {k: v for k, v in row.items() if k not in ("trace", "fast")}
        for row in rows
    ]


def _timed_sweep(worker, cells, workers):
    t0 = time.perf_counter()
    rows = sweep(worker, cells, parallel=True, max_workers=workers)
    return time.perf_counter() - t0, rows


def test_batched_sweep_gate(bench_trace, capacities, out_dir):
    assert len(capacities) >= 8  # the acceptance criterion's floor
    cells = grid(
        policy=["item-lru"], capacity=capacities, trace=[bench_trace]
    )
    workers = default_workers()

    saved = {
        key: os.environ.get(key)
        for key in ("REPRO_NO_COMPILE_MEMO", "REPRO_NO_SHM")
    }
    os.environ["REPRO_NO_COMPILE_MEMO"] = "1"
    os.environ["REPRO_NO_SHM"] = "1"
    try:
        t_baseline, baseline_rows = _timed_sweep(
            functools.partial(simulate_cell), cells, workers
        )
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value

    t_batched, batched_rows = _timed_sweep(simulate_cell, cells, workers)

    # Identical rows, cell for cell: batching is a pure optimization.
    assert _strip(batched_rows) == _strip(baseline_rows)

    # Re-certify against the validating referee on a prefix (the full
    # conformance suite covers this too; the bench keeps its own gate
    # honest even when run standalone).
    prefix = Trace(
        bench_trace.items[:CONFORMANCE_PREFIX],
        bench_trace.mapping,
        dict(bench_trace.metadata),
    )
    assert_multi_capacity_conformant("item-lru", prefix, capacities)

    speedup = t_baseline / t_batched
    path = write_bench(
        "sweep",
        metrics={
            "baseline_seconds": metric(t_baseline, "s", "lower"),
            "batched_seconds": metric(t_batched, "s", "lower"),
            "cells_per_second_batched": metric(
                len(cells) / t_batched, "cells/s", "higher"
            ),
            "speedup": metric(speedup, "x", "higher"),
        },
        extra={
            "policy": "item-lru",
            "trace_length": LENGTH,
            "capacities": capacities,
            "cells": len(cells),
            "workers": workers,
            "gate": GATE,
        },
    )
    print(
        f"\nbatched sweep: {len(cells)} cells, baseline {t_baseline:.2f}s, "
        f"batched {t_batched:.2f}s, speedup {speedup:.1f}x -> {path}"
    )
    assert speedup >= GATE, (
        f"batched sweep speedup {speedup:.2f}x below the {GATE:.1f}x gate "
        f"(baseline {t_baseline:.2f}s, batched {t_batched:.2f}s)"
    )
