"""Batched multi-capacity replay and the batching stage that uses it.

Two layers of guarantees:

* **Kernel** — ``multi_capacity_replay`` must be bit-identical to the
  validating referee at every capacity, on results *and* per-access
  outcome streams, across randomized geometries (the conformance suite
  and goldens pin this too; here we add randomized trials plus the
  support-predicate edge cases).
* **Batching** — ``CampaignCache.simulate_many`` must return results
  equal to per-cell replay, Mattson-collapse only when it is provably
  safe (kwarg-free capacity axis of a stack policy on the fast path),
  and replay per cell everywhere else; ``sweep`` is a plain per-cell
  map whose serial and parallel rows agree.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sweep import default_workers, grid, simulate_cell, sweep
from repro.campaign import UNCACHED
from repro.core.conformance import (
    assert_multi_capacity_conformant,
    check_multi_capacity,
    referee_outcomes,
)
from repro.core.fast import (
    MULTI_CAPACITY_POLICIES,
    multi_capacity_replay,
    multi_capacity_supported,
    stack_distances,
)
from repro.core.mapping import ExplicitBlockMapping, FixedBlockMapping
from repro.core.trace import Trace
from repro.errors import ConfigurationError
from repro.policies import make_policy
from repro.telemetry import spans

RESULT_FIELDS = (
    "accesses",
    "misses",
    "temporal_hits",
    "spatial_hits",
    "loaded_items",
    "evicted_items",
    "policy",
    "capacity",
    "metadata",
)


def _trace(items, universe, B, metadata=None) -> Trace:
    return Trace(
        np.asarray(items, dtype=np.int64),
        FixedBlockMapping(universe=universe, block_size=B),
        metadata or {},
    )


# -- stack distances ---------------------------------------------------------


def test_stack_distances_reference():
    # d a d d b d e: classic worked example.
    ids = np.array([3, 0, 3, 3, 1, 3, 4], dtype=np.int64)
    assert stack_distances(ids).tolist() == [-1, -1, 1, 0, -1, 1, -1]


def _quadratic_stack_distances(ids):
    want = []
    for t in range(len(ids)):
        prior = [s for s in range(t) if ids[s] == ids[t]]
        if not prior:
            want.append(-1)
        else:
            want.append(len(set(list(ids[prior[-1] + 1 : t]))))
    return want


def test_stack_distances_randomized_matches_quadratic_reference():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(0, 120))
        ids = rng.integers(0, 12, n).astype(np.int64)
        assert stack_distances(ids).tolist() == _quadratic_stack_distances(ids)


def _repeat_each(pairs):
    return [i for i, times in pairs for _ in range(times)]


#: Id sequences that stress the run-head and warm-access compression.
_ID_SEQUENCES = {
    # Each id repeated 1-5 times in a row: mostly run repeats.
    "runs": st.lists(
        st.tuples(st.integers(0, 9), st.integers(1, 5)), max_size=40
    ).map(_repeat_each),
    # Ids drawn from a wide range: mostly cold accesses.
    "cold": st.lists(st.integers(0, 500), max_size=80),
    # One id only: one cold head, then repeats.
    "one-id": st.integers(0, 60).map(lambda n: [7] * n),
    # Lengths 0 and 1.
    "tiny": st.lists(st.integers(0, 3), max_size=1),
}


@pytest.mark.parametrize("shape", sorted(_ID_SEQUENCES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_stack_distances_property_matches_quadratic_reference(shape, data):
    ids = data.draw(_ID_SEQUENCES[shape])
    got = stack_distances(np.asarray(ids, dtype=np.int64))
    assert got.dtype == np.int64
    assert got.tolist() == _quadratic_stack_distances(ids)


def test_mattson_span_counts_run_heads_and_warm_accesses(tmp_path):
    path = tmp_path / "spans.jsonl"
    spans.enable(path)
    try:
        # Runs: 1 1 | 2 2 2 | 1 | 3 3; only the second run of 1 is warm.
        stack_distances([1, 1, 2, 2, 2, 1, 3, 3])
    finally:
        spans.disable()
    records = [json.loads(line) for line in path.read_text().splitlines()]
    attrs = [r["attrs"] for r in records if r["name"] == "fast.mattson"]
    assert attrs == [{"accesses": 8, "run_heads": 4, "warm": 1}]


# -- kernel vs referee -------------------------------------------------------


@pytest.mark.parametrize("policy_name", MULTI_CAPACITY_POLICIES)
def test_randomized_bit_identity_with_outcome_streams(policy_name):
    rng = np.random.default_rng(42)
    for trial in range(25):
        B = int(rng.integers(1, 6))
        blocks = int(rng.integers(1, 12))
        universe = blocks * B
        n = int(rng.integers(0, 160))
        trace = _trace(
            rng.integers(0, universe, n), universe, B, {"trial": trial}
        )
        caps = sorted(
            {int(k) for k in rng.integers(B, 4 * universe + B, 4)}
        )
        if not multi_capacity_supported(policy_name, trace, caps):
            continue
        record: dict = {}
        results = multi_capacity_replay(policy_name, trace, caps, record=record)
        for k in caps:
            ref_result, ref_codes = referee_outcomes(
                make_policy(policy_name, k, trace.mapping), trace
            )
            for field in RESULT_FIELDS:
                assert getattr(results[k], field) == getattr(
                    ref_result, field
                ), f"trial {trial} {policy_name} k={k} field {field}"
            assert record[k] == ref_codes, f"trial {trial} {policy_name} k={k}"


def _long_run_trace(rng, B, blocks, runs, end_mid_run):
    """Block runs of 1-24 accesses, each to a random item of the block."""
    items = []
    for _ in range(runs):
        block = int(rng.integers(0, blocks))
        for _ in range(int(rng.integers(1, 25))):
            items.append(block * B + int(rng.integers(0, B)))
    if end_mid_run and items:
        # The last access repeats its predecessor's block: a run tail.
        items.append((items[-1] // B) * B + int(rng.integers(0, B)))
    return _trace(items, blocks * B, B)


@pytest.mark.parametrize("policy_name", MULTI_CAPACITY_POLICIES)
@pytest.mark.parametrize("end_mid_run", [False, True])
def test_long_runs_match_referee_outcome_streams(policy_name, end_mid_run):
    rng = np.random.default_rng(5 + end_mid_run)
    for trial in range(12):
        B = int(rng.integers(1, 9))
        blocks = int(rng.integers(2, 16))
        trace = _long_run_trace(rng, B, blocks, int(rng.integers(1, 30)), end_mid_run)
        # k = B is a single block slot: every change of block misses.
        caps = sorted({B, 2 * B, 3 * B + 1, blocks * B})
        record: dict = {}
        results = multi_capacity_replay(policy_name, trace, caps, record=record)
        for k in caps:
            ref_result, ref_codes = referee_outcomes(
                make_policy(policy_name, k, trace.mapping), trace
            )
            for field in RESULT_FIELDS:
                assert getattr(results[k], field) == getattr(
                    ref_result, field
                ), f"trial {trial} {policy_name} k={k} field {field}"
            assert record[k] == ref_codes, f"trial {trial} {policy_name} k={k}"


def test_conformance_helpers_cover_the_batched_path(small_mapping):
    rng = np.random.default_rng(3)
    trace = Trace(rng.integers(0, 64, 300, dtype=np.int64), small_mapping)
    for policy_name in MULTI_CAPACITY_POLICIES:
        reports = assert_multi_capacity_conformant(
            policy_name, trace, [4, 8, 16, 64]
        )
        assert [r.capacity for r in reports] == [4, 8, 16, 64]
        assert all(r.ok for r in reports)


def test_check_multi_capacity_rejects_unsupported_combinations():
    trace = _trace(range(16), 16, 4)
    with pytest.raises(ConfigurationError, match="no batched kernel"):
        check_multi_capacity("block-lru", trace, [2])  # k < B
    with pytest.raises(ConfigurationError, match="no batched kernel"):
        check_multi_capacity("iblp", trace, [4, 8])  # not a stack policy


# -- the support predicate ---------------------------------------------------


def test_supported_rejects_non_uniform_blocks_for_block_lru():
    mapping = ExplicitBlockMapping.from_groups(
        [[0], [1, 2], [3, 4, 5]], max_block_size=4
    )
    trace = Trace(np.array([0, 3, 5, 1], dtype=np.int64), mapping)
    assert not multi_capacity_supported("block-lru", trace, [4, 8])
    assert multi_capacity_supported("item-lru", trace, [4, 8])


def test_supported_uniform_explicit_mapping_batches_block_lru():
    mapping = ExplicitBlockMapping.from_groups(
        [[0, 1], [2, 3], [4, 5]], max_block_size=2
    )
    trace = Trace(np.array([0, 2, 4, 0, 5], dtype=np.int64), mapping)
    assert multi_capacity_supported("block-lru", trace, [2, 4])
    assert_multi_capacity_conformant("block-lru", trace, [2, 4])


@pytest.mark.parametrize(
    "items, supported",
    [
        ([0, 5, 3, 7], True),  # full blocks 0 and 1 only
        ([9, 8, 9], True),  # the short last block only: its size is 2
        ([0, 9, 4], False),  # full blocks and the short last one
    ],
)
def test_supported_fixed_mapping_with_short_last_block(items, supported):
    trace = _trace(items, 10, 4)  # blocks [0-3], [4-7], [8-9]
    assert multi_capacity_supported("block-lru", trace, [4, 8]) is supported
    if supported:
        assert_multi_capacity_conformant("block-lru", trace, [4, 8])


def test_supported_rejects_bad_capacities():
    trace = _trace(range(8), 8, 4)
    assert not multi_capacity_supported("item-lru", trace, [])
    assert not multi_capacity_supported("item-lru", trace, [0, 4])
    assert not multi_capacity_supported("item-lru", trace, [True, 4])
    assert not multi_capacity_supported("item-lru", trace, [4.0, 8])
    assert not multi_capacity_supported("gcm", trace, [4])


def test_replay_raises_where_supported_says_no():
    trace = _trace(range(8), 8, 4)
    with pytest.raises(ConfigurationError):
        multi_capacity_replay("block-lru", trace, [2])


# -- sweep and simulate_many batching ----------------------------------------


def _per_cell_rows(cells):
    """Reference rows: each cell replayed alone through the worker."""
    return [{**cell, **simulate_cell(**cell)} for cell in cells]


def _rows_without_trace(rows, trace):
    out = []
    for row in rows:
        row = dict(row)
        assert row.pop("trace") is trace
        out.append(row)
    return out


@pytest.fixture
def sweep_trace() -> Trace:
    rng = np.random.default_rng(9)
    return Trace(
        rng.integers(0, 512, 4000, dtype=np.int64),
        FixedBlockMapping(universe=512, block_size=8),
        {"generator": "uniform", "seed": 9},
    )


def test_collapsed_sweep_rows_equal_per_cell_rows(sweep_trace):
    cells = grid(
        policy=["item-lru", "block-lru", "iblp"],
        capacity=[8, 16, 32, 64],
        trace=[sweep_trace],
    )
    per_cell = _per_cell_rows(cells)
    rows = sweep(simulate_cell, cells)
    assert _rows_without_trace(rows, sweep_trace) == _rows_without_trace(
        per_cell, sweep_trace
    )


def test_parallel_collapsed_sweep_matches_serial_referee(sweep_trace):
    cells = grid(
        policy=["item-lru", "block-lru"],
        capacity=[8, 32, 128],
        trace=[sweep_trace],
        fast=[False],
    )
    referee = sweep(simulate_cell, cells)
    fast_cells = grid(
        policy=["item-lru", "block-lru"],
        capacity=[8, 32, 128],
        trace=[sweep_trace],
    )
    parallel = sweep(simulate_cell, fast_cells, parallel=True, max_workers=2)
    stripped_ref = [
        {k: v for k, v in row.items() if k not in ("trace", "fast")}
        for row in referee
    ]
    stripped_par = [
        {k: v for k, v in row.items() if k not in ("trace", "fast")}
        for row in parallel
    ]
    assert stripped_par == stripped_ref


def test_collapse_requires_pure_capacity_axis(sweep_trace, monkeypatch):
    from repro.core import fast

    calls = []
    real = fast.multi_capacity_replay

    def spy(policy_name, trace, capacities, record=None):
        calls.append((policy_name, tuple(capacities)))
        return real(policy_name, trace, capacities, record)

    monkeypatch.setattr(fast, "multi_capacity_replay", spy)

    UNCACHED.simulate_many([("item-lru", 8), ("item-lru", 16)], sweep_trace)
    assert calls == [("item-lru", (8, 16))]

    calls.clear()
    # Policy kwargs must force per-cell replay.
    UNCACHED.simulate_many(
        [("athreshold-lru", 8, {"a": 1}), ("athreshold-lru", 16, {"a": 1})],
        sweep_trace,
    )
    assert calls == []

    # fast=False and single-capacity groups must fall back too.
    UNCACHED.simulate_many(
        [("item-lru", 8), ("item-lru", 16)], sweep_trace, fast=False
    )
    UNCACHED.simulate_many([("item-lru", 8)], sweep_trace)
    assert calls == []


def test_mixed_policy_grid_collapses_only_stack_policies(sweep_trace, monkeypatch):
    from repro.core import fast

    calls = []
    real = fast.multi_capacity_replay

    def spy(policy_name, trace, capacities, record=None):
        calls.append(policy_name)
        return real(policy_name, trace, capacities, record)

    monkeypatch.setattr(fast, "multi_capacity_replay", spy)
    cells = grid(
        policy=["item-lru", "block-lru", "gcm", "iblp"],
        capacity=[8, 16, 32],
        trace=[sweep_trace],
    )
    results = UNCACHED.simulate_many(
        [(cell["policy"], cell["capacity"]) for cell in cells], sweep_trace
    )
    assert sorted(calls) == ["block-lru", "item-lru"]
    monkeypatch.undo()
    per_cell = _per_cell_rows(cells)
    assert [res.as_row() for res in results] == [
        {k: v for k, v in row.items() if k != "trace"} for row in per_cell
    ]


def test_default_workers_env_override(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    import os

    assert default_workers() == (os.cpu_count() or 1)
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert default_workers() == 3
    monkeypatch.setenv("REPRO_JOBS", "0")
    with pytest.raises(ConfigurationError):
        default_workers()
    monkeypatch.setenv("REPRO_JOBS", "two")
    with pytest.raises(ConfigurationError):
        default_workers()


def test_parallel_sweep_pickled_trace_matches_serial(sweep_trace):
    cells = grid(
        policy=["iblp"], capacity=[8, 32], trace=[sweep_trace]
    )
    parallel = sweep(simulate_cell, cells, parallel=True, max_workers=2)
    serial = sweep(simulate_cell, cells)
    # Workers pickle the trace in but never back: every row echoes the
    # caller's own object.
    assert all(row["trace"] is sweep_trace for row in parallel)
    assert parallel == serial
