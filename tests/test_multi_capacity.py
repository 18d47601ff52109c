"""Batched multi-capacity replay and the sweep collapse that uses it.

Two layers of guarantees:

* **Kernel** — ``multi_capacity_replay`` must be bit-identical to the
  validating referee at every capacity, on results *and* per-access
  outcome streams, across randomized geometries (the conformance suite
  and goldens pin this too; here we add randomized trials plus the
  support-predicate edge cases).
* **Sweep collapse** — ``sweep`` must produce rows byte-for-byte
  equal to per-cell replay, Mattson-collapse only when it is provably
  safe (pure capacity axis, stack policy, fast path, no timing), and
  fall back silently everywhere else.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.analysis.sweep import default_workers, grid, simulate_cell, sweep
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
from repro.errors import ConfigurationError, SweepCellError
from repro.policies import make_policy

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


def test_stack_distances_randomized_matches_quadratic_reference():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(0, 120))
        ids = rng.integers(0, 12, n).astype(np.int64)
        want = []
        for t in range(n):
            prior = [s for s in range(t) if ids[s] == ids[t]]
            if not prior:
                want.append(-1)
            else:
                want.append(len(set(ids[prior[-1] + 1 : t].tolist())))
        assert stack_distances(ids).tolist() == want


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


# -- sweep collapse ----------------------------------------------------------


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
    collapsed = sweep(simulate_cell, cells)
    assert _rows_without_trace(collapsed, sweep_trace) == _rows_without_trace(
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

    cells = grid(
        policy=["item-lru"], capacity=[8, 16], trace=[sweep_trace]
    )
    sweep(simulate_cell, cells)
    assert calls == [("item-lru", (8, 16))]

    calls.clear()
    # Any extra key (policy kwargs) must force per-cell replay.
    kwarg_cells = [dict(c, a=1) for c in grid(
        policy=["athreshold-lru"], capacity=[8, 16], trace=[sweep_trace]
    )]
    sweep(simulate_cell, kwarg_cells)
    assert calls == []

    # fast=False, timing=True, single-capacity groups, and foreign
    # worker fns must all fall back too.
    sweep(
        simulate_cell,
        grid(policy=["item-lru"], capacity=[8, 16], trace=[sweep_trace],
             fast=[False]),
    )
    sweep(
        simulate_cell,
        grid(policy=["item-lru"], capacity=[8, 16], trace=[sweep_trace]),
        timing=True,
    )
    sweep(
        functools.partial(simulate_cell),
        grid(policy=["item-lru"], capacity=[8, 16], trace=[sweep_trace]),
    )
    sweep(
        simulate_cell,
        grid(policy=["item-lru"], capacity=[8], trace=[sweep_trace]),
    )
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
    rows = sweep(simulate_cell, cells)
    assert sorted(calls) == ["block-lru", "item-lru"]
    per_cell = _per_cell_rows(cells)
    assert _rows_without_trace(rows, sweep_trace) == _rows_without_trace(
        per_cell, sweep_trace
    )


def test_sweep_rejects_bad_knobs(sweep_trace):
    cells = grid(policy=["item-lru"], capacity=[8], trace=[sweep_trace])
    with pytest.raises(ConfigurationError, match="chunksize"):
        sweep(simulate_cell, cells, chunksize=0)


# -- chunked dispatch and worker plumbing ------------------------------------


def _flaky(a):
    if a == 5:
        raise ZeroDivisionError("boom")
    return {"value": a * 2}


def test_chunked_parallel_rows_match_serial():
    cells = [{"a": i} for i in range(11)]
    serial = sweep(_flaky, cells[:5])
    chunked = sweep(_flaky, cells[:5], parallel=True, max_workers=2, chunksize=2)
    assert chunked == serial


def test_chunked_error_names_the_failing_cell():
    cells = [{"a": i} for i in range(11)]
    with pytest.raises(SweepCellError) as excinfo:
        sweep(_flaky, cells, parallel=True, max_workers=2, chunksize=3)
    assert excinfo.value.cell == {"a": 5}
    assert "ZeroDivisionError" in str(excinfo.value)


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


def test_parallel_sweep_with_shm_disabled_matches(sweep_trace, monkeypatch):
    monkeypatch.setenv("REPRO_NO_SHM", "1")
    cells = grid(
        policy=["iblp"], capacity=[8, 32], trace=[sweep_trace]
    )
    fallback = sweep(simulate_cell, cells, parallel=True, max_workers=2)
    monkeypatch.delenv("REPRO_NO_SHM")
    serial = sweep(simulate_cell, cells)
    # The pickled-trace fallback rows match modulo the trace column
    # (the fallback round-trips the object, arenas preserve identity).
    strip = lambda rows: [
        {k: v for k, v in r.items() if k != "trace"} for r in rows
    ]
    assert strip(fallback) == strip(serial)
