"""Single-pass multi-policy replay: correctness, gating, and plumbing.

``multi_policy_replay`` advances many policy kernels over one shared
traversal of a compiled trace.  These tests prove the sharing is
unobservable — every cell bit-identical to its solo referee run, with
chunk size, cell order, duplicate cells, and the internal Mattson
collapse all invisible — and pin the gating (``multi_policy_supported``,
``sweep``'s policy-axis collapse, ``CampaignCache.simulate_many``) plus
the ``fallback_reason`` telemetry satellite.
"""

import numpy as np
import pytest

from repro.core.conformance import assert_multi_policy_conformant
from repro.core.engine import simulate
from repro.core.fast import (
    FAST_POLICY_NAMES,
    fast_fallback_reason,
    fast_simulate,
    multi_policy_replay,
    multi_policy_supported,
)
from repro.core.mapping import FixedBlockMapping
from repro.core.trace import Trace
from repro.errors import ConfigurationError
from repro.policies import make_policy
from repro.workloads import hot_and_stream, markov_spatial

CAP = 24


@pytest.fixture(scope="module")
def trace():
    return markov_spatial(2500, universe=128, block_size=8, stay=0.8, seed=33)


@pytest.fixture(scope="module")
def spatial_trace():
    return hot_and_stream(2000, hot_items=16, stream_blocks=32, block_size=8, seed=34)


def _full_matrix(k=CAP):
    cells = [(name, k) for name in FAST_POLICY_NAMES]
    cells.append(("athreshold-lru", k, {"a": 2}))
    cells.append(("iblp", k, {"item_layer_size": k // 4}))
    cells.append(("gcm-partial", k, {"load_count": 4}))
    return cells


# -- correctness -------------------------------------------------------------
def test_full_matrix_is_conformant(trace):
    """Every kernel-covered cell — including kwarg variants — survives
    the full differential harness in one shared traversal."""
    assert_multi_policy_conformant(_full_matrix(), trace)


def test_matches_solo_replays_across_capacities(spatial_trace):
    cells = [
        (name, cap)
        for name in ("item-lru", "gcm", "iblp", "item-2q", "marking-lru")
        for cap in (1, 8, 32)
    ]
    results = multi_policy_replay(cells, spatial_trace)
    for (name, cap), got in zip(cells, results):
        want = simulate(
            make_policy(name, cap, spatial_trace.mapping), spatial_trace
        )
        assert got == want, (name, cap)
        assert got.policy == name and got.capacity == cap


def test_chunk_size_is_invisible(trace):
    cells = _full_matrix()
    want = multi_policy_replay(cells, trace)
    for chunk in (1, 7, 64, 10**9):
        assert multi_policy_replay(cells, trace, chunk=chunk) == want


def test_record_streams_match_fast_simulate(trace):
    cells = [("gcm", CAP), ("item-lfu", CAP), ("iblp-adaptive", CAP)]
    record = {}
    multi_policy_replay(cells, trace, record=record)
    assert sorted(record) == [0, 1, 2]
    for i, (name, cap) in enumerate(cells):
        solo_codes = []
        fast_simulate(
            make_policy(name, cap, trace.mapping), trace, record=solo_codes
        )
        assert record[i] == solo_codes, (name, cap)


def test_duplicate_cells_get_independent_results(trace):
    # Duplicates exercise both engines: item-lru pairs collapse through
    # the Mattson pass (clone path), gcm pairs through twin steppers.
    cells = [("item-lru", 8), ("item-lru", 8), ("gcm", 8), ("gcm", 8)]
    results = multi_policy_replay(cells, trace)
    assert results[0] == results[1]
    assert results[2] == results[3]
    assert results[0] is not results[1]
    assert results[2] is not results[3]
    results[0].metadata["tag"] = "mine"
    assert "tag" not in results[1].metadata


def test_internal_mattson_collapse_is_invisible(trace):
    """Kwarg-free stack-policy groups ride the multi-capacity pass;
    their rows must still match solo replays exactly."""
    cells = [
        ("item-lru", 4),
        ("item-lru", 16),
        ("block-lru", 8),
        ("block-lru", 32),
        ("item-clock", 16),
    ]
    record = {}
    results = multi_policy_replay(cells, trace, record=record)
    for i, (name, cap) in enumerate(cells):
        codes = []
        want = fast_simulate(
            make_policy(name, cap, trace.mapping), trace, record=codes
        )
        assert results[i] == want, (name, cap)
        assert record[i] == codes, (name, cap)


def test_empty_cells_return_empty():
    mapping = FixedBlockMapping(16, 4)
    trace = Trace(np.arange(8, dtype=np.int64), mapping)
    assert multi_policy_replay([], trace) == []


def test_dict_cells_are_accepted(trace):
    cells = [
        {"policy": "gcm", "capacity": CAP, "seed": 5},
        {"policy": "item-lru", "capacity": CAP},
    ]
    results = multi_policy_replay(cells, trace)
    want = simulate(make_policy("gcm", CAP, trace.mapping, seed=5), trace)
    assert results[0] == want


# -- gating ------------------------------------------------------------------
def test_supported_rejects_kernel_less_and_invalid_cells(trace):
    assert multi_policy_supported([("item-lru", 4), ("gcm", 4)], trace)
    assert not multi_policy_supported([("belady-item", 4)], trace)
    assert not multi_policy_supported([("no-such-policy", 4)], trace)
    assert not multi_policy_supported([("item-lru", 0)], trace)
    assert not multi_policy_supported([("item-lru", True)], trace)
    assert not multi_policy_supported([("item-lru", 4.0)], trace)
    assert not multi_policy_supported([("item-lru",)], trace)


def test_unsupported_cell_raises_configuration_error(trace):
    with pytest.raises(ConfigurationError, match="belady-item"):
        multi_policy_replay([("item-lru", 4), ("belady-item", 4)], trace)


# -- sweep collapse ----------------------------------------------------------
def test_sweep_policy_collapse_rows_are_bit_identical(trace):
    from repro.analysis.sweep import grid, simulate_cell, sweep

    cells = grid(
        policy=["item-lru", "gcm", "iblp", "item-lfu", "item-mru"],
        capacity=[8, 24],
        trace=[trace],
    )
    auto = sweep(simulate_cell, cells)
    never = [{**cell, **simulate_cell(**cell)} for cell in cells]
    assert len(auto) == len(never) == len(cells)
    for a, n in zip(auto, never):
        for key in ("policy", "capacity", "misses", "temporal_hits",
                    "spatial_hits", "miss_ratio"):
            assert a[key] == n[key], (key, a, n)


def test_sweep_collapses_policy_axis_into_one_traversal(trace, monkeypatch):
    """sweep routes eligible cells through multi_policy_replay (one
    call per trace group) and never calls the per-cell worker."""
    import sys

    from repro.analysis.sweep import grid, simulate_cell, sweep
    from repro.core import fast

    # ``repro.analysis``'s package attribute ``sweep`` is the function,
    # so ``import repro.analysis.sweep`` would resolve to it; take the
    # module itself.
    sweep_mod = sys.modules["repro.analysis.sweep"]

    calls = []
    real = fast.multi_policy_replay

    def spy(cells, t, record=None, chunk=fast.MULTI_POLICY_CHUNK):
        calls.append(list(cells))
        return real(cells, t, record=record, chunk=chunk)

    monkeypatch.setattr(fast, "multi_policy_replay", spy)

    def boom(**kwargs):  # pragma: no cover - must never run
        raise AssertionError("per-cell worker ran despite full collapse")

    cells = grid(policy=["gcm", "item-2q", "marking-lru"],
                 capacity=[8, 24], trace=[trace])
    monkeypatch.setattr(sweep_mod, "_call", boom)
    rows = sweep(simulate_cell, cells)
    assert len(calls) == 1 and len(calls[0]) == 6
    assert [r["policy"] for r in rows] == [c["policy"] for c in cells]


def test_all_mattson_sweep_never_compiles(trace, spatial_trace, monkeypatch):
    """An Item-LRU/Block-LRU-only grid is one multi_policy_replay call
    per trace, answered entirely by the Mattson pass: no compile."""
    from repro.analysis.sweep import grid, simulate_cell, sweep
    from repro.core import fast

    calls = []
    real = fast.multi_policy_replay

    def spy(cells, t, record=None, chunk=fast.MULTI_POLICY_CHUNK):
        calls.append(t)
        return real(cells, t, record=record, chunk=chunk)

    def no_compile(t):  # pragma: no cover - must never run
        raise AssertionError("compile_trace ran for an all-Mattson sweep")

    monkeypatch.setattr(fast, "multi_policy_replay", spy)
    monkeypatch.setattr(fast, "compile_trace", no_compile)
    cells = grid(
        policy=["item-lru", "block-lru"],
        capacity=[8, 16, 32],
        trace=[trace, spatial_trace],
    )
    rows = sweep(simulate_cell, cells)
    assert calls == [trace, spatial_trace]
    monkeypatch.undo()
    assert rows == [{**cell, **simulate_cell(**cell)} for cell in cells]


def test_sweep_leaves_ineligible_cells_to_per_cell_replay(trace, monkeypatch):
    """Extra cell keys, fast=False, or kernel-less policies opt out of
    the collapse but still compute (per-cell path)."""
    from repro.analysis.sweep import simulate_cell, sweep
    from repro.core import fast

    calls = []
    real = fast.multi_policy_replay

    def spy(cells, t, record=None, chunk=fast.MULTI_POLICY_CHUNK):
        calls.append(list(cells))
        return real(cells, t, record=record, chunk=chunk)

    monkeypatch.setattr(fast, "multi_policy_replay", spy)
    cells = [
        {"policy": "gcm", "capacity": 8, "trace": trace, "seed": 5},  # extra key
        {"policy": "gcm", "capacity": 8, "trace": trace, "fast": False},
        {"policy": "belady-item", "capacity": 8, "trace": trace},
        {"policy": "item-lfu", "capacity": 8, "trace": trace},  # lone cell
    ]
    rows = sweep(simulate_cell, cells)
    assert not calls  # nothing eligible to group (single survivor)
    assert len(rows) == 4
    want = simulate(make_policy("gcm", 8, trace.mapping, seed=5), trace)
    assert rows[0]["misses"] == want.misses


# -- campaign batching -------------------------------------------------------
def test_campaign_simulate_many_memoizes_per_cell(trace, tmp_path):
    from repro.campaign.integrate import CampaignCache

    cells = [("item-lru", 8), ("gcm", 8), ("iblp", 8, {"item_layer_size": 4})]
    with CampaignCache(tmp_path) as cache:
        first = cache.simulate_many(cells, trace)
        assert cache.computed == 3 and cache.hits == 0
        # Batch-computed cells are visible to later per-cell lookups...
        again = cache.simulate(
            "iblp", 8, trace, fast=True, item_layer_size=4
        )
        assert cache.hits == 1 and again == first[2]
    with CampaignCache(tmp_path) as cache:
        # ...and to a fresh cache over the same store.
        second = cache.simulate_many(cells, trace)
        assert cache.hits == 3 and cache.computed == 0
        assert second == first
    for cell, got in zip(cells, first):
        kwargs = cell[2] if len(cell) == 3 else {}
        want = simulate(
            make_policy(cell[0], cell[1], trace.mapping, **kwargs), trace
        )
        assert got == want, cell


def test_campaign_simulate_many_parses_cells_like_multi_policy_replay(
    trace, tmp_path
):
    from repro.campaign.integrate import CampaignCache

    with CampaignCache(tmp_path) as cache:
        with pytest.raises(ConfigurationError):
            cache.simulate_many([("item-lru",)], trace)
        with pytest.raises(ConfigurationError):
            cache.simulate_many([{"policy": "item-lru"}], trace)
        got = cache.simulate_many(
            [{"policy": "gcm", "capacity": 8, "seed": 5}], trace
        )
        # A dict cell shares its address with the tuple form.
        assert cache.simulate("gcm", 8, trace, fast=True, seed=5) == got[0]
        assert cache.computed == 1 and cache.hits == 1
    assert got[0] == simulate(make_policy("gcm", 8, trace.mapping, seed=5), trace)


def test_campaign_simulate_many_computes_repeated_cells_once(trace, tmp_path):
    from repro.campaign.integrate import CampaignCache
    from repro.campaign.journal import Journal

    cells = [("gcm", 8), ("item-lru", 8), ("gcm", 8)]
    with CampaignCache(tmp_path) as cache:
        results = cache.simulate_many(cells, trace)
        assert cache.computed == 2 and cache.hits == 1
        assert len(cache.store) == 2
    assert results[0] == results[2] and results[0] is not results[2]
    journal = Journal(tmp_path)
    done = [e for e in journal.events() if e["event"] == "done"]
    journal.close()
    assert len(done) == 2


def test_campaign_simulate_many_falls_back_per_cell(trace, tmp_path):
    """A kernel-less cell in the batch degrades to per-cell simulate
    (still memoized) instead of raising."""
    from repro.campaign.integrate import CampaignCache

    cells = [("item-lru", 8), ("belady-item", 8)]
    with CampaignCache(tmp_path) as cache:
        results = cache.simulate_many(cells, trace)
        assert cache.computed == 2
    want = simulate(make_policy("belady-item", 8, trace.mapping), trace)
    assert results[1] == want


# -- fallback_reason telemetry ----------------------------------------------
def test_fallback_reason_surfaces_on_simresult(trace):
    mapping = trace.mapping
    # fast path ran: no reason.
    assert simulate(
        make_policy("item-lru", 8, mapping), trace, fast=True
    ).fallback_reason is None
    # fast not requested: no reason either.
    assert simulate(
        make_policy("belady-item", 8, mapping), trace
    ).fallback_reason is None
    assert simulate(
        make_policy("belady-item", 8, mapping), trace, fast=True
    ).fallback_reason == "unsupported-policy"
    assert simulate(
        make_policy("item-lru", 8, mapping),
        trace,
        fast=True,
        on_access=lambda *a: None,
    ).fallback_reason == "observed"
    # Warm policy: warmed on an item outside the (tiny) trace, so the
    # referee's shadow state stays consistent while the kernel refuses.
    small = Trace(np.array([0, 1, 0, 1]), FixedBlockMapping(16, 4))
    warm = make_policy("item-lru", 8, small.mapping)
    warm.access(9)
    assert fast_fallback_reason(warm, small) == "warm-policy"
    assert simulate(warm, small, fast=True).fallback_reason == "warm-policy"


def test_fallback_reason_mapping_mismatch(trace):
    other = FixedBlockMapping(trace.mapping.universe, trace.mapping.max_block_size)
    # Same geometry but a different partition object is fine; a
    # different block size is not.
    coarser = FixedBlockMapping(trace.mapping.universe, 2)
    policy = make_policy("item-lru", 8, coarser)
    assert fast_fallback_reason(policy, trace) == "mapping-mismatch"
    assert fast_fallback_reason(make_policy("item-lru", 8, other), trace) is None


def test_fallback_reason_rides_rows_and_campaign_store(trace, tmp_path):
    from repro.campaign.runner import result_fields, result_from_fields

    res = simulate(make_policy("belady-item", 8, trace.mapping), trace, fast=True)
    assert res.as_row()["fallback_reason"] == "unsupported-policy"
    assert result_from_fields(result_fields(res)).fallback_reason == (
        "unsupported-policy"
    )
    clean = simulate(make_policy("item-lru", 8, trace.mapping), trace, fast=True)
    assert "fallback_reason" not in clean.as_row()
    assert "fallback_reason" not in result_fields(clean)
    # compare=False: the reason never breaks referee/fast equality.
    assert res == simulate(make_policy("belady-item", 8, trace.mapping), trace)


def test_fallback_emits_span(trace, tmp_path):
    import json

    from repro.telemetry import spans

    path = tmp_path / "spans.jsonl"
    spans.enable(path)
    try:
        simulate(
            make_policy("belady-item", 8, trace.mapping), trace, fast=True
        )
    finally:
        spans.disable()
    events = [json.loads(line) for line in path.read_text().splitlines()]
    fallback = [e for e in events if e.get("name") == "fast.fallback"]
    assert fallback, events
    assert fallback[0]["attrs"]["reason"] == "unsupported-policy"
