"""Seeded-RNG determinism of the GCM kernel family.

The paper's headline policy (GCM) is randomized; its fast kernels
reproduce the referee's PCG64 draw sequence *exactly* (same
``default_rng(seed)``, same ``integers``/``shuffle`` call order), so a
seeded run is one deterministic computation no matter which engine —
or how many processes — executes it.  These tests regression-pin that
contract:

* referee vs kernel bit-identity across a seed grid for every GCM
  variant (aggregates and the per-access outcome stream);
* the same seed always reproduces the same result, and different
  seeds genuinely diverge (the seed is actually plumbed through);
* ``multi_policy_replay`` keeps each seeded cell's generator in its
  own kernel closure — chunked traversal and cell order cannot
  perturb the draw sequence;
* a parallel sweep (``REPRO_JOBS`` workers) over seeded GCM cells is
  bit-identical to the serial sweep;
* the kernel's sorted candidate list survives the edge cases: capacity
  below the block size (side loads run out of candidates), phase
  resets in the middle of an access, ``gcm-partial`` at tiny load
  counts, ragged blocks, a cache that never fills, chunk boundaries in
  ``multi_policy_replay`` and the chunked ``.rtc`` mmap traversal.
"""

import numpy as np
import pytest

from repro.core.conformance import (
    assert_conformant,
    assert_loads_conformant,
    assert_mmap_conformant,
    referee_outcomes,
)
from repro.core.engine import simulate
from repro.core.fast import fast_simulate, multi_policy_replay
from repro.core.mapping import ExplicitBlockMapping, FixedBlockMapping
from repro.core.rtc import open_rtc, trace_to_rtc
from repro.core.trace import Trace
from repro.policies import make_policy
from repro.workloads import hot_and_stream, zipf_items

GCM_VARIANTS = ("gcm", "gcm-markall", "gcm-partial")
SEEDS = (0, 1, 7, 42, 1234)


@pytest.fixture(scope="module")
def trace():
    return zipf_items(2500, universe=96, alpha=1.0, block_size=8, seed=21)


@pytest.fixture(scope="module")
def spatial_trace():
    return hot_and_stream(2500, hot_items=24, stream_blocks=24, block_size=8, seed=22)


@pytest.mark.parametrize("policy", GCM_VARIANTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_referee_and_kernel_agree_for_every_seed(policy, seed, trace):
    assert_conformant(policy, 24, trace, seed=seed)


@pytest.mark.parametrize("policy", GCM_VARIANTS)
def test_same_seed_reproduces_different_seeds_diverge(policy, spatial_trace):
    def run(seed):
        return fast_simulate(
            make_policy(policy, 16, spatial_trace.mapping, seed=seed),
            spatial_trace,
        )

    assert run(3) == run(3)
    # At least one other seed must change the outcome — a kernel that
    # ignored the seed would pass the per-seed conformance grid (the
    # referee run would drift identically) yet fail here.
    baseline = run(3)
    assert any(run(s).misses != baseline.misses for s in (5, 11, 29, 61)), (
        f"{policy}: seeds 5/11/29/61 all reproduced seed 3's miss count; "
        "is the seed actually reaching the RNG?"
    )


def test_multi_policy_replay_preserves_seeded_streams(trace):
    """Seeded cells in one shared traversal match their solo replays,
    regardless of chunking or which other cells ride along."""
    cells = [
        ("gcm", 24, {"seed": 5}),
        ("item-lru", 24),
        ("gcm-markall", 24, {"seed": 5}),
        ("gcm", 24, {"seed": 9}),
        ("item-random", 24, {"seed": 5}),
        ("gcm-partial", 24, {"load_count": 3, "seed": 5}),
    ]
    batched = multi_policy_replay(cells, trace)
    chunked = multi_policy_replay(cells, trace, chunk=101)
    for cell, got, got_chunked in zip(cells, batched, chunked):
        name, cap = cell[0], cell[1]
        kwargs = cell[2] if len(cell) == 3 else {}
        solo = simulate(
            make_policy(name, cap, trace.mapping, **kwargs), trace
        )
        assert got == solo, cell
        assert got_chunked == solo, cell


def test_parallel_sweep_is_bit_identical_for_seeded_gcm(
    trace, monkeypatch
):
    """REPRO_JOBS workers replay seeded GCM cells exactly like serial.

    Each worker builds its own policy instance and RNG from the cell's
    seed, so process boundaries cannot leak generator state between
    cells; rows must match the serial sweep bit for bit.
    """
    from repro.analysis.sweep import grid, simulate_cell, sweep

    cells = grid(
        policy=list(GCM_VARIANTS),
        capacity=[8, 24],
        trace=[trace],
        seed=[0, 7],
    )
    serial = sweep(simulate_cell, cells)
    monkeypatch.setenv("REPRO_JOBS", "3")
    parallel = sweep(simulate_cell, cells, parallel=True)
    assert len(serial) == len(parallel) == len(cells)
    for row_s, row_p in zip(serial, parallel):
        for key in ("policy", "capacity", "seed", "misses",
                    "temporal_hits", "spatial_hits", "miss_ratio"):
            assert row_s[key] == row_p[key], (key, row_s, row_p)


# -- edge cases of the kernel's sorted candidate list -----------------------
def assert_stream_and_loads_conformant(name, capacity, trace, **kwargs):
    """Outcome stream, aggregates and per-miss loads all match the referee."""
    assert_conformant(name, capacity, trace, **kwargs)
    assert_loads_conformant(name, capacity, trace, **kwargs)


@pytest.fixture(scope="module")
def small_block_trace():
    return zipf_items(1500, universe=64, alpha=0.8, block_size=8, seed=23)


@pytest.mark.parametrize("policy", GCM_VARIANTS)
@pytest.mark.parametrize("capacity", [1, 3, 7])
def test_capacity_below_block_size(policy, capacity, small_block_trace):
    """k < B: the side-load loop runs out of candidates and stops."""
    assert_stream_and_loads_conformant(policy, capacity, small_block_trace, seed=4)


def phase_reset_trace():
    """Fill k=8 with two B=4 blocks, mark every resident, then miss.

    The miss on item 8 finds no unmarked resident, so step 1 starts a
    new phase and the block's three side loads evict from the freshly
    reset candidate list within the same access.  A Zipf tail keeps
    the phases turning over.
    """
    mapping = FixedBlockMapping(universe=32, block_size=4)
    head = [0, 4, 1, 2, 3, 5, 6, 7, 8]
    tail = zipf_items(800, universe=32, alpha=1.2, block_size=4, seed=24).items
    return Trace(np.concatenate([np.array(head), tail]), mapping)


def test_phase_reset_trace_resets_mid_access():
    trace = phase_reset_trace()
    policy = make_policy("gcm", 8, trace.mapping, seed=0)
    for item in trace.items[:8].tolist():
        policy.access(item)
    assert policy.marked_items() == policy.resident_items() == frozenset(range(8))
    outcome = policy.access(8)
    assert policy.marked_items() == {8}
    assert len(outcome.evicted) == 4  # step-1 victim plus three side loads


@pytest.mark.parametrize("policy", GCM_VARIANTS)
@pytest.mark.parametrize("seed", [0, 5])
def test_phase_reset_in_the_middle_of_an_access(policy, seed):
    assert_stream_and_loads_conformant(policy, 8, phase_reset_trace(), seed=seed)


@pytest.mark.parametrize("load_count", [1, 2])
def test_partial_gcm_tiny_load_counts(load_count, spatial_trace):
    assert_stream_and_loads_conformant(
        "gcm-partial", 16, spatial_trace, load_count=load_count, seed=6
    )


@pytest.mark.parametrize("policy", GCM_VARIANTS)
def test_ragged_blocks(policy):
    mapping = ExplicitBlockMapping.from_groups(
        [[0], [1, 2], [3, 4, 5], [6, 7, 8, 9], [10], [11, 12, 13],
         [14, 15, 16, 17], [18, 19]],
        max_block_size=4,
    )
    rng = np.random.default_rng(25)
    trace = Trace(rng.integers(0, 20, 1200, dtype=np.int64), mapping)
    assert_stream_and_loads_conformant(policy, 6, trace, seed=7)


@pytest.mark.parametrize("policy", GCM_VARIANTS)
def test_capacity_above_distinct_items_never_evicts(policy, small_block_trace):
    capacity = 2 * small_block_trace.mapping.universe
    assert_stream_and_loads_conformant(policy, capacity, small_block_trace)
    result = fast_simulate(
        make_policy(policy, capacity, small_block_trace.mapping),
        small_block_trace,
    )
    assert result.evicted_items == 0


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_multi_policy_chunk_boundaries(chunk, trace):
    """The candidate list carries over between chunks of a shared pass."""
    cells = [(name, 24, {"seed": 8}) for name in GCM_VARIANTS]
    record = {}
    results = multi_policy_replay(cells, trace, record=record, chunk=chunk)
    for i, (name, capacity, kwargs) in enumerate(cells):
        ref, ref_codes = referee_outcomes(
            make_policy(name, capacity, trace.mapping, **kwargs), trace
        )
        assert results[i] == ref, name
        assert record[i] == ref_codes, name


@pytest.mark.parametrize("policy", GCM_VARIANTS)
def test_rtc_mmap_trace(policy, spatial_trace, tmp_path):
    mmap_trace = open_rtc(trace_to_rtc(spatial_trace, tmp_path / "t.rtc"))
    assert_stream_and_loads_conformant(policy, 16, spatial_trace, seed=9)
    assert_mmap_conformant(policy, 16, spatial_trace, mmap_trace, seed=9)
    # Small mmap windows: the list crosses many chunk boundaries.
    cells = [(policy, 16, {"seed": 9}), (policy, 16, {"seed": 10})]
    assert multi_policy_replay(cells, mmap_trace, chunk=7) == multi_policy_replay(
        cells, spatial_trace
    )
