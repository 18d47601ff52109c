"""Mattson stack-algorithm MRC tests, validated against the simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.mrc import iblp_mrc_grid, miss_ratio_curve
from repro.core.engine import simulate
from repro.core.mapping import FixedBlockMapping
from repro.core.reuse import stack_distances
from repro.core.trace import Trace
from repro.errors import ConfigurationError
from repro.policies import BlockLRU, ItemLRU
from repro.workloads import zipf_items


def test_stack_distances_known():
    # trace: a b a c b a
    dists = stack_distances([0, 1, 0, 2, 1, 0])
    assert dists.tolist() == [-1, -1, 1, -1, 2, 2]


def test_cold_misses_marked():
    dists = stack_distances([5, 6, 7])
    assert dists.tolist() == [-1, -1, -1]


def test_immediate_reuse_distance_zero():
    dists = stack_distances([3, 3, 3])
    assert dists.tolist() == [-1, 0, 0]


def test_mrc_matches_simulated_lru():
    trace = zipf_items(4000, universe=256, alpha=0.9, block_size=8, seed=1)
    dists = stack_distances(trace.items)
    curve = dict(miss_ratio_curve(dists, [4, 16, 64, 256]))
    for k, predicted in curve.items():
        res = simulate(ItemLRU(k, trace.mapping), trace)
        assert res.miss_ratio == pytest.approx(predicted, abs=1e-12), k


def test_block_mrc_matches_simulated_block_lru():
    trace = zipf_items(3000, universe=256, alpha=0.8, block_size=8, seed=2)
    dists = stack_distances(trace.block_trace())
    # Block-LRU with item capacity k holds k/B blocks.
    for k in (16, 64, 128):
        slots = k // trace.block_size
        predicted = dict(miss_ratio_curve(dists, [slots]))[slots]
        res = simulate(BlockLRU(k, trace.mapping), trace)
        assert res.miss_ratio == pytest.approx(predicted, abs=1e-12), k


def test_mrc_monotone_in_capacity():
    trace = zipf_items(3000, universe=512, alpha=1.0, block_size=8, seed=3)
    dists = stack_distances(trace.items)
    curve = miss_ratio_curve(dists, range(1, 200, 7))
    ratios = [r for _, r in curve]
    assert all(a >= b - 1e-12 for a, b in zip(ratios, ratios[1:]))


def test_mrc_validation():
    with pytest.raises(ConfigurationError):
        miss_ratio_curve(np.array([]), [1])
    with pytest.raises(ConfigurationError):
        miss_ratio_curve(np.array([0, 1]), [0])
    with pytest.raises(ConfigurationError, match="no capacities given"):
        miss_ratio_curve(np.array([0, 1]), [])


def test_iblp_grid_shape_and_extremes():
    mapping = FixedBlockMapping(universe=256, block_size=8)
    trace = Trace(np.tile(np.arange(256), 3), mapping)
    rows = iblp_mrc_grid(trace, capacities=[32], splits=(0.0, 1.0))
    by = {r["item_fraction"]: r["miss_ratio"] for r in rows}
    # Pure block layer aces the scan; pure item layer pays per item.
    assert by[0.0] < by[1.0]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 15), min_size=1, max_size=120))
def test_stack_distance_vs_naive(items):
    """Vectorized stack distances match the quadratic definition."""
    expected = []
    for t, x in enumerate(items):
        prev = None
        for s in range(t - 1, -1, -1):
            if items[s] == x:
                prev = s
                break
        if prev is None:
            expected.append(-1)
        else:
            expected.append(len(set(items[prev + 1 : t])))
    assert stack_distances(items).tolist() == expected


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(0, 31), min_size=1, max_size=100),
    st.integers(1, 20),
)
def test_mrc_agrees_with_simulation_property(items, k):
    mapping = FixedBlockMapping(universe=32, block_size=4)
    trace = Trace(np.asarray(items, dtype=np.int64), mapping)
    dists = stack_distances(trace.items)
    predicted = dict(miss_ratio_curve(dists, [k]))[k]
    res = simulate(ItemLRU(k, mapping), trace)
    assert res.miss_ratio == pytest.approx(predicted, abs=1e-12)
