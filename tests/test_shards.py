"""SHARDS sampler properties: determinism, block-closure, rate
monotonicity/calibration, and the rescaled-MRC convergence bounds
documented in docs/traces.md."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.mrc import (
    miss_ratio_curve,
    sampled_miss_ratio_curve,
    sampled_spatial_fraction,
)
from repro.core import rtc
from repro.core.engine import simulate
from repro.core.readwrite import RWTrace
from repro.core.reuse import stack_distances
from repro.errors import ConfigurationError
from repro.policies import make_policy
from repro.workloads import markov_spatial, sample_trace, shards, zipf_items
from repro.workloads.stream import convert_to_rtc, sample_rtc
from repro.workloads.trace_io import write_text_trace

_blocks = st.lists(st.integers(0, 2**48), min_size=1, max_size=200)


@given(blocks=_blocks, rate=st.floats(0.01, 1.0), seed=st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_sampler_deterministic(blocks, rate, seed):
    arr = np.asarray(blocks, dtype=np.int64)
    a = shards(rate, seed).keep_blocks(arr)
    b = shards(rate, seed).keep_blocks(arr)
    assert np.array_equal(a, b)


@given(
    items=st.lists(st.integers(0, 10_000), min_size=1, max_size=200),
    rate=st.floats(0.01, 0.99),
    seed=st.integers(0, 2**16),
    block_size=st.integers(1, 16),
)
@settings(max_examples=60, deadline=None)
def test_sampler_block_closed(items, rate, seed, block_size):
    """Every item of a block shares the keep decision — load sets
    survive sampling intact."""
    arr = np.asarray(items, dtype=np.int64)
    mask = shards(rate, seed).keep_items(arr, block_size)
    decisions = {}
    for item, kept in zip(arr.tolist(), mask.tolist()):
        block = item // block_size
        assert decisions.setdefault(block, kept) == kept


@given(
    blocks=_blocks,
    lo=st.floats(0.05, 0.5),
    hi=st.floats(0.5, 1.0),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_sampler_rate_monotone(blocks, lo, hi, seed):
    """Raising the rate only adds blocks: the same hash is compared to
    a larger threshold, so samples are nested across rates."""
    arr = np.asarray(blocks, dtype=np.int64)
    kept_lo = shards(min(lo, hi), seed).keep_blocks(arr)
    kept_hi = shards(max(lo, hi), seed).keep_blocks(arr)
    assert not (kept_lo & ~kept_hi).any()


def _coin(sampler, blocks):
    """The keep decision flipped for every access alone (one-element
    calls have no runs to share a hash across)."""
    flips = {b: bool(sampler.keep_blocks(np.array([b]))[0]) for b in set(blocks)}
    return np.array([flips[b] for b in blocks], dtype=bool)


@given(
    runs=st.lists(
        st.tuples(st.integers(0, 2**48), st.integers(1, 60)), min_size=1, max_size=30
    ),
    rate=st.floats(0.05, 0.95),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_per_run_mask_equals_per_access_mask(runs, rate, seed):
    sampler = shards(rate, seed)
    blocks = [b for b, times in runs for _ in range(times)]
    got = sampler.keep_blocks(np.asarray(blocks, dtype=np.int64))
    assert got.tolist() == _coin(sampler, blocks).tolist()
    square = np.asarray(blocks[: len(blocks) // 2 * 2], dtype=np.int64).reshape(2, -1)
    assert sampler.keep_blocks(square).tolist() == [
        _coin(sampler, row).tolist() for row in square.tolist()
    ]


@pytest.mark.parametrize("chunk", [1, 7, 64, 1000])
def test_per_run_mask_across_chunk_boundaries(tmp_path, chunk):
    """Runs split by a chunk boundary keep one decision on both sides,
    in every path that samples chunk by chunk."""
    trace = markov_spatial(length=3000, universe=512, block_size=8, stay=0.95, seed=4)
    sampler = shards(0.3, seed=9)
    want = trace.items[_coin(sampler, trace.block_trace().tolist())]
    assert np.array_equal(sampler.sampled_items(trace), want)
    mm = rtc.open_rtc(rtc.trace_to_rtc(trace, tmp_path / "t.rtc"))
    assert np.array_equal(sampler.sampled_items(mm, chunk=chunk), want)
    thinned = sample_rtc(tmp_path / "t.rtc", tmp_path / "s.rtc", 0.3, seed=9, chunk=chunk)
    assert np.array_equal(np.asarray(rtc.open_rtc(thinned).items), want)
    text = write_text_trace(
        RWTrace(trace=trace, is_write=np.zeros(len(trace), dtype=bool)),
        tmp_path / "t.txt",
    )
    converted = convert_to_rtc(
        text, tmp_path / "c.rtc", block_size=8, sample_rate=0.3, sample_seed=9, chunk=chunk
    )
    assert np.array_equal(np.asarray(rtc.open_rtc(converted).items), want)


def test_sampler_rate_calibrated():
    blocks = np.arange(200_000, dtype=np.int64)
    for rate in (0.01, 0.1, 0.5):
        frac = shards(rate, seed=1).keep_blocks(blocks).mean()
        assert abs(frac - rate) < 0.01


def test_sampler_seeds_decorrelate():
    blocks = np.arange(2000, dtype=np.int64)
    a = shards(0.5, seed=0).keep_blocks(blocks)
    b = shards(0.5, seed=1).keep_blocks(blocks)
    assert (a != b).mean() > 0.25


def test_rate_one_keeps_everything():
    blocks = np.arange(100, dtype=np.int64)
    assert shards(1.0, seed=3).keep_blocks(blocks).all()


def test_bad_rate_rejected():
    for rate in (0.0, -0.1, 1.5):
        with pytest.raises(ConfigurationError, match="sample rate"):
            shards(rate)


def test_sample_trace_provenance():
    trace = markov_spatial(
        length=5000, universe=1024, block_size=8, stay=0.8, seed=2
    )
    sub = sample_trace(trace, 0.2, seed=5)
    assert sub.mapping is trace.mapping
    assert sub.metadata["shards_rate"] == 0.2
    assert sub.metadata["shards_seed"] == 5
    assert sub.metadata["shards_parent_accesses"] == 5000
    assert 0 < len(sub) < 5000


# -- rescaled-MRC convergence ------------------------------------------------


def exact_curves(trace, caps):
    item = dict(miss_ratio_curve(stack_distances(trace.items), caps))
    block_slots = [max(1, k // trace.block_size) for k in caps]
    block = dict(
        miss_ratio_curve(stack_distances(trace.block_trace()), block_slots)
    )
    return item, block


def test_markov_mrc_converges_within_documented_bound():
    """docs/traces.md documents <= ~5 points of absolute miss-ratio
    error on evenly-loaded spatial workloads at rates down to 1 %."""
    trace = markov_spatial(
        length=120_000, universe=16_384, block_size=8, stay=0.8, seed=7
    )
    caps = [1024, 4096, 16_384]
    exact_item, exact_block = exact_curves(trace, caps)
    # The estimator variance shrinks with the number of sampled blocks,
    # so the bound tightens as the rate grows (at this trace scale).
    bounds = {0.01: 0.08, 0.05: 0.06, 0.1: 0.06}
    for rate, bound in bounds.items():
        for seed in (0, 1):
            approx = dict(
                sampled_miss_ratio_curve(trace, caps, rate, seed=seed)
            )
            worst = max(abs(approx[k] - exact_item[k]) for k in caps)
            assert worst <= bound, (rate, seed, worst)
            slots = [max(1, k // 8) for k in caps]
            approx_b = dict(
                sampled_miss_ratio_curve(
                    trace, slots, rate, seed=seed, granularity="block"
                )
            )
            worst_b = max(
                abs(approx_b[max(1, k // 8)] - exact_block[max(1, k // 8)])
                for k in caps
            )
            assert worst_b <= bound, (rate, seed, worst_b)


def test_zipf_mrc_converges_at_higher_rate():
    """Skewed block popularity needs higher rates (the documented
    limitation): at 10 % the zipf curve is still within ~12 points."""
    trace = zipf_items(
        length=120_000, universe=16_384, block_size=8, alpha=0.7, seed=9
    )
    caps = [1024, 4096, 16_384]
    exact_item, _ = exact_curves(trace, caps)
    for seed in (0, 1):
        approx = dict(sampled_miss_ratio_curve(trace, caps, 0.1, seed=seed))
        worst = max(abs(approx[k] - exact_item[k]) for k in caps)
        assert worst <= 0.12, (seed, worst)


def test_sampled_spatial_fraction_tracks_exact():
    trace = markov_spatial(
        length=80_000, universe=8192, block_size=8, stay=0.8, seed=4
    )
    exact = simulate(
        make_policy("block-lru", 2048, trace.mapping), trace, fast=True
    ).spatial_fraction
    for seed in (0, 1):
        approx = sampled_spatial_fraction(trace, 2048, 0.1, seed=seed)
        assert abs(approx - exact) <= 0.05, (seed, approx, exact)


def test_sampled_mrc_rejects_bad_granularity():
    trace = markov_spatial(
        length=2000, universe=512, block_size=8, stay=0.8, seed=1
    )
    with pytest.raises(ConfigurationError, match="granularity"):
        sampled_miss_ratio_curve(trace, [64], 0.1, granularity="word")
