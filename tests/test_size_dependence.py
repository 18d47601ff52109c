"""Size-dependence experiment tests (§5.3 / §6.2) and PartialGCM."""

import numpy as np
import pytest

from repro.core.engine import simulate
from repro.core.mapping import FixedBlockMapping
from repro.core.trace import Trace
from repro.errors import ConfigurationError
from repro.experiments import size_dependence
from repro.policies import GCM, AdaptiveIBLP, MarkingLRU, PartialGCM, make_policy
from repro.workloads import hot_and_stream, interleaved_streams


class TestBoundsCrossing:
    def test_crossing_exists_between_design_points(self):
        cross = size_dependence.bounds_crossing()
        assert cross["h_small"] < cross["h_cross"] < cross["h_large"]

    def test_each_split_wins_at_home(self):
        cross = size_dependence.bounds_crossing()
        assert (
            cross["ratio_small_split_at_h_small"]
            < cross["ratio_large_split_at_h_small"]
        )
        assert (
            cross["ratio_large_split_at_h_large"]
            < cross["ratio_small_split_at_h_large"]
        )


class TestEmpiricalFlip:
    def test_ranking_flips(self):
        rows = size_dependence.empirical_flip(k=128, B=8, length=20_000)
        by = {(r["workload"], r["split"]): r["misses"] for r in rows}
        assert (
            by[("temporal_heavy", "item_heavy_split")]
            < by[("temporal_heavy", "block_heavy_split")]
        )
        assert (
            by[("spatial_heavy", "block_heavy_split")]
            < by[("spatial_heavy", "item_heavy_split")]
        )

    def test_render_smoke(self):
        text = size_dependence.render(k=64, B=4)
        assert "Size dependence" in text


class TestCapacityCurves:
    def test_rows_equal_per_cell_referee(self):
        B, length, seed, caps = 8, 5_000, 3, (16, 64, 256)
        rows = size_dependence.capacity_curves(
            B=B, length=length, seed=seed, capacities=caps
        )
        traces = {
            "temporal_heavy": hot_and_stream(
                length=length,
                hot_items=200,
                stream_blocks=256,
                block_size=B,
                hot_fraction=0.95,
                seed=seed,
            ),
            "spatial_heavy": interleaved_streams(
                length=length, streams=16, blocks_per_stream=64, block_size=B
            ),
        }
        want = []
        for wname, trace in traces.items():
            for policy in ("item-lru", "block-lru"):
                for k in caps:
                    res = simulate(make_policy(policy, k, trace.mapping), trace)
                    want.append(
                        {
                            "workload": wname,
                            "policy": res.policy,
                            "capacity": k,
                            "miss_ratio": res.miss_ratio,
                            "spatial_fraction": res.spatial_fraction,
                        }
                    )
        assert rows == want


class TestAdaptiveHedge:
    def test_adaptive_rows_report_the_converged_split(self):
        k, B, length, seed = 64, 8, 5_000, 17
        rows = size_dependence.adaptive_hedge(k=k, B=B, length=length, seed=seed)
        traces = {
            "temporal_heavy": hot_and_stream(
                length=length,
                hot_items=int(0.8 * k),
                stream_blocks=4 * k // B,
                block_size=B,
                hot_fraction=0.95,
                seed=seed,
            ),
            "spatial_heavy": interleaved_streams(
                length=length,
                streams=2 * ((k // 4) // B) + 4,
                blocks_per_stream=64,
                block_size=B,
            ),
        }
        adaptive = {r["workload"]: r for r in rows if r["split"] == "adaptive"}
        assert sorted(adaptive) == sorted(traces)
        for wname, trace in traces.items():
            policy = AdaptiveIBLP(k, trace.mapping)
            res = simulate(policy, trace)
            # The boundary moved away from its initial k/2 split, so a
            # row reading an untouched policy would differ.
            assert policy.item_layer_target != k // 2
            assert adaptive[wname]["item_layer"] == policy.item_layer_target
            assert adaptive[wname]["misses"] == res.misses


class TestInterleavedStreams:
    def test_structure(self):
        t = interleaved_streams(12, streams=3, blocks_per_stream=2, block_size=2)
        # Round-robin: stream 0 item 0, stream 1 item 4, stream 2 item 8...
        assert t.items[:6].tolist() == [0, 4, 8, 1, 5, 9]

    def test_no_item_repeats_within_lap(self):
        t = interleaved_streams(64, streams=2, blocks_per_stream=4, block_size=4)
        lap = 2 * 4 * 4
        assert len(set(t.items[:lap].tolist())) == lap

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            interleaved_streams(10, streams=0, blocks_per_stream=1)


class TestPartialGCM:
    @pytest.fixture
    def mapping(self):
        return FixedBlockMapping(universe=64, block_size=4)

    def test_load_count_bounds_loads(self, mapping):
        p = PartialGCM(16, mapping, load_count=2, seed=0)
        out = p.access(0)
        assert 0 in out.loaded
        assert len(out.loaded) == 2

    def test_load_count_one_is_markinglike(self, mapping):
        trace = Trace(np.arange(64), mapping)
        partial = simulate(PartialGCM(16, mapping, load_count=1, seed=0), trace)
        marking = simulate(MarkingLRU(16, mapping), trace)
        assert partial.misses == marking.misses == 64

    def test_load_count_b_matches_gcm(self, mapping):
        trace = Trace(
            np.random.default_rng(1).integers(0, 64, 800, dtype=np.int64),
            mapping,
        )
        partial = simulate(PartialGCM(16, mapping, load_count=4, seed=3), trace)
        gcm = simulate(GCM(16, mapping, seed=3), trace)
        assert partial.misses == gcm.misses

    def test_rejects_bad_load_count(self, mapping):
        with pytest.raises(ConfigurationError):
            PartialGCM(16, mapping, load_count=0)

    def test_reset_preserves_load_count(self, mapping):
        p = PartialGCM(16, mapping, load_count=3, seed=2)
        p.access(0)
        p.reset()
        assert p.max_load == 3
        assert not p.contains(0)

    def test_referee_validated(self, mapping):
        trace = Trace(
            np.random.default_rng(2).integers(0, 64, 1200, dtype=np.int64),
            mapping,
        )
        for lc in (1, 2, 3, 4):
            res = simulate(
                PartialGCM(12, mapping, load_count=lc, seed=1),
                trace,
                cross_check_every=61,
            )
            assert res.accesses == 1200

    def test_monotone_spatial_hits_on_scan(self, mapping):
        trace = Trace(np.tile(np.arange(64), 2), mapping)
        hits = [
            simulate(
                PartialGCM(16, mapping, load_count=lc, seed=0), trace
            ).spatial_hits
            for lc in (1, 2, 4)
        ]
        assert hits[0] <= hits[1] <= hits[2]
