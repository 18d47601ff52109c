"""Campaign specs and the content address: every hash input matters."""

import numpy as np
import pytest

import repro
from repro.campaign.spec import CampaignSpec, CellSpec, TraceSpec, cell_hash
from repro.core.mapping import ExplicitBlockMapping, FixedBlockMapping
from repro.core.trace import Trace
from repro.errors import ConfigurationError
from repro.workloads import uniform_random


class TestTraceFingerprint:
    def test_same_content_same_fingerprint(self):
        a = uniform_random(500, universe=64, block_size=4, seed=7)
        b = Trace(
            a.items.copy(),
            FixedBlockMapping(universe=64, block_size=4),
            {"generator": "different-provenance"},
        )
        assert a.fingerprint() == b.fingerprint()  # metadata excluded

    def test_items_change_fingerprint(self):
        a = uniform_random(500, universe=64, block_size=4, seed=7)
        b = uniform_random(500, universe=64, block_size=4, seed=8)
        assert a.fingerprint() != b.fingerprint()

    def test_partition_changes_fingerprint(self):
        items = np.arange(32)
        a = Trace(items, FixedBlockMapping(universe=32, block_size=4))
        b = Trace(items, FixedBlockMapping(universe=32, block_size=8))
        assert a.fingerprint() != b.fingerprint()

    def test_explicit_mapping_fingerprints(self):
        items = np.arange(8)
        blocks = np.array([0, 0, 1, 1, 2, 2, 3, 3])
        a = Trace(items, ExplicitBlockMapping(blocks, max_block_size=2))
        b = Trace(items, FixedBlockMapping(universe=8, block_size=2))
        # Same partition structure but a different mapping encoding is
        # allowed to hash differently; equal encodings must hash equal.
        c = Trace(items, ExplicitBlockMapping(blocks, max_block_size=2))
        assert a.fingerprint() == c.fingerprint()
        assert isinstance(b.fingerprint(), str)

    def test_npz_round_trip_preserves_fingerprint(self, tmp_path):
        a = uniform_random(200, universe=64, block_size=4, seed=1)
        a.save(tmp_path / "t.npz")
        assert Trace.load(tmp_path / "t.npz").fingerprint() == a.fingerprint()


class TestCellHash:
    BASE = dict(
        policy="item-lru",
        capacity=64,
        trace_fingerprint="f" * 64,
        fast=True,
        policy_kwargs={},
        version="1.0.0",
    )

    def test_deterministic(self):
        assert cell_hash(**self.BASE) == cell_hash(**self.BASE)

    @pytest.mark.parametrize(
        "change",
        [
            {"policy": "iblp"},
            {"capacity": 65},
            {"trace_fingerprint": "e" * 64},
            {"fast": False},
            {"policy_kwargs": {"seed": 1}},
            {"version": "1.0.1"},
        ],
    )
    def test_every_input_matters(self, change):
        assert cell_hash(**{**self.BASE, **change}) != cell_hash(**self.BASE)

    def test_kwargs_order_irrelevant(self):
        a = cell_hash(**{**self.BASE, "policy_kwargs": {"a": 1, "b": 2}})
        b = cell_hash(**{**self.BASE, "policy_kwargs": {"b": 2, "a": 1}})
        assert a == b

    def test_version_defaults_to_library(self):
        args = {k: v for k, v in self.BASE.items() if k != "version"}
        assert cell_hash(**args) == cell_hash(
            **{**self.BASE, "version": repro.__version__}
        )


class TestCampaignSpecDigests:
    def test_digests_equal_per_cell_hash(self):
        """Offline, serving, and cluster cells address exactly as the
        eight-argument ``cell_hash`` call, under the pinned version."""
        serving = {"arrivals": {"rate": 0.02}, "seed": 3}
        cluster = {"n_shards": 4, "scheme": "block"}
        spec = CampaignSpec(
            name="digests",
            traces={"a": TraceSpec(), "b": TraceSpec(name="zipf")},
            cells=[
                CellSpec(policy="iblp", capacity=64, trace="a"),
                CellSpec(
                    policy="gcm",
                    capacity=32,
                    trace="b",
                    fast=False,
                    policy_kwargs={"seed": 7},
                    serving=serving,
                ),
                CellSpec(policy="item-lru", capacity=16, trace="a", cluster=cluster),
                CellSpec(
                    policy="iblp",
                    capacity=16,
                    trace="b",
                    serving=serving,
                    cluster=cluster,
                ),
            ],
            version="0.0.1-pinned",
        )
        fingerprints = {"a": "a" * 64, "b": "b" * 64}
        want = [
            cell_hash(
                policy=cell.policy,
                capacity=cell.capacity,
                trace_fingerprint=fingerprints[cell.trace],
                fast=cell.fast,
                policy_kwargs=cell.policy_kwargs,
                version="0.0.1-pinned",
                serving=cell.serving,
                cluster=cell.cluster,
            )
            for cell in spec.cells
        ]
        assert spec.digests(fingerprints) == want
        assert len(set(want)) == len(want)


class TestCampaignSpec:
    def _spec(self):
        return CampaignSpec.from_grid(
            name="demo",
            policies=["item-lru", "iblp"],
            capacities=[16, 64],
            traces={
                "u0": TraceSpec(
                    kind="workload",
                    name="uniform",
                    params={"length": 100, "universe": 32, "block_size": 4},
                )
            },
        )

    def test_grid_shape_and_order(self):
        spec = self._spec()
        assert [(c.policy, c.capacity) for c in spec.cells] == [
            ("item-lru", 16),
            ("item-lru", 64),
            ("iblp", 16),
            ("iblp", 64),
        ]

    def test_save_load_round_trip(self, tmp_path):
        spec = self._spec()
        spec.save(tmp_path)
        loaded = CampaignSpec.load(tmp_path)
        assert loaded.as_dict() == spec.as_dict()
        assert loaded.version == repro.__version__

    def test_load_missing_directory(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not a campaign"):
            CampaignSpec.load(tmp_path / "nope")

    def test_unknown_trace_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown trace key"):
            CampaignSpec(
                name="x",
                traces={},
                cells=[CellSpec(policy="item-lru", capacity=4, trace="ghost")],
            )

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec.from_grid(
                name="x", policies=[], capacities=[4], traces={}
            )

    def test_workload_trace_materializes(self):
        spec = self._spec()
        trace = spec.traces["u0"].materialize()
        assert len(trace) == 100
        assert trace.block_size == 4

    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown campaign workload"):
            TraceSpec(kind="workload", name="nope").materialize()

    def test_file_trace_spec(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("0\n1\n2\n3\n")
        tspec = TraceSpec(kind="file", path=str(path), block_size=2)
        assert tspec.materialize().items.tolist() == [0, 1, 2, 3]
        # Editing the file changes the materialized fingerprint even
        # though the spec text is unchanged.
        fp = tspec.materialize().fingerprint()
        path.write_text("0\n1\n2\n7\n")
        assert tspec.materialize().fingerprint() != fp
