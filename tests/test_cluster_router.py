"""Router invariants: the hashing layer under the cluster.

The load-bearing guarantee is the *block-aware* scheme's: a block is
never split across shards, for any shard count, seed, or vnode count —
that is what preserves spatial locality under sharding.  The rest pins
determinism (same spec ⇒ same routing), the exactly-once partition
property of :meth:`ShardRouter.split`, and that a sub-trace is
fingerprinted like any trace over the same items.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, replay_cluster
from repro.cluster.router import SCHEMES, RoutingPlan, ShardRouter
from repro.core.mapping import FixedBlockMapping
from repro.core.trace import Trace
from repro.errors import ConfigurationError
from repro.workloads import markov_spatial, zipf_items


def trace():
    return markov_spatial(
        length=6000, universe=1024, block_size=8, stay=0.85, seed=5
    )


@pytest.mark.parametrize("n_shards", [1, 2, 3, 4, 8, 16])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_block_scheme_never_splits_a_block(n_shards, seed):
    tr = trace()
    router = ShardRouter(n_shards=n_shards, scheme="block", seed=seed)
    items = np.arange(tr.mapping.universe, dtype=np.int64)
    shards = router.shards_of(items, tr.mapping)
    blocks = tr.mapping.blocks_of(items)
    for block in np.unique(blocks):
        owners = np.unique(shards[blocks == block])
        assert owners.size == 1, f"block {block} split across {owners}"
    assert router.block_split_stats(tr)["blocks_split"] == 0


def test_item_scheme_splits_blocks_and_modulo_is_exact():
    tr = trace()
    striped = ShardRouter(n_shards=4, scheme="item")
    stats = striped.block_split_stats(tr)
    assert stats["blocks_split"] > 0
    assert stats["mean_shards_per_block"] > 1.0

    items = np.arange(tr.mapping.universe, dtype=np.int64)
    modulo = ShardRouter(n_shards=4, scheme="modulo")
    np.testing.assert_array_equal(
        modulo.shards_of(items, tr.mapping), items % 4
    )


@pytest.mark.parametrize("scheme", SCHEMES)
def test_routing_is_deterministic_and_single_shard_is_trivial(scheme):
    tr = trace()
    a = ShardRouter(n_shards=4, scheme=scheme)
    b = ShardRouter(n_shards=4, scheme=scheme)
    items = np.arange(tr.mapping.universe, dtype=np.int64)
    np.testing.assert_array_equal(
        a.shards_of(items, tr.mapping), b.shards_of(items, tr.mapping)
    )
    one = ShardRouter(n_shards=1, scheme=scheme)
    assert not one.shards_of(items, tr.mapping).any()


@pytest.mark.parametrize("scheme", SCHEMES)
def test_split_partitions_every_access_exactly_once(scheme):
    tr = trace()
    router = ShardRouter(n_shards=4, scheme=scheme)
    plan = router.split(tr)
    assert isinstance(plan, RoutingPlan)
    assert sum(len(sub) for sub in plan.subtraces) == len(tr)
    scattered = np.full(len(tr), -1, dtype=np.int64)
    for shard, idx in enumerate(plan.indices):
        assert not (scattered[idx] != -1).any(), "access routed twice"
        scattered[idx] = shard
        np.testing.assert_array_equal(
            tr.items[idx], plan.subtraces[shard].items
        )
    assert (scattered >= 0).all(), "access never routed"
    assert plan.accesses_per_shard().sum() == len(tr)


def test_hash_seed_changes_block_placement_not_integrity():
    tr = trace()
    items = np.arange(tr.mapping.universe, dtype=np.int64)
    a = ShardRouter(n_shards=8, scheme="block", seed=0)
    b = ShardRouter(n_shards=8, scheme="block", seed=1)
    assert (
        a.shards_of(items, tr.mapping) != b.shards_of(items, tr.mapping)
    ).any()
    assert b.block_split_stats(tr)["blocks_split"] == 0


def test_subtrace_fingerprint_equals_fresh_trace():
    tr = zipf_items(length=3000, universe=512, alpha=1.0, block_size=8, seed=2)
    for scheme in SCHEMES:
        for sub in ShardRouter(n_shards=4, scheme=scheme).split(tr).subtraces:
            fresh = Trace(sub.items.copy(), tr.mapping)
            assert sub.fingerprint() == fresh.fingerprint()


def test_unknown_scheme_rejected():
    with pytest.raises(ConfigurationError):
        ShardRouter(n_shards=2, scheme="rendezvous")
    with pytest.raises(ConfigurationError):
        ShardRouter(n_shards=0, scheme="block")


# -- block-split statistics ---------------------------------------------------
def _brute_split_stats(router, tr):
    """Per-block shard sets in a dict, one scalar route per access."""
    owners = {}
    for item in tr.items.tolist():
        owners.setdefault(tr.mapping.block_of(item), set()).add(
            router.shard_of(item, tr.mapping)
        )
    spread = [len(shards) for shards in owners.values()]
    return {
        "blocks_referenced": len(spread),
        "blocks_split": sum(n > 1 for n in spread),
        "mean_shards_per_block": sum(spread) / len(spread) if spread else 0.0,
    }


@settings(max_examples=200, deadline=None)
@given(
    scheme=st.sampled_from(SCHEMES),
    n_shards=st.integers(1, 8),
    seed=st.integers(0, 3),
    B=st.integers(1, 5),
    n_blocks=st.integers(1, 12),
    far=st.booleans(),
    data=st.data(),
)
def test_block_split_stats_match_brute_force(
    scheme, n_shards, seed, B, n_blocks, far, data
):
    # A ragged final block whenever B > 1; ``far`` moves the items (and,
    # for B = 1, the block ids) just past 2**62.
    universe = n_blocks * B + (data.draw(st.integers(1, B - 1)) if B > 1 else 0)
    base = (2**62 // B) * B if far else 0
    items = data.draw(st.lists(st.integers(0, universe - 1), max_size=200))
    tr = Trace(
        np.asarray(items, dtype=np.int64) + base,
        FixedBlockMapping(base + universe, B),
    )
    router = ShardRouter(n_shards=n_shards, scheme=scheme, seed=seed)
    assert router.block_split_stats(tr) == _brute_split_stats(router, tr)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_block_split_stats_key_cannot_overflow(scheme):
    # Block ids near 2**62: block * n_shards would wrap int64, the dense
    # block index times n_shards cannot.
    base = 2**62 - 16
    items = np.arange(base, base + 32, dtype=np.int64).repeat(3)
    tr = Trace(items, FixedBlockMapping(base + 64, 1))
    router = ShardRouter(n_shards=8, scheme=scheme)
    stats = router.block_split_stats(tr)
    assert stats == _brute_split_stats(router, tr)
    assert stats == {
        "blocks_referenced": 32,
        "blocks_split": 0,
        "mean_shards_per_block": 1.0,
    }


def test_block_split_stats_of_an_empty_trace():
    tr = Trace(np.array([], dtype=np.int64), FixedBlockMapping(16, 4))
    for scheme in SCHEMES:
        stats = ShardRouter(n_shards=4, scheme=scheme).block_split_stats(tr)
        assert stats == {
            "blocks_referenced": 0,
            "blocks_split": 0,
            "mean_shards_per_block": 0.0,
        }


@pytest.mark.parametrize("scheme", SCHEMES)
def test_replay_routes_once_and_reports_the_router_stats(scheme, monkeypatch):
    tr = trace()
    spec = ClusterSpec(n_shards=4, scheme=scheme)
    expected = spec.router().block_split_stats(tr)
    calls = []
    shards_of = ShardRouter.shards_of

    def counting(self, items, mapping):
        calls.append(len(items))
        return shards_of(self, items, mapping)

    monkeypatch.setattr(ShardRouter, "shards_of", counting)
    result = replay_cluster("item-lru", 64, tr, spec)
    assert calls == [len(tr)]
    assert result.block_stats == expected
