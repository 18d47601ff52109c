"""Differential conformance: fast replay kernels vs the referee engine.

The load-bearing guarantee of :mod:`repro.core.fast` is that every
kernel is *bit-identical* to the validating referee — same
:class:`SimResult` down to metadata, same per-access outcome stream.
These tests replay randomized and adversarial traces through both
engines via :mod:`repro.core.conformance` for every supported policy,
and pin the fallback rules that keep ``simulate(..., fast=True)`` safe
for everything else.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.policies.adaptive_iblp
import repro.policies.athreshold
import repro.policies.block_cache
import repro.policies.iblp
import repro.policies.marking
from repro.core.conformance import (
    KIND_CODE,
    assert_conformant,
    assert_loads_conformant,
    assert_step_conformant,
    check_conformance,
    conformance_suite,
    fast_outcomes,
    referee_outcomes,
)
from repro.core.engine import Engine, simulate
from repro.core.fast import (
    FAST_POLICY_NAMES,
    compile_trace,
    fast_simulate,
    stepper,
    supports,
)
from repro.core.mapping import ExplicitBlockMapping, FixedBlockMapping
from repro.core.trace import Trace
from repro.errors import ConfigurationError
from repro.policies import make_policy, policy_names
from repro.workloads import hot_and_stream, markov_spatial, uniform_random, zipf_items

CAPACITIES = (1, 3, 8, 32)


def _trace(items, universe, B):
    return Trace(
        np.asarray(items, dtype=np.int64), FixedBlockMapping(universe, B)
    )


@pytest.fixture(scope="module")
def randomized_traces():
    """Seeded random traces over several (universe, B) geometries."""
    return {
        "uniform_b4": uniform_random(3000, universe=128, block_size=4, seed=11),
        "uniform_b1": uniform_random(1500, universe=64, block_size=1, seed=12),
        "zipf_b8": zipf_items(3000, universe=512, alpha=1.0, block_size=8, seed=13),
        "markov_b8": markov_spatial(
            3000, universe=256, block_size=8, stay=0.85, seed=14
        ),
        "hot_stream": hot_and_stream(
            3000, hot_items=24, stream_blocks=48, block_size=8, seed=15
        ),
    }


@pytest.fixture(scope="module")
def adversarial_traces():
    """Worst-case-shaped traces: sawtooth scans, ping-pong, thrash."""
    traces = {
        # Cyclic scan of k+1 distinct items: LRU's classic nemesis.
        "sawtooth": _trace(list(range(33)) * 30, universe=36, B=4),
        # Two blocks ping-ponging: exercises block eviction churn.
        "pingpong": _trace([0, 4, 1, 5, 2, 6, 3, 7] * 120, universe=8, B=4),
        # One block hammered: all-hit steady state.
        "hammer": _trace([2] * 400 + [0, 1, 2, 3] * 50, universe=8, B=4),
        # Hot items pinning blocks against a streaming scan (§5.1).
        "pollution": _trace(
            [x for i in range(300) for x in (0, 8 + (4 * i) % 56)],
            universe=64,
            B=4,
        ),
        # Capacity below block size (k < B): trimming paths + stale
        # block-entry replacement.
        "tiny_cache": _trace(
            np.random.default_rng(7).integers(0, 32, 800), universe=32, B=16
        ),
    }
    return traces


def test_randomized_grid_is_bit_identical(randomized_traces):
    rows = conformance_suite(randomized_traces, capacities=CAPACITIES)
    bad = [r for r in rows if not r["ok"]]
    assert not bad, "\n".join(
        f"{r['trace']}/{r['policy']}/k={r['capacity']}: {r['detail']}" for r in bad
    )


def test_adversarial_grid_is_bit_identical(adversarial_traces):
    rows = conformance_suite(adversarial_traces, capacities=CAPACITIES)
    bad = [r for r in rows if not r["ok"]]
    assert not bad, "\n".join(
        f"{r['trace']}/{r['policy']}/k={r['capacity']}: {r['detail']}" for r in bad
    )


@pytest.mark.parametrize("name", FAST_POLICY_NAMES)
def test_empty_trace_replay(name):
    trace = _trace([], universe=16, B=4)
    report = assert_conformant(name, 4, trace)
    assert report.accesses == 0


@pytest.mark.parametrize("name", FAST_POLICY_NAMES)
def test_degenerate_capacity_one(name):
    rng = np.random.default_rng(21)
    trace = _trace(rng.integers(0, 24, 600), universe=24, B=4)
    assert_conformant(name, 1, trace)


@pytest.mark.parametrize("name", FAST_POLICY_NAMES)
def test_degenerate_block_size_one(name):
    """B=1 collapses to traditional caching: no spatial hits anywhere."""
    rng = np.random.default_rng(22)
    trace = _trace(rng.integers(0, 24, 600), universe=24, B=1)
    report = assert_conformant(name, 6, trace)
    res = fast_simulate(make_policy(name, 6, trace.mapping), trace)
    assert res.spatial_hits == 0
    assert report.ok


@pytest.mark.parametrize("name", FAST_POLICY_NAMES)
def test_ragged_final_block(name):
    """A universe that is not a multiple of B leaves a short last block."""
    rng = np.random.default_rng(23)
    trace = _trace(rng.integers(0, 14, 600), universe=14, B=4)
    assert_conformant(name, 6, trace)


def test_athreshold_family_sweep():
    """Every a from eager (1) past degenerate (>= B) conforms."""
    rng = np.random.default_rng(24)
    trace = _trace(rng.integers(0, 64, 1200), universe=64, B=8)
    for a in (1, 2, 4, 8, 9):
        assert_conformant("athreshold-lru", 16, trace, a=a)


def test_iblp_split_extremes_conform():
    rng = np.random.default_rng(25)
    trace = _trace(rng.integers(0, 64, 1200), universe=64, B=8)
    for split in (0, 1, 8, 15, 16):
        assert_conformant("iblp", 16, trace, item_layer_size=split)


def test_outcome_stream_matches_referee_codes(randomized_traces):
    """The kernel's code stream equals the referee's classified stream."""
    trace = randomized_traces["zipf_b8"]
    ref_res, ref_codes = referee_outcomes(
        make_policy("block-lru", 32, trace.mapping), trace
    )
    fast_res, fast_codes = fast_outcomes(
        make_policy("block-lru", 32, trace.mapping), trace
    )
    assert ref_codes == fast_codes
    assert len(ref_codes) == len(trace)
    assert sorted(KIND_CODE.values()) == [0, 1, 2]
    assert fast_res.misses == ref_res.misses == fast_codes.count(0)


# -- fallback rules ----------------------------------------------------------
def test_unsupported_policy_returns_none():
    trace = _trace([0, 1, 2, 3], universe=16, B=4)
    belady = make_policy("belady-item", 4, trace.mapping)
    assert not supports(belady)
    assert fast_simulate(belady, trace) is None


def test_simulate_fast_falls_back_for_unsupported_policies():
    """fast=True on a kernel-less policy is the referee, bit for bit."""
    rng = np.random.default_rng(31)
    trace = _trace(rng.integers(0, 32, 500), universe=32, B=4)
    for name in sorted(policy_names()):
        ref = simulate(make_policy(name, 8, trace.mapping), trace)
        fst = simulate(make_policy(name, 8, trace.mapping), trace, fast=True)
        assert ref == fst, name


def test_warm_policy_falls_back_to_referee():
    trace = _trace([0, 1, 0, 1], universe=16, B=4)
    policy = make_policy("item-lru", 4, trace.mapping)
    policy.access(9)  # warm it up outside the trace
    assert fast_simulate(policy, trace) is None
    # simulate(fast=True) still works — referee continues from the warm
    # state exactly as it would without fast.
    res = simulate(policy, trace, fast=True)
    assert res.accesses == len(trace)
    assert res.temporal_hits == 2  # 0 and 1 stayed resident: warm state used


def test_mapping_mismatch_falls_back():
    """Equal (universe, B) but different partitions must not use kernels."""
    ids_a = [0, 0, 1, 1, 2, 2]
    ids_b = [0, 1, 0, 2, 1, 2]
    map_a = ExplicitBlockMapping(ids_a, max_block_size=2)
    map_b = ExplicitBlockMapping(ids_b, max_block_size=2)
    trace = Trace(np.array([0, 1, 2, 3, 4, 5]), map_a)
    policy = make_policy("block-lru", 4, map_b)
    assert fast_simulate(policy, trace) is None


def test_observation_keeps_the_referee():
    """on_access / recorder / cross_check_every force the referee path."""
    trace = _trace([0, 1, 0, 2], universe=16, B=4)
    seen = []
    res = simulate(
        make_policy("item-lru", 2, trace.mapping),
        trace,
        fast=True,
        on_access=lambda pos, item, kind: seen.append(pos),
    )
    assert seen == [0, 1, 2, 3]  # the observer ran: referee path
    assert res.accesses == 4


def test_fast_does_not_mutate_policy():
    rng = np.random.default_rng(33)
    trace = _trace(rng.integers(0, 32, 400), universe=32, B=4)
    policy = make_policy("iblp", 8, trace.mapping)
    res = fast_simulate(policy, trace)
    assert res.misses > 0
    assert policy.resident_items() == frozenset()


def test_check_conformance_rejects_kernel_less_policies():
    trace = _trace([0, 1, 2], universe=16, B=4)
    with pytest.raises(ConfigurationError, match="no fast kernel"):
        check_conformance("belady-item", 4, trace)


def test_compiled_trace_is_memoized():
    trace = _trace([0, 1, 2, 3], universe=16, B=4)
    assert compile_trace(trace) is compile_trace(trace)
    # The memo is keyed by content fingerprint, not object identity: a
    # pickled round-trip (what a pool worker receives per cell) must
    # hit the same compiled trace instead of recompiling.
    clone = pickle.loads(pickle.dumps(trace))
    assert clone is not trace
    assert compile_trace(clone) is compile_trace(trace)
    different = _trace([0, 1, 2, 4], universe=16, B=4)
    assert compile_trace(different) is not compile_trace(trace)


def test_compile_memo_is_bounded_and_can_be_disabled(monkeypatch):
    from repro.core import fast

    traces = [_trace([i, i + 1], universe=64, B=4) for i in range(0, 12, 2)]
    compiled = [compile_trace(t) for t in traces]
    assert len(fast._COMPILED) <= fast._COMPILE_MEMO_CAP
    # Most-recently-used entries survive the eviction sweep.
    assert compile_trace(traces[-1]) is compiled[-1]
    monkeypatch.setenv("REPRO_NO_COMPILE_MEMO", "1")
    assert compile_trace(traces[-1]) is not compiled[-1]


def test_compiled_trace_encoding():
    trace = _trace([8, 2, 8, 13], universe=16, B=4)
    ct = compile_trace(trace)
    assert ct.items == [8, 2, 8, 13]
    assert ct.blocks == [2, 0, 2, 3]
    assert ct.unique_items.tolist() == [2, 8, 13]
    assert ct.dense == [1, 0, 1, 2]  # indexes into unique_items
    assert ct.block_members[2] == (8, 9, 10, 11)
    assert ct.item_block[9] == 2  # side-load candidates covered too


# -- explicit churn rows -----------------------------------------------------
#
# A block-granularity miss can load an item its own evictions removed
# (GCM's same-block step-1 victim reloaded as a neighbour, a trimmed
# block entry replaced by an overlapping one).  The referee cancels
# such churn out of both reported sets; the kernels compute it only
# when the two sets meet.  These rows pick traces where they do and
# prove, on the referee side, that churn actually happened.


#: Modules of the policies whose accesses cancel load/evict churn.
CHURN_POLICY_MODULES = (
    repro.policies.marking,
    repro.policies.block_cache,
    repro.policies.iblp,
    repro.policies.adaptive_iblp,
    repro.policies.athreshold,
)


class _ChurnSpy(set):
    """A ``set`` that logs every non-empty ``loaded & evicted``."""

    log: list = []

    def __and__(self, other):
        out = set.__and__(self, other)
        if out:
            _ChurnSpy.log.append(frozenset(out))
        return out


def _referee_churn(name, capacity, trace, **kwargs):
    """Churned items per referee access (``{}`` when none churned).

    The block-granularity policies build ``loaded``/``evicted`` with
    their module's ``set``; swapping in :class:`_ChurnSpy` logs each
    access's churn without touching the policy code.
    """
    with pytest.MonkeyPatch.context() as mp:
        for module in CHURN_POLICY_MODULES:
            mp.setattr(module, "set", _ChurnSpy, raising=False)
        mp.setattr(_ChurnSpy, "log", [])
        engine = Engine(make_policy(name, capacity, trace.mapping, **kwargs))
        churned = {}
        for t, item in enumerate(trace.items.tolist()):
            before = len(_ChurnSpy.log)
            engine.access(item)
            if len(_ChurnSpy.log) > before:
                churn = _ChurnSpy.log[-1]
                outcome = engine.last_outcome
                # The referee reports neither side of the churn, and the
                # churned items end the access resident (reloaded).
                assert churn.isdisjoint(outcome.loaded)
                assert churn.isdisjoint(outcome.evicted)
                assert churn <= engine.resident
                churned[t] = churn
    return churned


def _churn_trace():
    """Two 4-item blocks, every block member touched, cache of 3."""
    prefix = [0, 1, 2, 3, 4, 5, 6, 7]
    rest = np.random.default_rng(5).integers(0, 8, 400).tolist()
    return _trace(prefix + rest, universe=8, B=4)


@pytest.mark.parametrize(
    "name, capacity, kwargs",
    [
        ("gcm", 3, {}),
        ("gcm", 3, {"seed": 7}),
        ("gcm-markall", 3, {}),
        ("gcm-partial", 3, {"load_count": 3}),
        ("iblp", 3, {"item_layer_size": 0}),
        ("iblp-blockfirst", 3, {"item_layer_size": 0}),
        ("block-lru", 2, {}),
        ("block-fifo", 2, {}),
        ("iblp-adaptive", 3, {"initial_item_fraction": 0.0}),
    ],
)
def test_churn_rows_match_the_referee(name, capacity, kwargs):
    trace = _churn_trace()
    churned = _referee_churn(name, capacity, trace, **kwargs)
    assert churned, "trace no longer makes a load set meet its evict set"
    assert_conformant(name, capacity, trace, **kwargs)  # mode="cell" (record)
    assert_loads_conformant(name, capacity, trace, **kwargs)  # mode="loads"


def test_iblp_trimmed_residue_churn_is_exact():
    # k=3 < B=4 with no item layer: item 3 misses against the trimmed
    # entry (0, 1, 2), which is replaced by (3, 0, 1) — 0 and 1 churn.
    trace = _trace([0, 3], universe=8, B=4)
    churned = _referee_churn("iblp", 3, trace, item_layer_size=0)
    assert churned == {1: frozenset({0, 1})}
    assert_conformant("iblp", 3, trace, item_layer_size=0)


def test_athreshold_loads_never_meet_its_evictions():
    # a=1 loads whole (trimmed) blocks and evicts LRU items, but the
    # victims skip the protected want-set, so there is no churn to
    # cancel; the rows still pin the multi-item load/evict tail.
    trace = _churn_trace()
    assert _referee_churn("athreshold-lru", 3, trace, a=1) == {}
    assert_conformant("athreshold-lru", 3, trace, a=1)
    assert_loads_conformant("athreshold-lru", 3, trace, a=1)


# -- IBLP layer sets ----------------------------------------------------------
#
# The IBLP kernels keep residency as two layer sets (item layer, block-layer
# items) instead of the referee's per-item layer refcounts.  Random small
# traces over a ragged final block, every capacity up to 12 and every split,
# hold them to the referee's outcome stream and per-miss load sizes.


@st.composite
def _ragged_traces(draw):
    B = draw(st.integers(1, 5))
    n_blocks = draw(st.integers(1, 64 // B - (B > 1)))
    universe = n_blocks * B + (draw(st.integers(1, B - 1)) if B > 1 else 0)
    items = draw(st.lists(st.integers(0, universe - 1), max_size=300))
    return _trace(items, universe=universe, B=B)


@settings(max_examples=150, deadline=None)
@given(
    trace=_ragged_traces(),
    name=st.sampled_from(["iblp", "iblp-blockfirst"]),
    capacity=st.integers(1, 12),
    data=st.data(),
)
def test_iblp_layer_sets_conform(trace, name, capacity, data):
    split = data.draw(st.integers(0, capacity), label="item_layer_size")
    assert_conformant(name, capacity, trace, item_layer_size=split)
    assert_loads_conformant(name, capacity, trace, item_layer_size=split)


@settings(max_examples=100, deadline=None)
@given(
    trace=_ragged_traces(),
    capacity=st.integers(1, 12),
    fraction=st.sampled_from([0.0, 0.5, 1.0]),
)
def test_adaptive_iblp_layer_sets_conform(trace, capacity, fraction):
    kwargs = {"initial_item_fraction": fraction}
    assert_conformant("iblp-adaptive", capacity, trace, **kwargs)
    assert_loads_conformant("iblp-adaptive", capacity, trace, **kwargs)


# -- stepped kernels (mode="step") --------------------------------------------
#
# Serving steps a kernel once per started request, in start order, which
# SJF reorders and drops thin out.  Every kernel, stepped over random
# subsets and permutations of hypothesis traces, must match the referee
# access for access, its residency probe included.


@pytest.mark.parametrize("name", FAST_POLICY_NAMES)
@settings(max_examples=25, deadline=None)
@given(trace=_ragged_traces(), capacity=st.integers(1, 12), data=st.data())
def test_stepped_kernels_conform_in_any_order(name, trace, capacity, data):
    positions = data.draw(
        st.lists(st.integers(0, max(len(trace) - 1, 0)), max_size=len(trace)),
        label="served positions",
    ) if len(trace) else []
    assert_step_conformant(name, capacity, trace, positions)


@pytest.mark.parametrize("name", FAST_POLICY_NAMES)
def test_stepped_kernels_conform_in_trace_order(name, randomized_traces):
    assert_step_conformant(name, 16, randomized_traces["markov_b8"])


def test_stepper_falls_back_like_fast_simulate():
    trace = _trace([0, 1, 2], universe=8, B=4)
    assert stepper(make_policy("belady-item", 2, trace.mapping), trace) is None
    warm = make_policy("item-lru", 2, trace.mapping)
    simulate(warm, trace)
    assert stepper(warm, trace) is None
