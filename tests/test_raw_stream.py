"""The seeded draw stream (:mod:`repro.core.raw_stream`).

The GCM family and ``item-random`` kernels and the per-step trace
generators draw from :func:`~repro.core.raw_stream.draw_stream`: a
pure-Python replica of a seeded PCG64 ``Generator``'s scalar
``integers(n)``, ``random()``, list ``shuffle``, ``permutation``,
``choice(pop, size, replace=False)`` and ``choice(len(p), p=p)``, or
numpy's generator itself when the replica's self-check fails or a
draw leaves the replicated paths.  These tests pin:

* the replica against numpy draw for draw over interleaved sequences
  of every call, including refill boundaries crossed with a high
  32-bit half still carried, and 64-bit draws landing on a carried
  half mid-block and at a block's last entry;
* the fallback: with the self-check forced to fail, every randomized
  kernel still matches the referee (``record`` and ``loads`` rows and
  the chunked mmap traversal) and the generators get numpy too;
* the ``rng`` span attribute, so a fallback is never silent.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import raw_stream
from repro.core.conformance import (
    assert_conformant,
    assert_loads_conformant,
    assert_mmap_conformant,
)
from repro.core.engine import simulate
from repro.core.fast import multi_policy_replay
from repro.core.raw_stream import (
    NumpyStream,
    RawStream,
    draw_stream,
    generator_stream,
)
from repro.core.rtc import open_rtc, trace_to_rtc
from repro.policies import make_policy
from repro.telemetry import spans
from repro.workloads import hot_and_stream

RANDOMIZED = ("gcm", "gcm-markall", "gcm-partial", "item-random")

#: Halves per refill block: the 32-bit draw count at which the replica
#: refetches ``random_raw``.
BLOCK_HALVES = 2 * raw_stream.RAW_BLOCK

_bounds = st.one_of(
    st.sampled_from([1, 2, 7, 2**31, 2**32 - 1]),
    st.integers(min_value=1, max_value=2**32 - 1),
)
_samples = st.integers(min_value=1, max_value=64).flatmap(
    lambda pop: st.tuples(st.just(pop), st.integers(min_value=0, max_value=pop))
)
_zipf = st.tuples(
    st.integers(min_value=1, max_value=5000),
    st.floats(min_value=0.0, max_value=2.0),
    st.integers(min_value=1, max_value=4),
)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("integers"), _bounds),
        st.tuples(st.just("shuffle"), st.sampled_from([0, 1, 2, 7, 8, 64])),
        st.tuples(st.just("random"), st.none()),
        st.tuples(st.just("sample"), _samples),
        st.tuples(st.just("weighted"), _zipf),
        st.tuples(st.just("permutation"), st.integers(min_value=0, max_value=300)),
    ),
    max_size=80,
)


def _zipf_p(n, alpha):
    p = np.arange(1, n + 1, dtype=float) ** -alpha
    return p / p.sum()


def _replay(ops, raw, ref):
    for kind, arg in ops:
        if kind == "integers":
            assert raw.integers(arg) == int(ref.integers(arg)), (kind, arg)
        elif kind == "shuffle":
            mine, theirs = list(range(arg)), list(range(arg))
            raw.shuffle(mine)
            ref.shuffle(theirs)
            assert mine == theirs, (kind, arg)
        elif kind == "random":
            assert raw.random() == ref.random(), kind
        elif kind == "sample":
            pop, size = arg
            theirs = ref.choice(pop, size, replace=False).tolist()
            assert raw.sample(pop, size) == theirs, (kind, arg)
        elif kind == "weighted":
            n, alpha, picks = arg
            p = _zipf_p(n, alpha)
            pick = raw.weighted(p)
            for _ in range(picks):
                assert pick() == int(ref.choice(n, p=p)), (kind, arg)
        else:
            assert raw.permutation(arg) == ref.permutation(arg).tolist(), (kind, arg)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**63), ops=_ops)
def test_replica_matches_numpy(seed, ops):
    _replay(ops, RawStream(seed), np.random.default_rng(seed))


@pytest.mark.parametrize("seed", [0, 5, 2**40 + 3])
def test_refill_boundary_with_carried_high_half(seed):
    raw, ref = RawStream(seed), np.random.default_rng(seed)
    # integers(2**31) never rejects, so each call takes one 32-bit
    # half: after BLOCK_HALVES - 1 calls the last raw output's high half
    # is still carried and the block is one draw from exhausted.
    _replay([("integers", 2**31)] * (BLOCK_HALVES - 1), raw, ref)
    assert raw._pos == BLOCK_HALVES - 1
    _replay(
        [("shuffle", 8), ("integers", 7), ("shuffle", 64), ("integers", 2**32 - 1)],
        raw,
        ref,
    )
    assert 0 < raw._pos < BLOCK_HALVES  # the sequence did refill
    # A shuffle that starts just before the boundary refills mid-list.
    _replay([("integers", 2**31)] * (BLOCK_HALVES - raw._pos - 2), raw, ref)
    _replay([("shuffle", 64), ("integers", 3)], raw, ref)


def _skip_to(raw, ref, pos):
    """Advance both streams to 32-bit position ``pos`` of the current
    block (``integers(2**31)`` takes exactly one half and numpy's
    vectorised form takes one per element)."""
    skip = pos - raw._pos
    assert skip >= 0
    ref.integers(2**31, size=skip)
    raw._pos = pos


@pytest.mark.parametrize("seed", [0, 11, 2**40 + 3])
@pytest.mark.parametrize(
    "pos",
    [
        101,  # a carried half mid-block
        BLOCK_HALVES - 3,  # the draw takes the block's last two halves
        BLOCK_HALVES - 1,  # the carried half is the block's last entry
        BLOCK_HALVES - 2,  # no carried half, the block's last pair
        BLOCK_HALVES,  # no carried half, the block exhausted
    ],
)
def test_random_around_a_carried_half(seed, pos):
    raw, ref = RawStream(seed), np.random.default_rng(seed)
    _replay([("integers", 7)], raw, ref)  # fetch the first block
    _skip_to(raw, ref, pos)
    _replay(
        [
            ("random", None),
            ("integers", 2**31),
            ("random", None),
            ("random", None),
            ("sample", (9, 4)),
            ("weighted", (40, 1.0, 3)),
            ("shuffle", 8),
            ("integers", 12345),
        ],
        raw,
        ref,
    )


def test_random_moves_the_carried_half_forward():
    raw, ref = RawStream(5), np.random.default_rng(5)
    _replay([("integers", 2**31)], raw, ref)
    assert raw._pos == 1  # the high half of output 0 is carried
    carried = raw._buf[1]
    _replay([("random", None)], raw, ref)
    assert (raw._pos, raw._buf[3]) == (3, carried)
    assert raw.integers(2**32 - 1) == int(ref.integers(2**32 - 1))


@pytest.mark.parametrize("p", [[], [0.5, 0.6], [1.5, -0.5], [np.nan, 1.0], [np.inf]])
@pytest.mark.parametrize("stream", [RawStream, NumpyStream])
def test_weighted_rejects_bad_probabilities(stream, p):
    with pytest.raises(ValueError):
        stream(1).weighted(np.asarray(p, dtype=float))


def test_sample_routes_large_populations_to_numpy():
    assert isinstance(draw_stream(1, 64, sample_pop=raw_stream.FLOYD_MAX_POP), RawStream)
    stream = draw_stream(1, 64, sample_pop=raw_stream.FLOYD_MAX_POP + 1)
    assert isinstance(stream, NumpyStream)
    ref = np.random.default_rng(1)
    assert stream.sample(20000, 500) == ref.choice(20000, 500, replace=False).tolist()


def test_self_check_passes_and_kernels_get_the_replica():
    assert raw_stream.raw_stream_ok()
    assert isinstance(draw_stream(1, 64), RawStream)
    # A draw bound of 2**32 or more leaves the 32-bit path.
    assert isinstance(draw_stream(1, 2**32), NumpyStream)


def test_numpy_adapter_returns_python_ints():
    stream = NumpyStream(3)
    value = stream.integers(10)
    assert type(value) is int
    items = list(range(8))
    stream.shuffle(items)
    assert sorted(items) == list(range(8))
    assert type(stream.random()) is float
    for drawn in (stream.sample(10, 4), stream.permutation(6)):
        assert all(type(v) is int for v in drawn)
    assert type(stream.weighted(_zipf_p(5, 1.0))()) is int


def test_self_check_failure_gives_generators_numpy(forced_fallback):
    assert isinstance(generator_stream(1, 64, sample_pop=8), NumpyStream)
    assert raw_stream.stream_kind(64, 8) == "numpy"


@pytest.fixture(scope="module")
def spatial_trace():
    return hot_and_stream(1500, hot_items=24, stream_blocks=24, block_size=8, seed=31)


@pytest.mark.parametrize("policy", RANDOMIZED)
def test_forced_fallback_stays_conformant(
    policy, spatial_trace, forced_fallback, tmp_path
):
    for capacity, seed in ((6, 0), (16, 9)):
        assert_conformant(policy, capacity, spatial_trace, seed=seed)
        assert_loads_conformant(policy, capacity, spatial_trace, seed=seed)
    mmap_trace = open_rtc(trace_to_rtc(spatial_trace, tmp_path / "t.rtc"))
    assert_mmap_conformant(policy, 16, spatial_trace, mmap_trace, seed=9)


def _rng_attributes(path):
    records = [json.loads(line) for line in path.read_text().splitlines()]
    return {
        r["name"]: r.get("attrs", {}).get("rng")
        for r in records
        if r["name"] in ("fast.replay", "fast.multi_policy")
    }


def _traced_replays(trace, path):
    spans.enable(path)
    try:
        simulate(make_policy("gcm", 16, trace.mapping), trace, fast=True)
        multi_policy_replay([("item-random", 16), ("item-lru", 16)], trace)
    finally:
        spans.disable()
    return _rng_attributes(path)


def test_spans_name_the_raw_stream(spatial_trace, tmp_path):
    rng = _traced_replays(spatial_trace, tmp_path / "spans.jsonl")
    assert rng == {"fast.replay": "raw", "fast.multi_policy": "raw"}


def test_spans_name_a_numpy_fallback(spatial_trace, forced_fallback, tmp_path):
    rng = _traced_replays(spatial_trace, tmp_path / "spans.jsonl")
    assert rng == {"fast.replay": "numpy", "fast.multi_policy": "numpy"}


def test_deterministic_kernels_carry_no_rng_attribute(spatial_trace, tmp_path):
    path = tmp_path / "spans.jsonl"
    spans.enable(path)
    try:
        simulate(make_policy("iblp", 16, spatial_trace.mapping), spatial_trace, fast=True)
    finally:
        spans.disable()
    assert _rng_attributes(path) == {"fast.replay": None}
