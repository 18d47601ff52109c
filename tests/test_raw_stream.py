"""The randomized kernels' draw stream (:mod:`repro.core.raw_stream`).

The GCM family and ``item-random`` kernels draw from
:func:`~repro.core.raw_stream.draw_stream`: a pure-Python replica of a
seeded PCG64 ``Generator``'s ``integers(n)`` and list ``shuffle``, or
numpy's generator itself when the replica's self-check fails or the
capacity leaves the 32-bit draw path.  These tests pin:

* the replica against numpy draw for draw over interleaved
  ``integers``/``shuffle`` sequences, including a refill boundary
  crossed with a high 32-bit half still carried;
* the fallback: with the self-check forced to fail, every randomized
  kernel still matches the referee (``record`` and ``loads`` rows and
  the chunked mmap traversal);
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
from repro.core.raw_stream import NumpyStream, RawStream, draw_stream
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
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("integers"), _bounds),
        st.tuples(st.just("shuffle"), st.sampled_from([0, 1, 2, 7, 8, 64])),
    ),
    max_size=80,
)


def _replay(ops, raw, ref):
    for kind, arg in ops:
        if kind == "integers":
            assert raw.integers(arg) == int(ref.integers(arg)), (kind, arg)
        else:
            mine, theirs = list(range(arg)), list(range(arg))
            raw.shuffle(mine)
            ref.shuffle(theirs)
            assert mine == theirs, (kind, arg)


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


@pytest.fixture
def forced_fallback(monkeypatch):
    """The replica's self-check fails: every kernel gets numpy."""
    monkeypatch.setattr(raw_stream, "_raw_ok", None)
    monkeypatch.setattr(raw_stream, "_self_check", lambda: False)
    assert isinstance(draw_stream(1, 64), NumpyStream)


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
