"""Reuse passes: occurrence links, the dominance count, id-column
checks and working-set profiles against naive oracles (stack distances
are pinned in test_multi_capacity.py)."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reuse import (
    _count_earlier_greater,
    _position_bits,
    max_distinct_per_window,
    occurrences,
    stack_distances,
)
from repro.errors import ConfigurationError


def naive_max_distinct(trace, n):
    if not len(trace):
        return 0
    if n >= len(trace):
        return len(set(trace))
    return max(
        len(set(trace[i : i + n])) for i in range(len(trace) - n + 1)
    )


def _repeat_each(pairs):
    return [i for i, times in pairs for _ in range(times)]


# -- previous / next occurrences ----------------------------------------------

#: Ids at the edges of the int64 range, around zero and near +-2**62.
_EDGE_IDS = st.sampled_from(
    [
        -(2**63),
        -(2**62) - 1,
        -(2**62),
        -(2**62) + 1,
        -3,
        -1,
        0,
        1,
        2**62 - 1,
        2**62,
        2**62 + 1,
        2**63 - 1,
    ]
)

#: Shapes whose id span fits beside the position bits: the keyed sort.
_KEYED_COLUMNS = {
    "tiny": st.lists(st.integers(-2, 2), max_size=1),
    "dense": st.lists(st.integers(0, 40), max_size=200),
    "top": st.lists(st.integers(2**63 - 64, 2**63 - 1), max_size=60),
    "bottom": st.lists(st.integers(-(2**63), -(2**63) + 64), max_size=60),
    "near": st.lists(
        st.tuples(st.integers(2**62 - 8, 2**62 + 8), st.integers(1, 30)),
        max_size=10,
    ).map(_repeat_each),
}


def _spanning(ids):
    """Force the full int64 span, which no position bit fits beside."""
    return ids.map(lambda xs: [-(2**63)] + xs + [2**63 - 1])


#: Shapes that span the int64 range: the stable argsort fallback.
_FALLBACK_COLUMNS = {
    "edge": _spanning(st.lists(_EDGE_IDS, max_size=60)),
    "wide": _spanning(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=40)),
    "runs": _spanning(
        st.lists(st.tuples(_EDGE_IDS, st.integers(1, 30)), max_size=10).map(
            _repeat_each
        )
    ),
}

_COLUMNS = {**_KEYED_COLUMNS, **_FALLBACK_COLUMNS}


@pytest.mark.parametrize("shape", sorted(_COLUMNS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_occurrences_match_dict_scan(shape, data):
    ids = data.draw(_COLUMNS[shape])
    if ids:
        keyed = _position_bits(min(ids), max(ids), len(ids)) is not None
        assert keyed == (shape in _KEYED_COLUMNS)
    order, prev = occurrences(np.asarray(ids, dtype=np.int64))
    last = {}
    want_prev = []
    for t, x in enumerate(ids):
        want_prev.append(last.get(x, -1))
        last[x] = t
    assert prev.tolist() == want_prev
    assert order.tolist() == sorted(range(len(ids)), key=lambda t: (ids[t], t))


def test_position_bits_bound():
    # 4 positions need 2 bits, leaving 61 for the id span.
    assert _position_bits(0, 2**61 - 1, 4) == 2
    assert _position_bits(0, 2**61, 4) is None
    assert _position_bits(-(2**63), -(2**63) + 2**61 - 1, 4) == 2
    assert _position_bits(5, 5, 1) == 0


# -- dominance count -------------------------------------------------------------

#: Lengths around the base block width and powers of two, where the
#: ragged last rows of each merge level change shape.
_EDGE_LENGTHS = sorted(
    {
        m + d
        for m in [16 * i for i in range(1, 19)] + [2**i for i in range(9)]
        for d in (-1, 0, 1)
        if 0 <= m + d <= 300
    }
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_count_earlier_greater_matches_quadratic_oracle(data):
    n = data.draw(st.one_of(st.sampled_from(_EDGE_LENGTHS), st.integers(0, 300)))
    top = data.draw(st.sampled_from([0, 2, 40, 10**6]))  # small tops force ties
    values = data.draw(st.lists(st.integers(-top, top), min_size=n, max_size=n))
    want = [sum(values[s] > values[t] for s in range(t)) for t in range(n)]
    got = _count_earlier_greater(np.asarray(values, dtype=np.int64))
    assert got.tolist() == want


def test_count_earlier_greater_rejects_unkeyable_span():
    with pytest.raises(ValueError, match="span"):
        _count_earlier_greater(np.array([-(2**62), 2**62, 0], dtype=np.int64))


# -- working-set functions -----------------------------------------------------


@pytest.mark.parametrize("window", [2.5, True, 0, -1])
def test_window_must_be_positive_integer(window):
    for trace in ([1, 2, 3], []):
        with pytest.raises(ConfigurationError, match=re.escape(repr(window))):
            max_distinct_per_window(trace, [window])


def test_numpy_integer_window_accepted():
    assert max_distinct_per_window([1, 2, 1], [np.int64(2)]) == {2: 2}


def test_max_distinct_known_trace():
    trace = [0, 1, 0, 2, 3, 3, 1]
    got = max_distinct_per_window(trace, [1, 2, 3, 4, 100])
    assert got[1] == 1
    assert got[2] == 2
    assert got[3] == 3
    assert got[4] == naive_max_distinct(trace, 4)
    assert got[100] == 4  # whole-trace distinct count
    # 5 leaves the window [0, 3) as its next access enters, so the count
    # holds at 2; the maximum, 3, comes only after that step.
    assert max_distinct_per_window([5, 0, 0, 5, 1, 2], [3]) == {3: 3}


def test_empty_trace():
    assert max_distinct_per_window([], [1, 5]) == {1: 0, 5: 0}


def test_rejects_2d_input():
    with pytest.raises(ConfigurationError):
        max_distinct_per_window(np.zeros((2, 2), dtype=int), [1])


@pytest.mark.parametrize(
    "ids, named",
    [
        ([1.5, 1.2, 2.9], "float64"),  # 1.5 and 1.2 would truncate to one id
        (np.array([3, 4], dtype=np.float32), "float32"),
        (np.array([3, 4], dtype=np.uint64), "uint64"),
        ([True, False], "bool"),
        (np.zeros((2, 2), dtype=np.int64), r"shape \(2, 2\)"),
        (np.zeros((0, 3)), r"shape \(0, 3\)"),
        (7, r"shape \(\)"),
    ],
)
def test_id_column_rejected(ids, named):
    with pytest.raises(ConfigurationError, match=named):
        stack_distances(ids)
    with pytest.raises(ConfigurationError, match=named):
        max_distinct_per_window(ids, [1])


def test_empty_column_of_any_dtype_accepted():
    assert np.asarray([]).dtype == np.float64
    got = stack_distances([])
    assert got.dtype == np.int64 and got.size == 0
    assert max_distinct_per_window(np.array([], dtype=np.float32), [2]) == {2: 0}
    assert stack_distances(np.array([4, 4, 9], dtype=np.int32)).tolist() == [-1, 0, -1]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_matches_naive(data):
    top = data.draw(st.integers(0, 50))
    trace = data.draw(st.lists(st.integers(0, top), min_size=1, max_size=200))
    n = data.draw(st.integers(1, len(trace) + 5))
    # Plant ids that recur exactly n positions later: the step where
    # an id leaves the window as its next access enters it.
    for i in data.draw(st.lists(st.integers(0, len(trace) - 1), max_size=5)):
        if i + n < len(trace):
            trace[i + n] = trace[i]
    got = max_distinct_per_window(trace, [n])[n]
    assert got == naive_max_distinct(trace, n)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 9), min_size=2, max_size=50))
def test_monotone_in_window_size(trace):
    """f(n) is non-decreasing in n (working-set functions grow)."""
    sizes = list(range(1, len(trace) + 1))
    got = max_distinct_per_window(trace, sizes)
    values = [got[n] for n in sizes]
    assert all(a <= b for a, b in zip(values, values[1:]))
