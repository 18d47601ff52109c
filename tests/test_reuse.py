"""Reuse passes: occurrence links and working-set profiles against
naive oracles (stack distances are pinned in test_multi_capacity.py)."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reuse import max_distinct_per_window, occurrences
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

_COLUMNS = {
    "edge": st.lists(_EDGE_IDS, max_size=60),
    "wide": st.lists(st.integers(-(2**63), 2**63 - 1), max_size=40),
    "runs": st.lists(st.tuples(_EDGE_IDS, st.integers(1, 30)), max_size=10).map(
        _repeat_each
    ),
    "tiny": st.lists(st.integers(-2, 2), max_size=1),
}


@pytest.mark.parametrize("shape", sorted(_COLUMNS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_occurrences_match_dict_scan(shape, data):
    ids = data.draw(_COLUMNS[shape])
    order, prev, nxt = occurrences(np.asarray(ids, dtype=np.int64))
    last = {}
    want_prev = []
    for t, x in enumerate(ids):
        want_prev.append(last.get(x, -1))
        last[x] = t
    upcoming = {}
    want_next = [0] * len(ids)
    for t in range(len(ids) - 1, -1, -1):
        want_next[t] = upcoming.get(ids[t], len(ids))
        upcoming[ids[t]] = t
    assert prev.tolist() == want_prev
    assert nxt.tolist() == want_next
    assert order.tolist() == sorted(range(len(ids)), key=lambda t: (ids[t], t))


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
