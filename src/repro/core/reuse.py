"""Reuse passes over an id column: one stable sort behind Mattson curves
and locality profiles.

Exact LRU miss-ratio curves rest on Mattson stack distances
[Mattson et al. 1970]; the locality model of §2 and §7 rests on the
working-set functions ``f(n)`` and ``g(n)``, the most distinct items
(blocks) in any window of ``n`` accesses.  Both are functions of each
access's previous and next occurrence, which one stable sort of the id
column yields together with its sort permutation (:func:`occurrences`).

* :func:`stack_distances` — every access's LRU stack distance, priced
  over the column's run heads (:func:`head_distances`, which the
  block-LRU curve of :mod:`repro.core.fast` also reads for its
  block-grouped layout).
* :func:`max_distinct_per_window` — ``f(n)`` over item ids, ``g(n)``
  over block ids, one ``cumsum`` per window size.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.telemetry import spans

__all__ = [
    "run_heads",
    "occurrences",
    "head_distances",
    "stack_distances",
    "max_distinct_per_window",
]


def run_heads(arr: np.ndarray) -> np.ndarray:
    """Positions of the accesses that differ from their predecessor."""
    n = int(arr.size)
    starts = np.ones(n, dtype=bool)
    if n:
        np.not_equal(arr[1:], arr[:-1], out=starts[1:])
    return np.flatnonzero(starts)


def occurrences(arr: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(order, prev, next)`` of an id column from one stable sort.

    ``order`` is the stable ``argsort`` of ``arr`` (positions grouped
    by id, time-ascending within each id); ``prev[t]`` is the position
    of the previous access to ``arr[t]`` (-1 when cold) and ``next[t]``
    the position of the next one (``len(arr)`` when there is none).
    """
    n = int(arr.size)
    order = np.argsort(arr, kind="stable")
    prev = np.full(n, -1, dtype=np.int64)
    nxt = np.full(n, n, dtype=np.int64)
    srt = arr[order]
    same = srt[1:] == srt[:-1]
    earlier = order[:-1][same]
    later = order[1:][same]
    prev[later] = earlier
    nxt[earlier] = later
    return order, prev, nxt


# -- vectorized stack distances [Mattson et al. 1970] ------------------------
#
# dist[t] = number of distinct ids referenced since the previous access
# to ids[t] (cold accesses get -1).  An LRU cache of capacity k hits
# access t iff 0 <= dist[t] < k, so one pass prices every capacity
# simultaneously.
#
# Spatial locality makes most traces runs of one id (at block
# granularity, most accesses touch the previous access's block).  An
# access equal to its predecessor has distance 0, and collapsing every
# run to its head keeps the distinct ids of every window, so the heads
# keep their distances.  The derivation below therefore runs over the
# run heads only (positions and prev in head coordinates).
#
# Let prev[t] be the position of the previous access to ids[t] (-1 when
# cold).  Positions s in the window (prev[t], t) contribute one distinct
# id each unless they are themselves repeats *within* the window, i.e.
# prev[s] > prev[t] (prev values >= 0 are distinct positions, so for
# s in the window, prev[s] > prev[t] puts prev[s] strictly inside it;
# for s <= prev[t], prev[s] < s <= prev[t] never counts).  Hence
#
#     dist[t] = (t - prev[t] - 1) - #{s < t : prev[s] > prev[t]}
#
# and the problem reduces to counting, per element, earlier elements
# with a greater value — a dominance count done here with a bottom-up
# mergesort sweep in numpy (log T levels of whole-array sorts and
# searchsorteds) instead of a per-access Fenwick loop.  A cold head's
# prev = -1 is never greater than a warm head's, so cold heads add
# nothing to any count and are dropped first: the count runs over the
# W warm run heads, O(W log^2 W), plus O(T) to find the runs and
# O(R log R) to find each of the R heads' previous occurrence.


def _count_earlier_greater(values: np.ndarray) -> np.ndarray:
    """``counts[t] = #{s < t : values[s] > values[t]}``, vectorized.

    Bottom-up mergesort scheme: at the level of half-width ``w`` each
    element in the right half of a ``2w`` block counts the strictly
    greater elements in its left sibling; every pair ``s < t`` meets at
    exactly one level, so the per-level counts sum to the dominance
    count.  Each level is one whole-array ``np.sort`` plus one flat
    ``np.searchsorted`` (rows separated by disjoint key offsets), so
    the total is O(T log^2 T) spread over ~log T numpy passes.
    """
    n = int(values.size)
    counts = np.zeros(n, dtype=np.int64)
    if n < 2:
        return counts
    v = np.ascontiguousarray(values, dtype=np.int64)
    lo = int(v.min())
    hi = int(v.max())
    span_key = hi - lo + 2  # per-block key offset stride (no collisions)

    # Width-1 level: plain pairwise compares.
    m2 = (n // 2) * 2
    counts[1:m2:2] = v[0:m2:2] > v[1:m2:2]

    # Width-2 level: blocks of 4, left pair vs right pair.
    m4 = (n // 4) * 4
    blk = v[:m4].reshape(-1, 4)
    counts[2:m4:4] += (blk[:, 0] > blk[:, 2]).astype(np.int64) + (
        blk[:, 1] > blk[:, 2]
    )
    counts[3:m4:4] += (blk[:, 0] > blk[:, 3]).astype(np.int64) + (
        blk[:, 1] > blk[:, 3]
    )
    # Width-2 ragged tail: a lone third element in a partial block of 4
    # still has a full left sibling pair.  (Width 1 has no ragged case:
    # every odd index < 2*(n//2) is covered by the slice above.)
    if n - m4 == 3:
        counts[m4 + 2] += int(v[m4] > v[m4 + 2]) + int(v[m4 + 1] > v[m4 + 2])

    width = 4
    while width < n:
        span = 2 * width
        nblocks = -(-n // span)
        pad_n = nblocks * span
        if pad_n == n:
            padded = v
        else:
            # Suffix padding is safe: a left half containing padding
            # implies its right half lies entirely past the real data.
            padded = np.empty(pad_n, dtype=np.int64)
            padded[:n] = v
            padded[n:] = lo
        blocks = padded.reshape(nblocks, span)
        left_sorted = np.sort(blocks[:, :width], axis=1)
        base = np.arange(nblocks, dtype=np.int64) * span_key
        flat_sorted = (left_sorted + base[:, None]).ravel()
        queries = (blocks[:, width:] + base[:, None]).ravel()
        le = np.searchsorted(flat_sorted, queries, side="right")
        le -= np.repeat(np.arange(nblocks, dtype=np.int64) * width, width)
        # Global positions of right-half elements (block-major, so the
        # sequence is increasing: real entries form a prefix).
        pos = (np.arange(pad_n, dtype=np.int64).reshape(nblocks, span))[
            :, width:
        ].ravel()
        nreal = int(np.searchsorted(pos, n))
        counts[pos[:nreal]] += width - le[:nreal]
        width = span
    return counts


def _warm_distances(prev: np.ndarray) -> np.ndarray:
    """Stack distances of a run-free column from its previous occurrences."""
    warm = np.flatnonzero(prev >= 0)
    spans.annotate(warm=int(warm.size))
    warm_prev = prev[warm]
    dist = np.full(prev.size, -1, dtype=np.int64)
    dist[warm] = warm - warm_prev - 1 - _count_earlier_greater(warm_prev)
    return dist


def head_distances(arr: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Mattson pass over the run heads of an int64 id column.

    Returns ``(heads, order, dist)``: the run-head positions, the
    stable sort permutation of the head column ``arr[heads]`` (heads
    grouped by id, time-ascending) and each head's stack distance, in
    head order.  Every non-head access has distance 0.
    """
    with spans.span("fast.mattson", accesses=int(arr.size)):
        heads = run_heads(arr)
        spans.annotate(run_heads=int(heads.size))
        order, prev = occurrences(arr[heads])[:2]
        return heads, order, _warm_distances(prev)


def stack_distances(ids: Sequence[int] | np.ndarray) -> np.ndarray:
    """LRU reuse (stack) distance of each access; cold accesses get -1.

    ``distance[t]`` is the number of distinct ids seen since the
    previous access to ``ids[t]``; an LRU cache of capacity ``k`` hits
    access ``t`` iff ``0 <= distance[t] < k``.  Fully vectorized; the
    dominance count covers warm run heads only — see the derivation
    above :func:`_count_earlier_greater`.  Unlike
    :func:`head_distances` it drops the sort permutation before the
    count, which keeps the pass's peak memory down.
    """
    arr = np.asarray(ids, dtype=np.int64)
    n = int(arr.size)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    with spans.span("fast.mattson", accesses=n):
        heads = run_heads(arr)
        runs = int(heads.size)
        spans.annotate(run_heads=runs)
        if runs == n:
            return _warm_distances(occurrences(arr)[1])
        dist = _warm_distances(occurrences(arr[heads])[1])
    out = np.zeros(n, dtype=np.int64)
    out[heads] = dist
    return out


# -- working-set functions f(n) and g(n) -------------------------------------
#
# Sliding the window [s, s+n) one step to [s+1, s+n+1) adds ids[s+n],
# a new id unless it occurred at or after s (t - prev[t] <= n for
# t = s+n), and retires ids[s], gone unless it recurs by s+n
# (next[s] - s <= n).  When ids[s] == ids[s+n] both tests hold and the
# count stays.  So each window size is one cumsum of the per-step
# changes from the count of the first window, plus one max.


def max_distinct_per_window(
    trace: Sequence[int] | np.ndarray, windows: Iterable[int]
) -> Dict[int, int]:
    """Maximum distinct count over every window of each requested size.

    This is the empirical working-set function evaluated at the given
    window sizes: applied to item ids it yields ``f(n)``, applied to
    block ids it yields ``g(n)``.  Windows larger than the trace are
    evaluated over the whole trace (a single, short window), matching
    the convention that ``f`` is defined by the maximum over existing
    windows.

    Returns ``{n: max distinct over windows of size n}``; raises
    :class:`ConfigurationError` for a multi-dimensional trace or a
    window that is not an integer >= 1.
    """
    arr = np.asarray(trace, dtype=np.int64)
    if arr.ndim != 1:
        raise ConfigurationError("trace must be one-dimensional")
    windows = list(windows)
    for n in windows:
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ConfigurationError(f"window must be an integer >= 1, got {n!r}")
    size = int(arr.size)
    if size == 0:
        return {n: 0 for n in windows}
    _, prev, nxt = occurrences(arr)
    pos = np.arange(size, dtype=np.int64)
    since_prev = pos - prev
    until_next = nxt - pos
    distinct_prefix = np.cumsum(prev < 0)  # distinct ids in arr[: t + 1]
    out: Dict[int, int] = {}
    for n in windows:
        first = int(distinct_prefix[min(n, size) - 1])
        if n >= size:
            out[n] = first
            continue
        steps = (until_next[: size - n] <= n).astype(np.int64)
        steps -= since_prev[n:] <= n
        out[n] = max(first, first + int(np.cumsum(steps).max()))
    return out
