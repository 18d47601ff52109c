"""Reuse passes over an id column: one sort behind Mattson curves and
locality profiles.

Exact LRU miss-ratio curves rest on Mattson stack distances
[Mattson et al. 1970]; the locality model of §2 and §7 rests on the
working-set functions ``f(n)`` and ``g(n)``, the most distinct items
(blocks) in any window of ``n`` accesses.  Both are functions of each
access's previous (and next) occurrence, which one sort of the unique
keys ``(id - min) << bits | position`` yields together with the stable
sort permutation (:func:`occurrences`).

* :func:`stack_distances` — every access's LRU stack distance, priced
  over the column's run heads (:func:`head_distances`, which the
  block-LRU curve of :mod:`repro.core.fast` also reads for its
  block-grouped layout).
* :func:`max_distinct_per_window` — ``f(n)`` over item ids, ``g(n)``
  over block ids, one ``cumsum`` per window size.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

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


def _id_column(ids: Sequence[int] | np.ndarray, name: str) -> np.ndarray:
    """``ids`` as a one-dimensional int64 column.

    Raises :class:`ConfigurationError` naming the shape of a column
    that is not one-dimensional, or the dtype of one whose values are
    not integers that fit int64 (floats would be truncated into
    colliding ids).  An empty column is valid whatever its dtype.
    """
    arr = np.asarray(ids)
    if arr.ndim != 1:
        raise ConfigurationError(
            f"{name} must be one-dimensional, got shape {arr.shape}"
        )
    if arr.size and (arr.dtype.kind not in "iu" or not np.can_cast(arr.dtype, np.int64)):
        raise ConfigurationError(
            f"{name} must be integers that fit int64, got dtype {arr.dtype}"
        )
    return arr.astype(np.int64, copy=False)


def run_heads(arr: np.ndarray) -> np.ndarray:
    """Positions of the accesses that differ from their predecessor."""
    n = int(arr.size)
    starts = np.ones(n, dtype=bool)
    if n:
        np.not_equal(arr[1:], arr[:-1], out=starts[1:])
    return np.flatnonzero(starts)


def _position_bits(lo: int, hi: int, n: int) -> Optional[int]:
    """Low bits that hold one of ``n`` positions below ``value - lo`` in
    an int64 key, or ``None`` when the span ``hi - lo`` leaves no room
    (:func:`occurrences` then takes its stable ``argsort`` fallback)."""
    bits = max(n - 1, 0).bit_length()
    return bits if hi - lo < 1 << (63 - bits) else None


def occurrences(arr: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(order, prev)`` of an id column from one sort.

    ``order`` is the stable sort permutation of ``arr`` (positions
    grouped by id, time-ascending within each id) and ``prev[t]`` the
    position of the previous access to ``arr[t]`` (-1 when cold).  The
    sort is a plain ``np.sort`` of the unique keys
    ``(id - min) << bits | position``, whose low bits are ``order``;
    an id span too wide for the position bits takes a stable
    ``argsort`` instead (:func:`_position_bits`).
    """
    n = int(arr.size)
    prev = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return np.empty(0, dtype=np.int64), prev
    lo = int(arr.min())
    bits = _position_bits(lo, int(arr.max()), n)
    if bits is None:
        order = np.argsort(arr, kind="stable")
        srt = arr[order]
        same = srt[1:] == srt[:-1]
    else:
        keys = np.subtract(arr, lo, dtype=np.int64)
        keys <<= bits
        keys |= np.arange(n, dtype=np.int64)
        keys.sort()
        order = keys & ((1 << bits) - 1)
        keys >>= bits
        same = keys[1:] == keys[:-1]
        del keys
    prev[order[1:][same]] = order[:-1][same]
    return order, prev


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
# mergesort sweep in numpy (one broadcast compare over blocks of 16,
# then log T levels of row sorts and running counts) instead of a
# per-access Fenwick loop.  A cold head's prev = -1 is never greater
# than a warm head's, so cold heads add nothing to any count and are
# dropped first: the count runs over the W warm run heads,
# O(W log^2 W), plus O(T) to find the runs and one sort of the R run
# heads' (id, position) keys to find their previous occurrences.


#: Width of the aligned blocks the base level counts by broadcast compare:
#: a row of 16 bool bytes is two uint64 words.
_BASE = 16


def _count_base_blocks(v: np.ndarray, counts: np.ndarray) -> None:
    """Pairs within each aligned ``_BASE`` block (and the ragged tail)."""
    n = int(v.size)
    full = n // _BASE * _BASE
    earlier = np.arange(_BASE)[:, None] > np.arange(_BASE)  # [t, s]: s < t
    blocks = v[:full].reshape(-1, _BASE)
    greater = blocks[:, None, :] > blocks[:, :, None]  # [b, t, s]: v[s] > v[t]
    greater &= earlier
    # Each row of _BASE 0/1 bytes is two uint64 words; adding them and
    # multiplying by 0x0101... sums the bytes into the top byte.
    words = greater.view(np.uint64).reshape(-1, _BASE // 8)
    total = words[:, 0] + words[:, 1]
    total *= np.uint64(0x0101010101010101)
    total >>= np.uint64(56)
    counts[:full] = total
    tail = v[full:]
    k = int(tail.size)
    counts[full:] = ((tail[None, :] > tail[:, None]) & earlier[:k, :k]).sum(axis=1)


def _count_level(rows: np.ndarray, width: int, bits: int, counts: np.ndarray) -> None:
    """One merge level: sort each row of two sorted halves and add, for
    each right-half element, the left-half elements greater than it."""
    nrows, span = rows.shape
    rows.sort(axis=1)
    right = rows >> (width.bit_length() - 1)
    right &= 1  # position bit ``width``: 1 in the right half
    # Right-half elements up to each one: q + 1, plus width per earlier row.
    greater = np.cumsum(right).reshape(nrows, span)
    greater += width - 1 - np.arange(span)
    greater -= (np.arange(nrows) * width)[:, None]
    greater *= right
    counts[rows & ((1 << bits) - 1)] += greater


def _count_earlier_greater(values: np.ndarray) -> np.ndarray:
    """``counts[t] = #{s < t : values[s] > values[t]}``, vectorized.

    Bottom-up mergesort scheme.  Aligned blocks of ``_BASE`` elements
    count their inner pairs with one broadcast compare.  Above that,
    each level of half-width ``w`` sorts every ``2w`` row of position
    keys (value high, position low, so both halves arrive as sorted
    runs); a right-half element at column ``p`` with ``q`` right-half
    elements before it has ``p - q`` left-half elements ``<=`` it, hence
    ``w - p + q`` strictly greater ones (a running count of the
    right-half bit gives ``q``).  Every pair ``s < t`` meets at exactly
    one level, so the per-level counts sum to the dominance count:
    O(T log^2 T) over ~log T numpy passes.  The value span must leave
    room for the position bits in an int64 key, which positions (the
    only inputs) always do; a wider span raises ``ValueError``.
    """
    n = int(values.size)
    counts = np.zeros(n, dtype=np.int64)
    if n < 2:
        return counts
    v = np.ascontiguousarray(values, dtype=np.int64)
    lo = int(v.min())
    bits = _position_bits(lo, int(v.max()), n)
    if bits is None:
        raise ValueError(f"value span too wide for {n} positions in an int64 key")
    _count_base_blocks(v, counts)
    keys = v - lo
    keys <<= bits
    keys |= np.arange(n, dtype=np.int64)
    full = n // _BASE * _BASE
    keys[:full].reshape(-1, _BASE).sort(axis=1)
    keys[full:].sort()
    width = _BASE
    while width < n:
        span = 2 * width
        full = n // span * span
        if full:
            _count_level(keys[:full].reshape(-1, span), width, bits, counts)
        if n - full > width:  # a ragged last row with a full left half
            _count_level(keys[full:].reshape(1, -1), width, bits, counts)
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
        order, prev = occurrences(arr[heads])
        return heads, order, _warm_distances(prev)


def stack_distances(ids: Sequence[int] | np.ndarray) -> np.ndarray:
    """LRU reuse (stack) distance of each access; cold accesses get -1.

    ``distance[t]`` is the number of distinct ids seen since the
    previous access to ``ids[t]``; an LRU cache of capacity ``k`` hits
    access ``t`` iff ``0 <= distance[t] < k``.  Fully vectorized; the
    dominance count covers warm run heads only — see the derivation
    above :func:`_count_earlier_greater`.  Unlike
    :func:`head_distances` it drops the sort permutation before the
    count, which keeps the pass's peak memory down.  Raises
    :class:`ConfigurationError` for ids that are not integers or not a
    one-dimensional column.
    """
    arr = _id_column(ids, "ids")
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
    :class:`ConfigurationError` for a trace that is not a
    one-dimensional integer column or a window that is not an integer
    >= 1.
    """
    arr = _id_column(trace, "trace")
    windows = list(windows)
    for n in windows:
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ConfigurationError(f"window must be an integer >= 1, got {n!r}")
    size = int(arr.size)
    if size == 0:
        return {n: 0 for n in windows}
    prev = occurrences(arr)[1]
    pos = np.arange(size, dtype=np.int64)
    warm = prev >= 0
    until_next = np.full(size, size, dtype=np.int64)  # next access, or size
    until_next[prev[warm]] = pos[warm]
    until_next -= pos
    since_prev = pos - prev
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
