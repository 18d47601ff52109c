"""Validation-free replay kernels for the hot policies.

The referee engine (:mod:`repro.core.engine`) validates every policy
action with Python sets — correct, but a large constant factor on the
per-access path.  For every *online* registered policy the entire
replay is a pure function of ``(trace, capacity, parameters, seed)``,
so this module provides *replay kernels*: slotted, array-backed
re-implementations that produce the exact same
:class:`~repro.types.SimResult` (temporal/spatial hit taxonomy and
load-set statistics included) without constructing
:class:`~repro.types.AccessOutcome` records, frozensets, or shadow
validation state.  Randomized policies (GCM family, ``item-random``)
consume the *same* seeded PCG64 ``integers``/``shuffle`` sequence as
the referee's :class:`numpy.random.Generator` — drawn from one stream
built by :func:`~repro.core.raw_stream.draw_stream` — so seeded runs
are bit-identical, not just statistically equivalent.

Correctness is not assumed — it is *proven* by the differential
conformance harness (:mod:`repro.core.conformance` and
``tests/test_fastpath_conformance.py``), which replays randomized and
adversarial traces through both engines and asserts the complete
result, per-access outcome stream included, is bit-identical.  A kernel
that drifts from the referee fails CI, so the fast path can never
silently diverge from the validated model.

Entry points
------------
* :func:`compile_trace` — integer-encode a :class:`Trace` once
  (item → dense id, per-access block ids, block membership tables);
  memoized per trace fingerprint.
* :func:`fast_simulate` — replay a supported policy over a trace;
  returns ``None`` when no kernel applies (the caller falls back to
  the referee).  ``simulate(..., fast=True)`` does exactly that.
* :func:`fast_fallback_reason` — why :func:`fast_simulate` would
  return ``None`` for a policy/trace pair (``None`` when it wouldn't);
  surfaced as ``SimResult.fallback_reason`` telemetry by the engine.
* :func:`multi_policy_replay` — compile the trace once and advance
  many policy kernels over one chunked traversal (decode, block
  mapping, and load-set tables shared the way
  :func:`multi_capacity_replay` shares the Mattson pass).
* :func:`stepper` — one kernel advanced one access at a time, in any
  order, with an O(1) residency probe: what request serving steps when
  its cache stream depends on service times (SJF, drops, clusters).
* :func:`supports` / :data:`FAST_POLICY_NAMES` — kernel coverage.

Fallback rules (any of these routes the access back to the referee):

* the policy type has no kernel (subclasses do not inherit kernels:
  dispatch is on the *exact* class, so an overridden hook cannot be
  silently replayed with the parent's semantics);
* the policy is not cold (kernels replay from an empty cache);
* the policy's mapping is not the trace's mapping (or an equivalent
  aligned :class:`FixedBlockMapping`) — the referee cross-validates
  the two mappings at runtime, the kernels cannot;
* the caller asked for observation (``on_access``, ``recorder``) or
  reconciliation (``cross_check_every``) — referee-only features.

Kernels never mutate the policy object they dispatch on; they read its
configuration (capacity, layer split, threshold, seed) and replay a
replica.

Kernel architecture
-------------------
Each kernel is a *stepper factory* ``f(compiled, policy, record, loads)
-> (run, finish, contains)``: all replay state lives in the factory's
closure, ``run(items, blocks, dense)`` advances the policy over one
contiguous chunk of accesses (the full trace is just one big chunk),
``finish()`` returns the final counters, and ``contains(item)`` is the
kernel's residency test on an original item id.  Both replay entry points
drive kernels through one stepper loop: :func:`fast_simulate` calls
``run`` once over the whole compiled trace — the loop body is
identical to a monolithic kernel, so single-policy replay pays nothing
for the factoring — while :func:`multi_policy_replay` interleaves many
``run`` calls over cache-sized chunks of the same compiled arrays,
which is what makes the single-pass multi-policy traversal possible
without per-access dispatch overhead.  :func:`stepper` feeds ``run``
one-access chunks at arbitrary trace positions.
"""

from __future__ import annotations

import heapq
import os
from bisect import bisect_left, insort
from collections import OrderedDict
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.telemetry import spans
from repro.core.mapping import FixedBlockMapping
from repro.core.raw_stream import draw_stream, stream_kind
from repro.core.reuse import head_distances, occurrences, run_heads, stack_distances
from repro.core.trace import Trace
from repro.errors import ConfigurationError
from repro.policies.adaptive_iblp import AdaptiveIBLP
from repro.policies.athreshold import AThresholdLRU
from repro.policies.base import make_policy, policy_class
from repro.policies.block_cache import BlockFIFO, BlockLRU
from repro.policies.iblp import IBLP, BlockFirstIBLP
from repro.policies.item_lru import ItemFIFO, ItemLRU, ItemMRU
from repro.policies.item_other import ItemClock, ItemLFU, ItemRandom
from repro.policies.item_twoq import ItemTwoQ
from repro.policies.marking import GCM, MarkAllGCM, MarkingLRU, PartialGCM
from repro.types import SimResult

__all__ = [
    "CompiledTrace",
    "compile_trace",
    "fast_simulate",
    "fast_fallback_reason",
    "Stepper",
    "stepper",
    "supports",
    "FAST_POLICY_NAMES",
    "KIND_MISS",
    "KIND_TEMPORAL",
    "KIND_SPATIAL",
    "stack_distances",
    "MULTI_CAPACITY_POLICIES",
    "multi_capacity_supported",
    "multi_capacity_replay",
    "MULTI_POLICY_CHUNK",
    "multi_policy_supported",
    "multi_policy_replay",
]

#: Integer codes for the per-access outcome stream (the compact form of
#: :class:`~repro.types.HitKind` used by kernels and the conformance
#: harness; see :data:`repro.core.conformance.KIND_CODE`).
KIND_MISS, KIND_TEMPORAL, KIND_SPATIAL = 0, 1, 2

#: Accesses per traversal slice — the lockstep window of
#: :func:`multi_policy_replay` and the materialization window of an
#: mmap-backed trace.  Small enough that one slice's items/blocks/dense
#: lists stay cache-warm while every kernel sweeps them, large enough
#: that the per-slice Python overhead vanishes.
MULTI_POLICY_CHUNK = 65536


class CompiledTrace:
    """A trace lowered to plain-int arrays for kernel replay.

    Attributes
    ----------
    n:
        Number of accesses.
    items:
        Requested item ids as a Python ``list`` (C-int iteration is
        ~3× faster than pulling ``numpy`` scalars in a Python loop).
    blocks:
        Block id of each access, same length as ``items``.
    dense:
        Per-access item ids re-encoded densely as ``0..n_distinct-1``
        (index into ``unique_items``); item-granularity kernels use
        these to replace hash lookups with array indexing.
    unique_items:
        ``int64`` array decoding dense id → original item id.
    block_members:
        ``block id → tuple of member items`` (in ``mapping.items_in``
        order) for every block the trace references — what the referee
        obtains from ``mapping.items_in`` per miss, computed once here.
    item_block:
        ``item id → block id`` for every member of every referenced
        block (covers side-loaded items that never appear in ``items``).
    """

    __slots__ = (
        "n",
        "items",
        "blocks",
        "dense",
        "n_distinct",
        "unique_items",
        "block_members",
        "item_block",
        "_dense_index",
    )

    def __init__(self, trace: Trace) -> None:
        arr = trace.items
        self.n = int(arr.size)
        self.items: List[int] = arr.tolist()
        blocks_arr = trace.mapping.blocks_of(arr)
        self.blocks: List[int] = blocks_arr.tolist()
        if self.n:
            unique, inverse = np.unique(arr, return_inverse=True)
        else:
            unique = np.empty(0, dtype=np.int64)
            inverse = np.empty(0, dtype=np.int64)
        self.unique_items = unique
        self.n_distinct = int(unique.size)
        self.dense: List[int] = inverse.tolist()
        self._dense_index: Optional[Dict[int, int]] = None
        self.block_members: Dict[int, Tuple[int, ...]] = {}
        self.item_block: Dict[int, int] = {}
        for blk in np.unique(blocks_arr).tolist():
            members = tuple(trace.mapping.items_in(blk))
            self.block_members[blk] = members
            for member in members:
                self.item_block[member] = blk

    def dense_index(self) -> Dict[int, int]:
        """``item id → dense id`` over the trace's distinct items.

        Built on first use: only residency probes on dense-id kernels
        (:func:`stepper`'s ``contains``) need it, batch replays never.
        """
        if self._dense_index is None:
            self._dense_index = dict(
                zip(self.unique_items.tolist(), range(self.n_distinct))
            )
        return self._dense_index

    def iter_chunks(
        self, chunk: Optional[int] = None
    ) -> Iterator[Tuple[List[int], List[int], List[int]]]:
        """Yield ``(items, blocks, dense)`` list slices for kernel ``run()``.

        The single traversal API both replay entry points use: kernels
        are resumable steppers, so feeding them the trace in any
        contiguous chunking is equivalent.  The in-memory compilation
        yields its whole lists in one chunk when ``chunk`` is ``None``
        or covers ``n`` (no slicing cost); the mmap subclass always
        chunks so only a bounded window is ever materialized as Python
        ints.
        """
        if chunk is None or self.n <= chunk:
            yield self.items, self.blocks, self.dense
            return
        for lo in range(0, self.n, chunk):
            hi = lo + chunk
            yield self.items[lo:hi], self.blocks[lo:hi], self.dense[lo:hi]


class MmapCompiledTrace(CompiledTrace):
    """A compiled view over an ``.rtc`` file's memory-mapped columns.

    The ``items``/``blocks``/``dense`` attributes hold the file's
    ``np.memmap`` columns instead of Python lists — zero bytes are
    copied at compile time, and :meth:`iter_chunks` materializes one
    bounded window of Python ints at a time, so kernels replay a
    multi-gigabyte trace in O(chunk + distinct) memory.  Only the
    distinct-id tables (``unique_items``, ``block_members``,
    ``item_block``) are built eagerly, exactly as the in-memory
    compilation does.
    """

    __slots__ = ()

    def __init__(self, trace: Trace) -> None:  # trace: rtc.MmapTrace
        rtc = trace._rtc  # type: ignore[attr-defined]
        self.n = int(rtc.n)
        self.items = rtc.items
        self.blocks = rtc.blocks
        self.dense = rtc.dense
        self.unique_items = np.asarray(rtc.unique_items)
        self.n_distinct = int(self.unique_items.size)
        self._dense_index = None
        self.block_members = {}
        self.item_block = {}
        for blk in np.asarray(rtc.unique_blocks).tolist():
            members = tuple(trace.mapping.items_in(blk))
            self.block_members[blk] = members
            for member in members:
                self.item_block[member] = blk

    def iter_chunks(
        self, chunk: Optional[int] = None
    ) -> Iterator[Tuple[List[int], List[int], List[int]]]:
        step = chunk or MULTI_POLICY_CHUNK
        for lo in range(0, self.n, step):
            hi = lo + step
            yield (
                self.items[lo:hi].tolist(),
                self.blocks[lo:hi].tolist(),
                self.dense[lo:hi].tolist(),
            )


# Memoized by content fingerprint, not object identity: a sweep worker
# that receives the same trace unpickled per cell
# still reuses one compilation.  The LRU cap bounds memory — compiled
# traces hold Python-int lists, so a handful of large ones is already
# tens of MB; typical workers touch one or two distinct traces.
_COMPILE_MEMO_CAP = 4
_COMPILED: "OrderedDict[str, CompiledTrace]" = OrderedDict()


def _compile(trace: Trace) -> CompiledTrace:
    """Pick the compilation strategy: mmap view for rtc-backed traces."""
    if getattr(trace, "_rtc", None) is not None:
        return MmapCompiledTrace(trace)
    return CompiledTrace(trace)


def compile_trace(trace: Trace) -> CompiledTrace:
    """Compile (or fetch the memoized compilation of) ``trace``.

    The memo key is :meth:`Trace.fingerprint`, so equal-content traces
    share one compilation regardless of how they reached this process —
    except mmap-backed traces, which key on ``trace._memo_key`` (file
    header digest + mtime + size, see
    :func:`repro.core.rtc.file_memo_key`): their header fingerprint is
    trusted rather than recomputed, so an edited ``.rtc`` file must
    never collide with the stale compilation of its previous contents.
    ``REPRO_NO_COMPILE_MEMO=1`` disables the memo (benchmarking and
    memory-constrained runs); the fingerprint itself is cached on the
    trace instance, so keying is cheap after the first call.
    """
    with spans.span("fast.compile") as sp:
        if os.environ.get("REPRO_NO_COMPILE_MEMO"):
            compiled = _compile(trace)
            if sp is not None:
                sp.set("memo", "off")
                sp.set("accesses", compiled.n)
            return compiled
        key = getattr(trace, "_memo_key", None) or trace.fingerprint()
        cached = _COMPILED.get(key)
        if cached is not None:
            _COMPILED.move_to_end(key)
            if sp is not None:
                sp.set("memo", "hit")
                sp.set("accesses", cached.n)
            return cached
        compiled = _compile(trace)
        _COMPILED[key] = compiled
        while len(_COMPILED) > _COMPILE_MEMO_CAP:
            _COMPILED.popitem(last=False)
        if sp is not None:
            sp.set("memo", "miss")
            sp.set("accesses", compiled.n)
        return compiled


#: counts = (misses, temporal_hits, spatial_hits, loaded_items, evicted_items)
_Counts = Tuple[int, int, int, int, int]
_Record = Optional[List[int]]
#: ``run(items_chunk, blocks_chunk, dense_chunk)`` advances the kernel
#: over one contiguous slice of the compiled trace.
_RunFn = Callable[[List[int], List[int], List[int]], None]
#: ``contains(item)``: whether an original item id is resident now.
_ContainsFn = Callable[[int], bool]
#: A kernel factory ``f(compiled, policy, record, loads)``: closure
#: state + (run, finish, contains).
_Kernel = Callable[
    ["CompiledTrace", "object", _Record, _Record],
    Tuple[_RunFn, Callable[[], _Counts], _ContainsFn],
]


# -- item-granularity kernels (no spatial hits possible) --------------------
def _kernel_item_recency(
    ct: CompiledTrace,
    capacity: int,
    touch_on_hit: bool,
    record: _Record,
    loads: _Record,
):
    """LRU (``touch_on_hit``) / FIFO item cache over dense ids.

    Recency is a doubly-linked list over slot arrays: ``nxt``/``prv``
    of size ``n_distinct + 1`` with slot ``S`` as the head/tail
    sentinel (MRU at ``nxt[S]``, LRU at ``prv[S]``).
    """
    m = ct.n_distinct
    S = m  # sentinel slot
    nxt = [S] * (m + 1)
    prv = [S] * (m + 1)
    resident = bytearray(m)
    st = [0, 0, 0, 0]  # size, misses, temporal, evicted

    def run(items: List[int], blocks: List[int], dense: List[int]) -> None:
        size, misses, temporal, evicted = st
        _nxt, _prv, _res = nxt, prv, resident
        for it in dense:
            if _res[it]:
                temporal += 1
                if touch_on_hit:
                    p = _prv[it]
                    nx = _nxt[it]
                    _nxt[p] = nx
                    _prv[nx] = p
                    f = _nxt[S]
                    _nxt[S] = it
                    _prv[it] = S
                    _nxt[it] = f
                    _prv[f] = it
                if record is not None:
                    record.append(KIND_TEMPORAL)
            else:
                misses += 1
                if size >= capacity:
                    lru = _prv[S]
                    p = _prv[lru]
                    _nxt[p] = S
                    _prv[S] = p
                    _res[lru] = 0
                    evicted += 1
                else:
                    size += 1
                _res[it] = 1
                f = _nxt[S]
                _nxt[S] = it
                _prv[it] = S
                _nxt[it] = f
                _prv[f] = it
                if record is not None:
                    record.append(KIND_MISS)
                if loads is not None:
                    loads.append(1)
        st[0], st[1], st[2], st[3] = size, misses, temporal, evicted

    def finish() -> _Counts:
        return st[1], st[2], 0, st[1], st[3]

    def contains(item: int) -> bool:
        d = ct.dense_index().get(item)
        return d is not None and resident[d] == 1

    return run, finish, contains


def _kernel_item_mru(
    ct: CompiledTrace, capacity: int, record: _Record, loads: _Record
):
    """MRU item cache: insertion-ordered dict, victim = last key.

    :class:`~repro.policies.item_lru.ItemMRU` touches on hits and
    evicts ``pop_mru()`` — with eviction *before* insertion, the victim
    is the previous MRU, which is exactly ``dict.popitem()`` on an
    insertion-ordered dict where touch = pop + reinsert.
    """
    order: Dict[int, None] = {}
    st = [0, 0, 0]  # misses, temporal, evicted

    def run(items: List[int], blocks: List[int], dense: List[int]) -> None:
        misses, temporal, evicted = st
        d = order
        for it in dense:
            if it in d:
                d[it] = d.pop(it)
                temporal += 1
                if record is not None:
                    record.append(KIND_TEMPORAL)
            else:
                misses += 1
                if len(d) >= capacity:
                    d.popitem()
                    evicted += 1
                d[it] = None
                if record is not None:
                    record.append(KIND_MISS)
                if loads is not None:
                    loads.append(1)
        st[0], st[1], st[2] = misses, temporal, evicted

    def finish() -> _Counts:
        return st[0], st[1], 0, st[0], st[2]

    def contains(item: int) -> bool:
        d = ct.dense_index().get(item)
        return d is not None and d in order

    return run, finish, contains


def _kernel_item_clock(
    ct: CompiledTrace, capacity: int, record: _Record, loads: _Record
):
    """CLOCK item cache on flat ring arrays, bit-exact to
    :class:`repro.structs.clock_hand.ClockHand`.

    ClockHand's ``evict()`` + ``insert()`` pair pops the victim and
    re-inserts at the hand (rotating the backing list when the victim
    sits at the end); relative to the hand that is circularly identical
    to replacing the victim's slot in place and advancing the hand by
    one, which is what this kernel does — O(1) per miss instead of the
    structure's O(n) reindex.  During warmup (no evictions yet) the
    hand rests on the first-inserted key at the end of the ring and
    each insert lands just behind it, displacing only that one entry.
    """
    m = ct.n_distinct
    pos = [0] * m  # dense id -> ring slot (valid iff resident)
    resident = bytearray(m)
    ring = [0] * capacity  # ring slot -> dense id
    ref = bytearray(capacity)  # ring slot -> reference bit
    st = [0, 0, 0, 0, 0]  # hand, size, misses, temporal, evicted

    def run(items: List[int], blocks: List[int], dense: List[int]) -> None:
        hand, size, misses, temporal, evicted = st
        _pos, _res, _ring, _ref = pos, resident, ring, ref
        for it in dense:
            if _res[it]:
                _ref[_pos[it]] = 1
                temporal += 1
                if record is not None:
                    record.append(KIND_TEMPORAL)
                continue
            misses += 1
            if record is not None:
                record.append(KIND_MISS)
            if loads is not None:
                loads.append(1)
            if size >= capacity:
                h = hand
                if h >= capacity:
                    h = 0
                while _ref[h]:  # second-chance sweep
                    _ref[h] = 0
                    h += 1
                    if h >= capacity:
                        h = 0
                _res[_ring[h]] = 0
                evicted += 1
                _ring[h] = it
                _ref[h] = 1
                _pos[it] = h
                _res[it] = 1
                hand = h + 1
            elif size == 0:
                _ring[0] = it
                _ref[0] = 1
                _pos[it] = 0
                _res[it] = 1
                size = 1
                # hand stays 0: it rests on this first key until full.
            else:
                # Insert just behind the hand at slot size-1; the first
                # key shifts to slot size, its reference bit with it.
                last = _ring[size - 1]
                _ring[size] = last
                _ref[size] = _ref[size - 1]
                _pos[last] = size
                _ring[size - 1] = it
                _ref[size - 1] = 1
                _pos[it] = size - 1
                _res[it] = 1
                size += 1
                hand = size - 1
        st[0], st[1], st[2], st[3], st[4] = hand, size, misses, temporal, evicted

    def finish() -> _Counts:
        return st[2], st[3], 0, st[2], st[4]

    def contains(item: int) -> bool:
        d = ct.dense_index().get(item)
        return d is not None and resident[d] == 1

    return run, finish, contains


def _kernel_item_lfu(
    ct: CompiledTrace, capacity: int, record: _Record, loads: _Record
):
    """In-cache LFU with LRU tie-breaking via a lazy heap.

    The referee (:class:`~repro.policies.item_other.ItemLFU`) picks
    ``min`` over ``(freq, last_use)``; ``last_use`` ticks are unique
    and strictly increasing, so the key is unique per entry and a heap
    with stale-entry skipping pops the exact same victim in O(log k)
    instead of the referee's O(k) scan.
    """
    freq: Dict[int, int] = {}
    last: Dict[int, int] = {}
    heap: List[Tuple[int, int, int]] = []  # (freq, last_use, dense id)
    st = [0, 0, 0, 0]  # tick, misses, temporal, evicted

    def run(items: List[int], blocks: List[int], dense: List[int]) -> None:
        tick, misses, temporal, evicted = st
        push, pop = heapq.heappush, heapq.heappop
        _freq, _last, _heap = freq, last, heap
        for it in dense:
            f = _freq.get(it)
            if f is not None:
                tick += 1
                f += 1
                _freq[it] = f
                _last[it] = tick
                push(_heap, (f, tick, it))
                temporal += 1
                if record is not None:
                    record.append(KIND_TEMPORAL)
            else:
                misses += 1
                if len(_freq) >= capacity:
                    while True:
                        vf, vt, v = pop(_heap)
                        if _last.get(v) == vt:
                            break
                    del _freq[v]
                    del _last[v]
                    evicted += 1
                tick += 1
                _freq[it] = 1
                _last[it] = tick
                push(_heap, (1, tick, it))
                if record is not None:
                    record.append(KIND_MISS)
                if loads is not None:
                    loads.append(1)
        st[0], st[1], st[2], st[3] = tick, misses, temporal, evicted

    def finish() -> _Counts:
        return st[1], st[2], 0, st[1], st[3]

    def contains(item: int) -> bool:
        d = ct.dense_index().get(item)
        return d is not None and d in freq

    return run, finish, contains


def _kernel_item_random(
    ct: CompiledTrace, capacity: int, seed: int, record: _Record, loads: _Record
):
    """Seeded random replacement, RNG-identical to
    :class:`~repro.policies.item_other.ItemRandom`.

    One ``integers(len(slots))`` draw per eviction — the same draw on
    the same seeded PCG64 stream the referee consumes (via
    :func:`~repro.core.raw_stream.draw_stream`), so any fixed seed
    replays bit-identically.  The swap-with-last slot compaction
    mirrors the referee's.
    """
    stream = draw_stream(seed, capacity)
    slots: List[int] = []
    resident = bytearray(ct.n_distinct)
    st = [0, 0, 0]  # misses, temporal, evicted

    def run(items: List[int], blocks: List[int], dense: List[int]) -> None:
        misses, temporal, evicted = st
        integers = stream.integers
        _slots, _res = slots, resident
        for it in dense:
            if _res[it]:
                temporal += 1
                if record is not None:
                    record.append(KIND_TEMPORAL)
            else:
                misses += 1
                if len(_slots) >= capacity:
                    idx = integers(len(_slots))
                    victim = _slots[idx]
                    last = _slots.pop()
                    if last != victim:
                        _slots[idx] = last
                    _res[victim] = 0
                    evicted += 1
                _slots.append(it)
                _res[it] = 1
                if record is not None:
                    record.append(KIND_MISS)
                if loads is not None:
                    loads.append(1)
        st[0], st[1], st[2] = misses, temporal, evicted

    def finish() -> _Counts:
        return st[0], st[1], 0, st[0], st[2]

    def contains(item: int) -> bool:
        d = ct.dense_index().get(item)
        return d is not None and resident[d] == 1

    return run, finish, contains


def _kernel_item_twoq(
    ct: CompiledTrace,
    capacity: int,
    probation_fraction: float,
    ghost_fraction: float,
    record: _Record,
    loads: _Record,
):
    """2Q (A1in/Am/A1out) over insertion-ordered dicts, mirroring
    :class:`~repro.policies.item_twoq.ItemTwoQ` exactly: FIFO probation
    untouched on hits, ghosts only remember probation victims, ghost
    hits promote straight into the protected LRU."""
    a1in_cap = max(1, int(capacity * probation_fraction))
    ghost_cap = max(1, int(capacity * ghost_fraction))
    a1in: Dict[int, None] = {}
    am: Dict[int, None] = {}
    ghosts: Dict[int, None] = {}
    st = [0, 0, 0]  # misses, temporal, evicted

    def run(items: List[int], blocks: List[int], dense: List[int]) -> None:
        misses, temporal, evicted = st
        _a1in, _am, _ghosts = a1in, am, ghosts
        for it in dense:
            if it in _am:
                _am[it] = _am.pop(it)
                temporal += 1
                if record is not None:
                    record.append(KIND_TEMPORAL)
            elif it in _a1in:
                # 2Q leaves probation order untouched on hits (FIFO).
                temporal += 1
                if record is not None:
                    record.append(KIND_TEMPORAL)
            else:
                misses += 1
                if len(_a1in) + len(_am) >= capacity:
                    # Prefer draining probation past its cap, else the
                    # protected LRU, else probation anyway (Am empty).
                    if len(_a1in) > a1in_cap or not _am:
                        victim = next(iter(_a1in))
                        del _a1in[victim]
                        if victim in _ghosts:
                            _ghosts[victim] = _ghosts.pop(victim)
                        else:
                            _ghosts[victim] = None
                            if len(_ghosts) > ghost_cap:
                                del _ghosts[next(iter(_ghosts))]
                    else:
                        victim = next(iter(_am))
                        del _am[victim]
                    evicted += 1
                if it in _ghosts:
                    # Recently evicted from probation: straight to Am.
                    del _ghosts[it]
                    _am[it] = None
                else:
                    _a1in[it] = None
                if record is not None:
                    record.append(KIND_MISS)
                if loads is not None:
                    loads.append(1)
        st[0], st[1], st[2] = misses, temporal, evicted

    def finish() -> _Counts:
        return st[0], st[1], 0, st[0], st[2]

    def contains(item: int) -> bool:
        d = ct.dense_index().get(item)
        return d is not None and (d in am or d in a1in)

    return run, finish, contains


def _kernel_marking_lru(
    ct: CompiledTrace, capacity: int, record: _Record, loads: _Record
):
    """Traditional marking (LRU victim among unmarked), loads only the
    requested item — mirrors
    :class:`~repro.policies.marking.MarkingLRU` including the phase
    reset (clear marks when every resident is marked, checked only when
    an eviction is needed)."""
    order: Dict[int, None] = {}  # insertion order = LRU→MRU
    marked: set = set()
    st = [0, 0, 0]  # misses, temporal, evicted

    def run(items: List[int], blocks: List[int], dense: List[int]) -> None:
        misses, temporal, evicted = st
        d, mk = order, marked
        for it in dense:
            if it in d:
                d[it] = d.pop(it)
                mk.add(it)
                temporal += 1
                if record is not None:
                    record.append(KIND_TEMPORAL)
            else:
                misses += 1
                if len(d) >= capacity:
                    if len(mk) >= len(d):
                        mk.clear()  # new phase
                    victim = next(k for k in d if k not in mk)
                    del d[victim]
                    evicted += 1
                d[it] = None
                mk.add(it)
                if record is not None:
                    record.append(KIND_MISS)
                if loads is not None:
                    loads.append(1)
        st[0], st[1], st[2] = misses, temporal, evicted

    def finish() -> _Counts:
        return st[0], st[1], 0, st[0], st[2]

    def contains(item: int) -> bool:
        d = ct.dense_index().get(item)
        return d is not None and d in order

    return run, finish, contains


# -- block-granularity kernels (referee hit-taxonomy replicated) ------------
def _kernel_gcm(
    ct: CompiledTrace,
    capacity: int,
    seed: int,
    mark_side_loads: bool,
    max_load: Optional[int],
    record: _Record,
    loads: _Record,
):
    """Granularity-Change Marking family (§6.1), RNG bit-identical.

    Replays :class:`~repro.policies.marking._GCMBase` verbatim on
    original item ids: the same ``sorted()`` candidate orderings, the
    same ``integers``/``shuffle`` call sequence on the same seeded
    PCG64 stream (:func:`~repro.core.raw_stream.draw_stream`), the
    same churn algebra (a same-block step-1 victim can be re-loaded as
    a neighbour) and the engine's spatial-pending classification.  ``mark_side_loads`` selects
    gcm vs gcm-markall; ``max_load`` is gcm-partial's dial.

    The referee materialises and sorts the candidate set per eviction
    (``sorted(res - mk)[rng.integers(n)]`` — O(k log k) per miss).
    The kernel keeps that candidate list alive instead: ``unmarked``
    is the sorted list of unmarked residents, so the victim is
    ``unmarked.pop(integers(len(unmarked)))``.  A hit on an
    unmarked item deletes it by bisection, deferred side loads are
    ``insort``-ed and a phase reset re-sorts the residents.  The draw
    bound is the same candidate count and the victim the same order
    statistic, so the draw sequence and every victim are bit-identical
    to the referee — only the cost changes (a memmove per update).
    """
    stream = draw_stream(seed, capacity)
    resident: set = set()
    marked: set = set()
    pending: set = set()  # side-loaded residents not yet hit
    unmarked: List[int] = []  # sorted unmarked residents (candidates)
    members_of = ct.block_members
    st = [0, 0, 0, 0, 0]  # misses, temporal, spatial, loaded_n, evicted_n

    def run(items: List[int], blocks: List[int], dense: List[int]) -> None:
        misses, temporal, spatial, loaded_n, evicted_n = st
        integers, shuffle = stream.integers, stream.shuffle
        res, mk, pend, cand = resident, marked, pending, unmarked
        for it, blk in zip(items, blocks):
            if it in res:
                if it not in mk:
                    mk.add(it)
                    del cand[bisect_left(cand, it)]
                if it in pend:
                    pend.discard(it)
                    spatial += 1
                    if record is not None:
                        record.append(KIND_SPATIAL)
                else:
                    temporal += 1
                    if record is not None:
                        record.append(KIND_TEMPORAL)
                continue
            loaded: set = set()
            evicted: set = set()
            # 1. Load and mark the requested item.  The victim is the
            # referee's ``sorted(res - mk)[idx]``.
            if len(res) >= capacity:
                if not cand:
                    mk.clear()  # phase ends: all residents candidates
                    cand[:] = sorted(res)
                victim = cand.pop(integers(len(cand)))
                res.discard(victim)
                evicted.add(victim)
            res.add(it)
            mk.add(it)
            loaded.add(it)
            # 2. Bring in the rest of the block, replacing unmarked
            # items (never this access's own loads).
            neighbours = [x for x in members_of[blk] if x not in res]
            if neighbours:
                shuffle(neighbours)
            if max_load is not None:
                neighbours = neighbours[: max_load - 1]
            side_loaded: List[int] = []
            for nb in neighbours:
                if len(res) >= capacity:
                    # Referee candidates = res - mk - loaded.  This
                    # access's unmarked side loads join ``cand`` only
                    # after the loop, so it holds exactly that set.
                    if not cand:
                        break
                    victim = cand.pop(integers(len(cand)))
                    res.discard(victim)
                    evicted.add(victim)
                res.add(nb)
                loaded.add(nb)
                if mark_side_loads:
                    mk.add(nb)
                else:
                    side_loaded.append(nb)
            # Deferred: this access's unmarked side loads become
            # eviction candidates for later accesses only.
            for nb in side_loaded:
                insort(cand, nb)
            # (The referee's ``marked &= resident`` is a no-op: victims
            # are always unmarked at eviction time.)
            if evicted and not loaded.isdisjoint(evicted):
                churn = loaded & evicted
                loaded -= churn
                evicted -= churn
            misses += 1
            n_loaded = len(loaded)
            loaded_n += n_loaded
            if loads is not None:
                loads.append(n_loaded)
            evicted_n += len(evicted)
            pend -= evicted
            pend |= loaded
            if it in loaded:
                pend.discard(it)
            if record is not None:
                record.append(KIND_MISS)
        st[0], st[1], st[2], st[3], st[4] = (
            misses,
            temporal,
            spatial,
            loaded_n,
            evicted_n,
        )

    def finish() -> _Counts:
        return st[0], st[1], st[2], st[3], st[4]

    return run, finish, resident.__contains__


def _kernel_block(
    ct: CompiledTrace,
    capacity: int,
    touch_on_hit: bool,
    record: _Record,
    loads: _Record,
):
    """Whole-block LRU/FIFO mirroring ``_BlockPolicyBase`` + the
    referee's spatial-pending classification."""
    blocks_d: Dict[int, Tuple[int, ...]] = {}  # insertion order = LRU→MRU
    resident: set = set()
    pending: set = set()  # side-loaded residents not yet hit
    members_of = ct.block_members
    st = [0, 0, 0, 0, 0]  # misses, temporal, spatial, loaded_n, evicted_n

    def run(items: List[int], blocks: List[int], dense: List[int]) -> None:
        misses, temporal, spatial, loaded_n, evicted_n = st
        bd, res, pend = blocks_d, resident, pending
        for it, blk in zip(items, blocks):
            if blk in bd:
                if it in res:
                    if touch_on_hit:
                        bd[blk] = bd.pop(blk)
                    if it in pend:
                        pend.discard(it)
                        spatial += 1
                        if record is not None:
                            record.append(KIND_SPATIAL)
                    else:
                        temporal += 1
                        if record is not None:
                            record.append(KIND_TEMPORAL)
                    continue
                # Trimmed residue (k < |block|): replace the stale entry.
                stale = bd.pop(blk)
                res.difference_update(stale)
                evicted = set(stale)
            else:
                evicted = set()
            members = members_of[blk]
            load = members
            if len(members) > capacity:
                keep = [it]
                for m in members:
                    if m != it and len(keep) < capacity:
                        keep.append(m)
                load = tuple(sorted(keep))
            while len(res) + len(load) > capacity:
                victim_block = next(iter(bd))
                victim_items = bd.pop(victim_block)
                evicted.update(victim_items)
                res.difference_update(victim_items)
            bd[blk] = load
            res.update(load)
            loaded = load
            if evicted and not evicted.isdisjoint(load):
                loaded = set(load)
                churn = loaded & evicted
                loaded -= churn
                evicted -= churn
            misses += 1
            n_loaded = len(loaded)
            loaded_n += n_loaded
            if loads is not None:
                loads.append(n_loaded)
            evicted_n += len(evicted)
            pend -= evicted
            pend.update(loaded)
            if it in loaded:
                pend.discard(it)
            if record is not None:
                record.append(KIND_MISS)
        st[0], st[1], st[2], st[3], st[4] = (
            misses,
            temporal,
            spatial,
            loaded_n,
            evicted_n,
        )

    def finish() -> _Counts:
        return st[0], st[1], st[2], st[3], st[4]

    return run, finish, resident.__contains__


def _kernel_iblp(
    ct: CompiledTrace,
    capacity: int,
    item_layer_size: int,
    block_first: bool,
    record: _Record,
    loads: _Record,
):
    """IBLP (canonical and block-first ablation) over two layer sets.

    A block sits in the block layer at most once and blocks are
    disjoint, so the block layer's items (``bitems``) are too: an item
    is resident iff it is in the item layer or in ``bitems``, and
    ``len(bitems)`` is the block layer's occupancy.  That stands in for
    the referee's per-item layer refcounts: a victim is evicted only if
    it is in neither layer, a member is loaded only if it was in
    neither layer.

    ``block_first`` reproduces
    :class:`~repro.policies.iblp.BlockFirstIBLP`: the block layer's
    recency is refreshed on *every* access to a resident block — §5.1's
    pollution hazard — before the item layer is consulted.
    """
    ils = item_layer_size
    bls = capacity - ils
    items_d: Dict[int, None] = {}  # item layer, insertion order = LRU→MRU
    blocks_d: Dict[int, Tuple[int, ...]] = {}  # block layer
    bitems: set = set()  # items held by the block layer
    pending: set = set()
    members_of = ct.block_members
    st = [0, 0, 0, 0, 0]  # misses, temporal, spatial, loaded_n, evicted_n

    def run(items: List[int], blocks: List[int], dense: List[int]) -> None:
        misses, temporal, spatial, loaded_n, evicted_n = st
        pend, idl, bd, bit = pending, items_d, blocks_d, bitems
        for it, blk in zip(items, blocks):
            if block_first and blk in bd:
                bd[blk] = bd.pop(blk)  # harmful reordering
            if it in idl:
                idl[it] = idl.pop(it)  # pure item-layer hit
            elif it in bit:
                # Block-layer hit: refresh recency, promote the item.
                # ``it`` stays resident, so the promotion loads nothing;
                # its item-layer victim is evicted only if the block
                # layer lacks it.
                if not block_first:
                    bd[blk] = bd.pop(blk)
                if ils:
                    if len(idl) >= ils:
                        victim = next(iter(idl))
                        del idl[victim]
                        if victim not in bit:
                            evicted_n += 1
                            pend.discard(victim)
                    idl[it] = None
            else:
                # Full miss: ``it`` is in neither layer; both layers load.
                evicted: set = set()
                if ils:
                    if len(idl) >= ils:
                        victim = next(iter(idl))
                        del idl[victim]
                        if victim not in bit:
                            evicted.add(victim)
                    idl[it] = None
                if bls:
                    # Block-layer victims (and a trimmed residue's stale
                    # entry) are evicted unless the item layer holds them.
                    if blk in bd:
                        stale = bd.pop(blk)
                        bit.difference_update(stale)
                        evicted.update(stale)
                    load = members_of[blk]
                    if len(load) > bls:
                        keep = [it] + [m for m in load if m != it]
                        load = tuple(keep[:bls])
                    while len(bit) + len(load) > bls:
                        victim_items = bd.pop(next(iter(bd)))
                        bit.difference_update(victim_items)
                        evicted.update(victim_items)
                    bd[blk] = load
                    bit.update(load)
                    if evicted:
                        evicted = evicted.difference(idl)
                    # No item of ``blk`` was left in the block layer, so
                    # a member was in neither layer iff the item layer
                    # lacks it; ``it`` was loaded by the item layer.
                    loaded = set(load).difference(idl)
                    if ils:
                        loaded.add(it)
                else:
                    loaded = {it}
                if evicted and not loaded.isdisjoint(evicted):
                    churn = loaded & evicted
                    loaded -= churn
                    evicted -= churn
                misses += 1
                n_loaded = len(loaded)
                loaded_n += n_loaded
                if loads is not None:
                    loads.append(n_loaded)
                evicted_n += len(evicted)
                pend -= evicted
                pend |= loaded
                if it in loaded:
                    pend.discard(it)
                if record is not None:
                    record.append(KIND_MISS)
                continue
            if it in pend:
                pend.discard(it)
                spatial += 1
                if record is not None:
                    record.append(KIND_SPATIAL)
            else:
                temporal += 1
                if record is not None:
                    record.append(KIND_TEMPORAL)
        st[0], st[1], st[2], st[3], st[4] = (
            misses,
            temporal,
            spatial,
            loaded_n,
            evicted_n,
        )

    def finish() -> _Counts:
        return st[0], st[1], st[2], st[3], st[4]

    def contains(item: int) -> bool:
        return item in items_d or item in bitems

    return run, finish, contains


def _kernel_iblp_adaptive(
    ct: CompiledTrace,
    capacity: int,
    initial_item_fraction: float,
    ghost_factor: float,
    max_block_size: int,
    record: _Record,
    loads: _Record,
):
    """Adaptive-split IBLP mirroring
    :class:`~repro.policies.adaptive_iblp.AdaptiveIBLP`: ARC-style
    ghost lists move the float layer boundary (+1 per item-ghost hit,
    -B per block-ghost hit), layers shed lazily, and all victims are
    remembered in bounded ghosts — exactly the referee's order of
    operations, so the boundary trajectory is identical.  Residency is
    the two layer sets of :func:`_kernel_iblp`.
    """
    items_d: Dict[int, None] = {}
    blocks_d: Dict[int, Tuple[int, ...]] = {}
    bitems: set = set()  # items held by the block layer
    ghost_items: Dict[int, None] = {}
    ghost_blocks: Dict[int, None] = {}
    ghost_item_cap = max(1, int(capacity * ghost_factor))
    ghost_block_cap = max(1, int(capacity * ghost_factor) // max_block_size)
    pending: set = set()
    scratch: set = set()  # a promotion's evictions (empty between accesses)
    members_of = ct.block_members
    # target_i (float) lives in a cell: the helpers below move it
    # across chunk boundaries.
    target = [capacity * initial_item_fraction]
    st = [0, 0, 0, 0, 0]  # misses, temporal, spatial, loaded_n, evicted_n

    def remember_item(x: int) -> None:
        if x in ghost_items:
            ghost_items[x] = ghost_items.pop(x)
        else:
            ghost_items[x] = None
            if len(ghost_items) > ghost_item_cap:
                del ghost_items[next(iter(ghost_items))]

    def remember_block(b: int) -> None:
        if b in ghost_blocks:
            ghost_blocks[b] = ghost_blocks.pop(b)
        else:
            ghost_blocks[b] = None
            if len(ghost_blocks) > ghost_block_cap:
                del ghost_blocks[next(iter(ghost_blocks))]

    def evict_item(evicted: set) -> None:
        victim = next(iter(items_d))
        del items_d[victim]
        remember_item(victim)
        if victim not in bitems:
            evicted.add(victim)

    def evict_block(evicted: set) -> None:
        blk = next(iter(blocks_d))
        members = blocks_d.pop(blk)
        bitems.difference_update(members)
        remember_block(blk)
        evicted.update(members)

    def shrink_layers(evicted: set) -> None:
        i_cap = int(target[0])
        b_cap = capacity - i_cap
        while len(items_d) > i_cap:
            evict_item(evicted)
        while len(bitems) > b_cap and blocks_d:
            evict_block(evicted)

    def promote(x: int, loaded: set, evicted: set) -> None:
        i_cap = int(target[0])
        if i_cap == 0:
            return
        if x in items_d:
            items_d[x] = items_d.pop(x)
            return
        while len(items_d) >= i_cap and items_d:
            evict_item(evicted)
        items_d[x] = None
        if x not in bitems:
            loaded.add(x)

    def insert_block(blk: int, x: int, loaded: set, evicted: set) -> None:
        b_cap = capacity - int(target[0])
        if b_cap == 0:
            # No block layer: ensure the item itself is resident.
            if x not in items_d and x not in bitems:
                if len(items_d) >= max(1, int(target[0])):
                    evict_item(evicted)
                items_d[x] = None
                loaded.add(x)
            return
        if blk in blocks_d:
            stale = blocks_d.pop(blk)
            bitems.difference_update(stale)
            evicted.update(stale)
        load = members_of[blk]
        if len(load) > b_cap:
            keep = [x] + [m for m in load if m != x]
            load = tuple(keep[:b_cap])
        while len(bitems) + len(load) > b_cap and blocks_d:
            evict_block(evicted)
        blocks_d[blk] = load
        bitems.update(load)
        loaded.update(set(load).difference(items_d))

    def run(items: List[int], blocks: List[int], dense: List[int]) -> None:
        misses, temporal, spatial, loaded_n, evicted_n = st
        pend = pending
        for it, blk in zip(items, blocks):
            if it in items_d:
                items_d[it] = items_d.pop(it)
            elif it in bitems:
                # Block-layer hit: promote without a load (see IBLP).
                blocks_d[blk] = blocks_d.pop(blk)
                promote(it, scratch, scratch)
                if scratch:
                    evicted_n += len(scratch)
                    pend -= scratch
                    scratch.clear()
            else:
                loaded: set = set()
                evicted: set = set()
                # Miss: consult the ghosts to move the boundary first.
                if it in ghost_items:
                    del ghost_items[it]
                    target[0] = min(float(capacity), target[0] + 1.0)
                elif blk in ghost_blocks:
                    del ghost_blocks[blk]
                    target[0] = max(0.0, target[0] - float(max_block_size))
                shrink_layers(evicted)
                promote(it, loaded, evicted)
                insert_block(blk, it, loaded, evicted)
                if evicted:
                    # Block-layer releases stay resident in the item layer.
                    evicted = evicted.difference(items_d)
                if evicted and not loaded.isdisjoint(evicted):
                    churn = loaded & evicted
                    loaded -= churn
                    evicted -= churn
                misses += 1
                n_loaded = len(loaded)
                loaded_n += n_loaded
                if loads is not None:
                    loads.append(n_loaded)
                evicted_n += len(evicted)
                pend -= evicted
                pend |= loaded
                if it in loaded:
                    pend.discard(it)
                if record is not None:
                    record.append(KIND_MISS)
                continue
            if it in pend:
                pend.discard(it)
                spatial += 1
                if record is not None:
                    record.append(KIND_SPATIAL)
            else:
                temporal += 1
                if record is not None:
                    record.append(KIND_TEMPORAL)
        st[0], st[1], st[2], st[3], st[4] = (
            misses,
            temporal,
            spatial,
            loaded_n,
            evicted_n,
        )

    def finish() -> _Counts:
        return st[0], st[1], st[2], st[3], st[4]

    def contains(item: int) -> bool:
        return item in items_d or item in bitems

    return run, finish, contains


def _kernel_athreshold(
    ct: CompiledTrace, capacity: int, a: int, record: _Record, loads: _Record
):
    """LRU item eviction; whole-block load on the ``a``-th distinct miss."""
    order: Dict[int, None] = {}  # insertion order = LRU→MRU
    resident: set = set()
    block_miss_count: Dict[int, int] = {}
    block_resident_count: Dict[int, int] = {}
    pending: set = set()
    members_of = ct.block_members
    block_of = ct.item_block
    st = [0, 0, 0, 0, 0]  # misses, temporal, spatial, loaded_n, evicted_n

    def run(items: List[int], blocks: List[int], dense: List[int]) -> None:
        misses, temporal, spatial, loaded_n, evicted_n = st
        res, pend = resident, pending
        for it, blk in zip(items, blocks):
            if it in res:
                order[it] = order.pop(it)
                if it in pend:
                    pend.discard(it)
                    spatial += 1
                    if record is not None:
                        record.append(KIND_SPATIAL)
                else:
                    temporal += 1
                    if record is not None:
                        record.append(KIND_TEMPORAL)
                continue
            misses_so_far = block_miss_count.get(blk, 0) + 1
            block_miss_count[blk] = misses_so_far
            if misses_so_far >= a:
                want = [m for m in members_of[blk] if m not in res]
                if len(want) > capacity:
                    want = [it] + [w for w in want if w != it]
                    want = want[:capacity]
            else:
                want = [it]
            # Every wanted item is loaded and protected from eviction,
            # so the load set never meets the evict set (no churn).
            loaded = set(want)
            evicted: set = set()
            for w in want:
                if len(res) >= capacity:
                    victim = -1
                    for key in order:
                        if key not in loaded:
                            victim = key
                            break
                    if victim < 0:  # pragma: no cover - mirrors referee guard
                        raise ConfigurationError(
                            "cannot evict: every resident item is protected"
                        )
                    del order[victim]
                    res.discard(victim)
                    vblk = block_of[victim]
                    n = block_resident_count[vblk] - 1
                    if n:
                        block_resident_count[vblk] = n
                    else:
                        del block_resident_count[vblk]
                        block_miss_count.pop(vblk, None)
                    evicted.add(victim)
                res.add(w)
                order[w] = None
                wblk = block_of[w]
                block_resident_count[wblk] = block_resident_count.get(wblk, 0) + 1
            misses += 1
            n_loaded = len(loaded)
            loaded_n += n_loaded
            if loads is not None:
                loads.append(n_loaded)
            evicted_n += len(evicted)
            pend -= evicted
            pend |= loaded
            if it in loaded:
                pend.discard(it)
            if record is not None:
                record.append(KIND_MISS)
        st[0], st[1], st[2], st[3], st[4] = (
            misses,
            temporal,
            spatial,
            loaded_n,
            evicted_n,
        )

    def finish() -> _Counts:
        return st[0], st[1], st[2], st[3], st[4]

    return run, finish, resident.__contains__


# -- dispatch ----------------------------------------------------------------
_DISPATCH: Dict[type, _Kernel] = {
    ItemLRU: lambda ct, p, rec, lds: _kernel_item_recency(
        ct, p.capacity, True, rec, lds
    ),
    ItemFIFO: lambda ct, p, rec, lds: _kernel_item_recency(
        ct, p.capacity, False, rec, lds
    ),
    ItemMRU: lambda ct, p, rec, lds: _kernel_item_mru(ct, p.capacity, rec, lds),
    ItemClock: lambda ct, p, rec, lds: _kernel_item_clock(ct, p.capacity, rec, lds),
    ItemLFU: lambda ct, p, rec, lds: _kernel_item_lfu(ct, p.capacity, rec, lds),
    ItemRandom: lambda ct, p, rec, lds: _kernel_item_random(
        ct, p.capacity, p.seed, rec, lds
    ),
    ItemTwoQ: lambda ct, p, rec, lds: _kernel_item_twoq(
        ct, p.capacity, p.probation_fraction, p.ghost_fraction, rec, lds
    ),
    MarkingLRU: lambda ct, p, rec, lds: _kernel_marking_lru(
        ct, p.capacity, rec, lds
    ),
    GCM: lambda ct, p, rec, lds: _kernel_gcm(
        ct, p.capacity, p.seed, False, None, rec, lds
    ),
    MarkAllGCM: lambda ct, p, rec, lds: _kernel_gcm(
        ct, p.capacity, p.seed, True, None, rec, lds
    ),
    PartialGCM: lambda ct, p, rec, lds: _kernel_gcm(
        ct, p.capacity, p.seed, False, p.max_load, rec, lds
    ),
    BlockLRU: lambda ct, p, rec, lds: _kernel_block(ct, p.capacity, True, rec, lds),
    BlockFIFO: lambda ct, p, rec, lds: _kernel_block(
        ct, p.capacity, False, rec, lds
    ),
    IBLP: lambda ct, p, rec, lds: _kernel_iblp(
        ct, p.capacity, p.item_layer_size, False, rec, lds
    ),
    BlockFirstIBLP: lambda ct, p, rec, lds: _kernel_iblp(
        ct, p.capacity, p.item_layer_size, True, rec, lds
    ),
    AdaptiveIBLP: lambda ct, p, rec, lds: _kernel_iblp_adaptive(
        ct,
        p.capacity,
        p.initial_item_fraction,
        p.ghost_factor,
        p.mapping.max_block_size,
        rec,
        lds,
    ),
    AThresholdLRU: lambda ct, p, rec, lds: _kernel_athreshold(
        ct, p.capacity, p.a, rec, lds
    ),
}

#: Kernels that draw from a seeded stream (:func:`draw_stream`).
_RANDOMIZED = frozenset({ItemRandom, GCM, MarkAllGCM, PartialGCM})

#: Registry names with a replay kernel — every *online* registered
#: policy (parameterized families count once: every ``a`` shares the
#: ``athreshold-lru`` kernel, every seed its policy's kernel).  Only
#: the offline Belady policies replay referee-side.
FAST_POLICY_NAMES: Tuple[str, ...] = tuple(
    sorted(cls.name for cls in _DISPATCH)
)


def _mappings_equivalent(policy, trace: Trace) -> bool:
    """Whether kernels may use the trace's mapping for both roles.

    The referee runs the policy against ``policy.mapping`` while
    shadow-validating against ``trace.mapping``; kernels collapse the
    two, which is only sound when they denote the same partition.
    """
    pm, tm = policy.mapping, trace.mapping
    if pm is tm:
        return True
    return (
        isinstance(pm, FixedBlockMapping)
        and isinstance(tm, FixedBlockMapping)
        and pm.universe == tm.universe
        and pm.max_block_size == tm.max_block_size
    )


def supports(policy) -> bool:
    """Whether ``policy`` (by exact type) has a replay kernel."""
    return type(policy) in _DISPATCH


def fast_fallback_reason(policy, trace: Trace) -> Optional[str]:
    """Why :func:`fast_simulate` would fall back for this pair, if so.

    Returns one of ``"unsupported-policy"``, ``"mapping-mismatch"``,
    ``"warm-policy"``, or ``None`` when a kernel applies.  The engine
    surfaces this as :attr:`SimResult.fallback_reason` telemetry and a
    ``fast.fallback`` span whenever ``simulate(fast=True)`` ends up on
    the referee path (observation requests are reported there as
    ``"observed"`` — they gate the fast attempt before this check).
    """
    if type(policy) not in _DISPATCH:
        return "unsupported-policy"
    if not _mappings_equivalent(policy, trace):
        return "mapping-mismatch"
    if policy.resident_items():
        return "warm-policy"
    return None


def fast_simulate(
    policy, trace: Trace, record: _Record = None, loads: _Record = None
) -> Optional[SimResult]:
    """Replay ``policy`` over ``trace`` with a kernel, if one applies.

    Returns the referee-identical :class:`SimResult`, or ``None`` when
    the policy has no kernel, is already warm, or its mapping cannot be
    collapsed with the trace's (see the module docstring's fallback
    rules).  ``record``, if given, receives one
    :data:`KIND_MISS`/:data:`KIND_TEMPORAL`/:data:`KIND_SPATIAL` code
    per access — the stream the conformance harness diffs against the
    referee's ``on_access`` observations.  ``loads``, if given,
    receives one entry per *miss*, in trace order: the effective
    load-set size (``len(outcome.loaded)`` on the referee, after
    load/evict churn cancels), so ``sum(loads) == loaded_items``.
    This is what the serving layer prices a miss with.  The policy
    object is never mutated.
    """
    if fast_fallback_reason(policy, trace) is not None:
        return None
    name = getattr(policy, "name", type(policy).__name__)
    with spans.span("fast.replay", policy=name, capacity=policy.capacity) as sp:
        compiled = compile_trace(trace)
        if sp is not None:
            sp.set("accesses", compiled.n)
        (counts,) = _replay_steppers(compiled, [(policy, record, loads)], None, sp)
    return _batch_result(name, policy.capacity, trace, compiled.n, *counts)


def _replay_steppers(
    compiled: CompiledTrace,
    kernels: List[Tuple[object, _Record, _Record]],
    chunk: Optional[int],
    sp=None,
) -> List[_Counts]:
    """Advance one kernel stepper per ``(policy, record, loads)`` in lockstep.

    The single stepper loop behind both replay entry points: every
    kernel sees each ``chunk``-sized slice of ``compiled`` before the
    next slice is produced (``None`` hands an in-memory trace over in
    one slice).  Returns each kernel's final counters, in order.  When
    a randomized kernel runs, span ``sp`` records which draw stream
    it got (``rng="raw"``, or ``"numpy"`` if any fell back).
    """
    if sp is not None:
        kinds = {
            stream_kind(policy.capacity)
            for policy, _rec, _lds in kernels
            if type(policy) in _RANDOMIZED
        }
        if kinds:
            sp.set("rng", "numpy" if "numpy" in kinds else "raw")
    steppers = [
        _DISPATCH[type(policy)](compiled, policy, rec, lds)
        for policy, rec, lds in kernels
    ]
    for items_c, blocks_c, dense_c in compiled.iter_chunks(chunk):
        for run, _finish, _contains in steppers:
            run(items_c, blocks_c, dense_c)
    return [finish() for _run, finish, _contains in steppers]


class Stepper:
    """One replay kernel advanced one access at a time (:func:`stepper`).

    ``step(index)`` replays the access at trace position ``index`` and
    returns ``(code, load_size)``: its :data:`KIND_MISS` /
    :data:`KIND_TEMPORAL` / :data:`KIND_SPATIAL` code and, on a miss,
    the effective load-set size (``0`` on a hit).  Positions may come
    in any order and any may be skipped: the kernel sees exactly the
    stepped access stream, as the referee would if it were handed the
    same items in the same order.  ``contains(item)`` is the kernel's
    O(1) residency test, and :meth:`result` the :class:`SimResult` of
    the accesses stepped so far.
    """

    __slots__ = ("step", "contains", "_finish", "_name", "_capacity")

    def __init__(
        self,
        step: Callable[[int], Tuple[int, int]],
        contains: _ContainsFn,
        finish: Callable[[], _Counts],
        name: str,
        capacity: int,
    ) -> None:
        self.step = step
        self.contains = contains
        self._finish = finish
        self._name = name
        self._capacity = capacity

    def result(self, trace: Trace) -> SimResult:
        """The referee-identical :class:`SimResult` of the steps so far."""
        misses, temporal, spatial, loaded, evicted = self._finish()
        return _batch_result(
            self._name,
            self._capacity,
            trace,
            misses + temporal + spatial,
            misses,
            temporal,
            spatial,
            loaded,
            evicted,
        )


def stepper(policy, trace: Trace) -> Optional[Stepper]:
    """A :class:`Stepper` over ``policy``'s kernel, or ``None`` without one.

    The fallback rules are :func:`fast_simulate`'s.  Each step feeds the
    kernel's ``run`` a one-access chunk, so it replays the same code a
    batch replay does, and the policy object is never mutated.  An
    mmap-backed trace's columns are materialized as Python lists once.
    """
    if fast_fallback_reason(policy, trace) is not None:
        return None
    compiled = compile_trace(trace)
    items, blocks, dense = compiled.items, compiled.blocks, compiled.dense
    if not isinstance(items, list):
        items, blocks, dense = items.tolist(), blocks.tolist(), dense.tolist()
    record: List[int] = []
    loads: List[int] = []
    run, finish, contains = _DISPATCH[type(policy)](compiled, policy, record, loads)
    one_item, one_block, one_dense = [0], [0], [0]

    def step(index: int) -> Tuple[int, int]:
        one_item[0] = items[index]
        one_block[0] = blocks[index]
        one_dense[0] = dense[index]
        run(one_item, one_block, one_dense)
        code = record.pop()
        return (code, loads.pop()) if code == KIND_MISS else (code, 0)

    name = getattr(policy, "name", type(policy).__name__)
    return Stepper(step, contains, finish, name, policy.capacity)


def _batch_result(
    policy_name: str,
    capacity: int,
    trace: Trace,
    accesses: int,
    misses: int,
    temporal: int,
    spatial: int,
    loaded: int,
    evicted: int,
) -> SimResult:
    """Assemble one kernel or Mattson replay's :class:`SimResult`."""
    result = SimResult(policy=policy_name, capacity=capacity)
    result.metadata.update(trace.scalar_metadata())
    result.accesses = accesses
    result.misses = misses
    result.temporal_hits = temporal
    result.spatial_hits = spatial
    result.loaded_items = loaded
    result.evicted_items = evicted
    return result


# -- batched multi-capacity replay -------------------------------------------

#: Stack (inclusion) policies with a batched multi-capacity kernel.
MULTI_CAPACITY_POLICIES: Tuple[str, ...] = ("block-lru", "item-lru")


def _uniform_block_size(trace: Trace) -> Optional[int]:
    """Common size of every *referenced* block, or ``None`` if ragged."""
    bt = trace.block_trace()
    if bt.size == 0:
        return int(trace.mapping.max_block_size)
    mapping = trace.mapping
    if isinstance(mapping, FixedBlockMapping):
        # Block sizes never grow with the block id (only the universe's
        # last block can be short), so the extremes decide.
        B = mapping.max_block_size
        sizes = np.minimum(B, mapping.universe - np.array([bt.min(), bt.max()]) * B)
    else:
        sizes = np.asarray(
            [len(mapping.items_in(int(b))) for b in np.unique(bt[run_heads(bt)])],
            dtype=np.int64,
        )
    first = int(sizes[0])
    return first if bool((sizes == first).all()) else None


def _valid_capacities(capacities: Sequence[int]) -> bool:
    if not len(list(capacities)):
        return False
    return all(
        isinstance(k, int) and not isinstance(k, bool) and k >= 1
        for k in capacities
    )


def _slot_size(
    policy_name: str, trace: Trace, capacities: Sequence[int]
) -> Optional[int]:
    """Items per cache slot of a batched replay (1 for Item-LRU, the
    common block size for Block-LRU), or ``None`` when not covered."""
    if policy_name not in MULTI_CAPACITY_POLICIES:
        return None
    if not _valid_capacities(capacities):
        return None
    if policy_name == "item-lru":
        return 1
    size = _uniform_block_size(trace)
    if size is None or min(capacities) < size:
        return None
    return size


def multi_capacity_supported(
    policy_name: str, trace: Trace, capacities: Sequence[int]
) -> bool:
    """Whether :func:`multi_capacity_replay` covers this configuration.

    Item-LRU is a stack policy outright.  Block-LRU reduces to a stack
    policy over the block projection only when every referenced block
    has one common size ``S`` and every capacity is at least ``S`` (so
    no block load is ever trimmed and a capacity-``k`` cache holds
    exactly ``k // S`` blocks); ragged partitions or sub-block
    capacities fall back to per-capacity replay.
    """
    return _slot_size(policy_name, trace, capacities) is not None


def _multi_capacity_item_lru(
    trace: Trace, caps: List[int], record: Optional[Dict[int, List[int]]]
) -> Dict[int, SimResult]:
    n = int(trace.items.size)
    dist = stack_distances(trace.items)
    n_distinct = int((dist < 0).sum())  # one cold access per distinct item
    finite = dist[dist >= 0]
    top = max(caps)
    hist = np.bincount(np.minimum(finite, top), minlength=top + 1)
    cum_hits = np.cumsum(hist)  # cum_hits[j] = #{0 <= dist <= j}
    out: Dict[int, SimResult] = {}
    for k in caps:
        hits = int(cum_hits[k - 1])  # k <= top, so k-1 always indexes
        misses = n - hits
        out[k] = _batch_result(
            "item-lru",
            k,
            trace,
            accesses=n,
            misses=misses,
            temporal=hits,  # item caches never side-load: no spatial hits
            spatial=0,
            loaded=misses,
            evicted=misses - min(n_distinct, k),
        )
        if record is not None:
            record[k] = np.where((dist < 0) | (dist >= k), KIND_MISS, KIND_TEMPORAL).tolist()
    return out


def _multi_capacity_block_lru(
    trace: Trace,
    caps: List[int],
    size: int,
    record: Optional[Dict[int, List[int]]],
) -> Dict[int, SimResult]:
    n = int(trace.items.size)
    # Every capacity holds at least one block, so an access in the same
    # block as its predecessor always hits: only run heads can miss,
    # and the taxonomy below is priced once per block run.
    bt = trace.block_trace()
    heads, order, head_dist = head_distances(bt)
    runs = int(heads.size)
    # Run heads grouped by block, time-ascending within each group (the
    # Mattson pass's own sort order); the per-capacity "last reload"
    # scans run in this layout, where each block owns a disjoint key
    # range (positions offset by ``base``).
    head_pos = heads[order]
    bdist = head_dist[order]
    p_item = occurrences(trace.items)[1]
    distinct_blocks = int((bdist < 0).sum())
    grp_start = np.ones(runs, dtype=bool)
    grp_start[1:] = bt[head_pos[1:]] != bt[head_pos[:-1]]
    base = (np.cumsum(grp_start) - 1) * (n + 1)
    head_key = head_pos + base
    no_reload = base - 1
    floor = no_reload[grp_start]
    p_head = p_item[head_pos] + base
    # A run's tail accesses all hit and read its head's grouped slot.
    tails = np.ones(n, dtype=bool)
    tails[heads] = False
    slot = np.empty(runs, dtype=np.int64)
    slot[order] = np.arange(runs, dtype=np.int64)
    tail_slot = np.repeat(slot, np.diff(heads, append=n) - 1)
    p_tail = p_item[tails] + base[tail_slot]
    out: Dict[int, SimResult] = {}
    for k in caps:
        slots = k // size
        miss = (bdist < 0) | (bdist >= slots)
        misses = int(miss.sum())
        # upto[r] = key of the latest same-block miss (block reload) at
        # or before head r; before[r] the latest strictly before it,
        # which every hit has, since a resident block was necessarily
        # loaded by an earlier miss.  Segmented running max over the
        # grouped layout.
        upto = np.maximum.accumulate(np.where(miss, head_key, no_reload))
        before = np.empty(runs, dtype=np.int64)
        before[1:] = upto[:-1]
        before[grp_start] = floor
        # Spatial hit iff the item's own previous access predates the
        # block's latest reload: the item rode in as a side-load and
        # this is its first touch since (the referee's pending set).
        spatial_head = ~miss & (p_head < before)
        spatial_tail = p_tail < upto[tail_slot]
        spatial = int(spatial_head.sum()) + int(spatial_tail.sum())
        temporal = n - misses - spatial
        loaded = misses * size
        evicted = loaded - size * min(distinct_blocks, slots)
        out[k] = _batch_result(
            "block-lru",
            k,
            trace,
            accesses=n,
            misses=misses,
            temporal=temporal,
            spatial=spatial,
            loaded=loaded,
            evicted=evicted,
        )
        if record is not None:
            codes = np.empty(n, dtype=np.int64)
            codes[head_pos] = np.where(
                spatial_head,
                KIND_SPATIAL,
                np.where(miss, KIND_MISS, KIND_TEMPORAL),
            )
            codes[tails] = np.where(spatial_tail, KIND_SPATIAL, KIND_TEMPORAL)
            record[k] = codes.tolist()
    return out


def multi_capacity_replay(
    policy_name: str,
    trace: Trace,
    capacities: Sequence[int],
    record: Optional[Dict[int, List[int]]] = None,
) -> Dict[int, SimResult]:
    """One-pass replay of a stack policy at every capacity at once.

    Computes stack distances once (item granularity for Item-LRU, block
    granularity for Block-LRU) and derives, per capacity, the complete
    :class:`SimResult` — including the temporal/spatial hit taxonomy —
    bit-identical to :func:`fast_simulate` per cell (proven by
    :mod:`repro.core.conformance` and the golden fixtures).  ``record``,
    if given, is filled with ``capacity -> per-access outcome codes``
    streams for the conformance harness.

    Raises :class:`ConfigurationError` when the configuration is not
    supported — gate calls with :func:`multi_capacity_supported`.
    """
    size = _slot_size(policy_name, trace, capacities)
    if size is None:
        raise ConfigurationError(
            f"multi-capacity replay does not cover policy={policy_name!r} "
            f"capacities={list(capacities)!r} on this trace "
            f"(supported policies: {', '.join(MULTI_CAPACITY_POLICIES)}; "
            "block-lru additionally needs a uniform referenced-block "
            "size <= every capacity)"
        )
    caps = sorted(set(int(k) for k in capacities))
    with spans.span(
        "fast.multi_capacity", policy=policy_name, capacities=len(caps)
    ):
        if policy_name == "item-lru":
            return _multi_capacity_item_lru(trace, caps, record)
        return _multi_capacity_block_lru(trace, caps, size, record)


# -- single-pass multi-policy replay -----------------------------------------

#: A cell is ``(policy_name, capacity)`` or
#: ``(policy_name, capacity, policy_kwargs)``.
_Cell = Tuple[str, int, Dict[str, object]]


def _normalize_cells(cells) -> List[_Cell]:
    norm: List[_Cell] = []
    for cell in cells:
        if isinstance(cell, dict):
            kwargs = dict(cell)
            try:
                name = kwargs.pop("policy")
                cap = kwargs.pop("capacity")
            except KeyError as exc:
                raise ConfigurationError(
                    f"multi-policy cell {cell!r} lacks {exc.args[0]!r}"
                ) from None
        else:
            parts = tuple(cell)
            if len(parts) == 2:
                name, cap = parts
                kwargs = {}
            elif len(parts) == 3:
                name, cap, kwargs = parts
                kwargs = dict(kwargs or {})
            else:
                raise ConfigurationError(
                    "multi-policy cells are (policy, capacity) or "
                    f"(policy, capacity, kwargs); got {cell!r}"
                )
        norm.append((name, cap, kwargs))
    return norm


def multi_policy_supported(cells, trace: Trace) -> bool:
    """Whether :func:`multi_policy_replay` covers every cell.

    True when each cell names a registered policy whose exact class has
    a kernel (see :data:`FAST_POLICY_NAMES`) with a valid integer
    capacity.  Policy kwargs are not validated here — a bad kwarg
    raises the same :class:`ConfigurationError` the per-cell path
    would, at replay time.
    """
    try:
        norm = _normalize_cells(cells)
    except (ConfigurationError, TypeError):
        return False
    for name, cap, _kwargs in norm:
        cls = policy_class(name)
        if cls is None or cls not in _DISPATCH:
            return False
        if not isinstance(cap, int) or isinstance(cap, bool) or cap < 1:
            return False
    return True


def _copy_result(res: SimResult) -> SimResult:
    dup = SimResult(policy=res.policy, capacity=res.capacity)
    dup.metadata.update(res.metadata)
    dup.accesses = res.accesses
    dup.misses = res.misses
    dup.temporal_hits = res.temporal_hits
    dup.spatial_hits = res.spatial_hits
    dup.loaded_items = res.loaded_items
    dup.evicted_items = res.evicted_items
    return dup


def multi_policy_replay(
    cells,
    trace: Trace,
    record: Optional[Dict[int, List[int]]] = None,
    chunk: int = MULTI_POLICY_CHUNK,
) -> List[SimResult]:
    """Replay many policies over ``trace`` in one shared traversal.

    ``cells`` is a sequence of ``(policy_name, capacity)`` or
    ``(policy_name, capacity, policy_kwargs)``; the returned list holds
    one :class:`SimResult` per cell, in input order, each bit-identical
    to ``simulate(make_policy(...), trace, fast=True)`` (proven by
    :func:`repro.core.conformance.check_multi_policy` and the golden
    fixtures).  Policy replicas are built from ``trace.mapping``, so
    every kernel applies by construction.

    Kwarg-free ``item-lru``/``block-lru`` groups of two or more cells
    collapse into one Mattson pass (:func:`multi_capacity_replay`) when
    eligible, and every remaining cell becomes a kernel stepper.  Only
    then is the trace compiled (once, and not at all when Mattson took
    every cell).  The steppers advance in lockstep over ``chunk``-sized
    slices of the compiled arrays — the decode, block-mapping, and
    load-set tables are shared and each slice stays cache-warm across
    all kernels, which is what makes a 20-policy matrix cost one
    traversal instead of twenty.  A lone stepper takes the trace in one
    slice, exactly as :func:`fast_simulate` does.

    ``record``, if given, is filled with ``cell index -> per-access
    outcome codes`` for the conformance harness.  Randomized policies
    keep their generators in kernel closures, so results do not depend
    on ``chunk``.

    Raises :class:`ConfigurationError` when a cell is not covered —
    gate with :func:`multi_policy_supported`.
    """
    norm = _normalize_cells(cells)
    if not multi_policy_supported(norm, trace):
        bad = [
            name
            for name, _c, _k in norm
            if policy_class(name) is None or policy_class(name) not in _DISPATCH
        ]
        raise ConfigurationError(
            f"multi-policy replay does not cover cells={norm!r} "
            f"(policies without kernels: {sorted(set(bad))!r}; "
            f"kernel coverage: {', '.join(FAST_POLICY_NAMES)})"
        )
    results: List[Optional[SimResult]] = [None] * len(norm)
    with spans.span("fast.multi_policy", cells=len(norm)) as sp:
        if sp is not None:
            sp.set("accesses", len(trace))
        # Kwarg-free stack-policy groups of >= 2 cells share one
        # Mattson pass (a single cell is cheaper on its stepper).
        groups: Dict[str, List[int]] = {}
        for i, (name, _cap, kwargs) in enumerate(norm):
            if not kwargs and name in MULTI_CAPACITY_POLICIES:
                groups.setdefault(name, []).append(i)
        for name, idxs in groups.items():
            caps = [norm[i][1] for i in idxs]
            if len(idxs) < 2 or not multi_capacity_supported(name, trace, caps):
                continue
            rec: Optional[Dict[int, List[int]]] = (
                {} if record is not None else None
            )
            batch = multi_capacity_replay(name, trace, caps, record=rec)
            seen: set = set()
            for i in idxs:
                cap = norm[i][1]
                res = batch[cap]
                # Duplicate-capacity cells get independent copies so no
                # two rows alias one mutable result.
                results[i] = _copy_result(res) if cap in seen else res
                seen.add(cap)
                if record is not None:
                    record[i] = rec[cap]
        remaining = [i for i in range(len(norm)) if results[i] is None]
        if sp is not None:
            sp.set("mattson_cells", len(norm) - len(remaining))
        if remaining:
            # Every remaining cell becomes a stepper over the shared arrays.
            kernels: List[Tuple[object, _Record, _Record]] = []
            for i in remaining:
                name, cap, kwargs = norm[i]
                cell_rec: _Record = [] if record is not None else None
                if cell_rec is not None:
                    record[i] = cell_rec
                policy = make_policy(name, cap, trace.mapping, **kwargs)
                kernels.append((policy, cell_rec, None))
            compiled = compile_trace(trace)
            counts = _replay_steppers(
                compiled, kernels, chunk if len(kernels) > 1 else None, sp
            )
            for i, cell_counts in zip(remaining, counts):
                results[i] = _batch_result(
                    norm[i][0], norm[i][1], trace, compiled.n, *cell_counts
                )
    return results  # type: ignore[return-value]
