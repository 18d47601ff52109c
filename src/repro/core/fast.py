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
consume the *same* :class:`numpy.random.Generator` method sequence as
the referee, so seeded runs are bit-identical, not just statistically
equivalent.

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
Each kernel is a *stepper factory* ``f(compiled, policy, record) ->
(run, finish)``: all replay state lives in the factory's closure,
``run(items, blocks, dense)`` advances the policy over one contiguous
chunk of accesses (the full trace is just one big chunk), and
``finish()`` returns the final counters.  Both replay entry points
drive kernels through one stepper loop: :func:`fast_simulate` calls
``run`` once over the whole compiled trace — the loop body is
identical to a monolithic kernel, so single-policy replay pays nothing
for the factoring — while :func:`multi_policy_replay` interleaves many
``run`` calls over cache-sized chunks of the same compiled arrays,
which is what makes the single-pass multi-policy traversal possible
without per-access dispatch overhead.
"""

from __future__ import annotations

import heapq
import os
from collections import OrderedDict
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.telemetry import spans
from repro.core.mapping import FixedBlockMapping
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
        self.block_members: Dict[int, Tuple[int, ...]] = {}
        self.item_block: Dict[int, int] = {}
        for blk in np.unique(blocks_arr).tolist():
            members = tuple(trace.mapping.items_in(blk))
            self.block_members[blk] = members
            for member in members:
                self.item_block[member] = blk

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
# that receives the same trace unpickled (or arena-attached) per cell
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
#: A kernel factory: closure state + (run, finish) steppers.
_Kernel = Callable[["CompiledTrace", "object", _Record], Tuple[_RunFn, Callable[[], _Counts]]]


# -- item-granularity kernels (no spatial hits possible) --------------------
def _kernel_item_recency(
    ct: CompiledTrace, capacity: int, touch_on_hit: bool, record: _Record
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
        st[0], st[1], st[2], st[3] = size, misses, temporal, evicted

    def finish() -> _Counts:
        return st[1], st[2], 0, st[1], st[3]

    return run, finish


def _kernel_item_mru(ct: CompiledTrace, capacity: int, record: _Record):
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
        st[0], st[1], st[2] = misses, temporal, evicted

    def finish() -> _Counts:
        return st[0], st[1], 0, st[0], st[2]

    return run, finish


def _kernel_item_clock(ct: CompiledTrace, capacity: int, record: _Record):
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

    return run, finish


def _kernel_item_lfu(ct: CompiledTrace, capacity: int, record: _Record):
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
        st[0], st[1], st[2], st[3] = tick, misses, temporal, evicted

    def finish() -> _Counts:
        return st[1], st[2], 0, st[1], st[3]

    return run, finish


def _kernel_item_random(ct: CompiledTrace, capacity: int, seed: int, record: _Record):
    """Seeded random replacement, RNG-identical to
    :class:`~repro.policies.item_other.ItemRandom`.

    One ``rng.integers(len(slots))`` draw per eviction — the same
    method on the same :func:`numpy.random.default_rng` stream the
    referee consumes, so any fixed seed replays bit-identically.  The
    swap-with-last slot compaction mirrors the referee's.
    """
    rng = np.random.default_rng(seed)
    slots: List[int] = []
    resident = bytearray(ct.n_distinct)
    st = [0, 0, 0]  # misses, temporal, evicted

    def run(items: List[int], blocks: List[int], dense: List[int]) -> None:
        misses, temporal, evicted = st
        integers = rng.integers
        _slots, _res = slots, resident
        for it in dense:
            if _res[it]:
                temporal += 1
                if record is not None:
                    record.append(KIND_TEMPORAL)
            else:
                misses += 1
                if len(_slots) >= capacity:
                    idx = int(integers(len(_slots)))
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
        st[0], st[1], st[2] = misses, temporal, evicted

    def finish() -> _Counts:
        return st[0], st[1], 0, st[0], st[2]

    return run, finish


def _kernel_item_twoq(
    ct: CompiledTrace,
    capacity: int,
    probation_fraction: float,
    ghost_fraction: float,
    record: _Record,
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
        st[0], st[1], st[2] = misses, temporal, evicted

    def finish() -> _Counts:
        return st[0], st[1], 0, st[0], st[2]

    return run, finish


def _kernel_marking_lru(ct: CompiledTrace, capacity: int, record: _Record):
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
        st[0], st[1], st[2] = misses, temporal, evicted

    def finish() -> _Counts:
        return st[0], st[1], 0, st[0], st[2]

    return run, finish


# -- block-granularity kernels (referee hit-taxonomy replicated) ------------
def _kernel_gcm(
    ct: CompiledTrace,
    capacity: int,
    seed: int,
    mark_side_loads: bool,
    max_load: Optional[int],
    record: _Record,
):
    """Granularity-Change Marking family (§6.1), RNG bit-identical.

    Replays :class:`~repro.policies.marking._GCMBase` verbatim on
    original item ids: the same ``sorted()`` candidate orderings, the
    same ``rng.integers``/``rng.shuffle`` call sequence on the same
    seeded generator, the same churn algebra (a same-block step-1
    victim can be re-loaded as a neighbour) and the engine's
    spatial-pending classification.  ``mark_side_loads`` selects
    gcm vs gcm-markall; ``max_load`` is gcm-partial's dial.

    The referee materialises and sorts the candidate set per eviction
    (``sorted(res - mk)[rng.integers(n)]`` — O(k log k) per miss).
    The kernel answers the same query as a *rank selection*: the draw
    ``idx = rng.integers(n)`` picks the ``(idx+1)``-th smallest
    candidate id, which two Fenwick trees over original item ids
    (resident / unmarked-resident membership) select in O(log U).
    The RNG argument is the candidate *count* and the selected id is
    the same order statistic, so the draw sequence and every victim
    are bit-identical to the referee — only the cost changes.
    """
    rng = np.random.default_rng(seed)
    resident: set = set()
    marked: set = set()
    pending: set = set()  # side-loaded residents not yet hit
    members_of = ct.block_members
    # Fenwick (binary-indexed) membership trees over original item ids;
    # ``item_block`` covers every id a GCM replay can ever load.
    n_ids = (max(ct.item_block) + 1) if ct.item_block else 1
    rtree = [0] * (n_ids + 1)  # all residents
    utree = [0] * (n_ids + 1)  # unmarked residents (phase candidates)
    top = 1
    while (top << 1) <= n_ids:
        top <<= 1
    fw = [0, 0]  # (resident count, unmarked count) across chunks

    def fw_add(tree: List[int], i: int, d: int) -> None:
        i += 1
        while i <= n_ids:
            tree[i] += d
            i += i & -i

    def fw_select(tree: List[int], k: int) -> int:
        """The item id holding rank ``k`` (1-based k-th smallest)."""
        pos = 0
        bit = top
        while bit:
            nxt = pos + bit
            if nxt <= n_ids and tree[nxt] < k:
                pos = nxt
                k -= tree[nxt]
            bit >>= 1
        return pos

    st = [0, 0, 0, 0, 0]  # misses, temporal, spatial, loaded_n, evicted_n

    def run(items: List[int], blocks: List[int], dense: List[int]) -> None:
        misses, temporal, spatial, loaded_n, evicted_n = st
        rcount, ucount = fw
        integers, shuffle = rng.integers, rng.shuffle
        res, mk, pend = resident, marked, pending
        for it, blk in zip(items, blocks):
            if it in res:
                if it not in mk:
                    mk.add(it)
                    fw_add(utree, it, -1)
                    ucount -= 1
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
            # referee's ``sorted(res - mk)[idx]`` selected by rank.
            if rcount >= capacity:
                if ucount == 0:
                    mk.clear()  # phase ends: all residents candidates
                    utree[:] = rtree
                    ucount = rcount
                victim = fw_select(utree, int(integers(ucount)) + 1)
                fw_add(utree, victim, -1)
                ucount -= 1
                fw_add(rtree, victim, -1)
                rcount -= 1
                res.discard(victim)
                evicted.add(victim)
            res.add(it)
            mk.add(it)
            loaded.add(it)
            fw_add(rtree, it, 1)
            rcount += 1
            # 2. Bring in the rest of the block, replacing unmarked
            # items (never this access's own loads).
            neighbours = [x for x in members_of[blk] if x not in res]
            if neighbours:
                shuffle(neighbours)
            if max_load is not None:
                neighbours = neighbours[: max_load - 1]
            side_loaded: List[int] = []
            for nb in neighbours:
                if rcount >= capacity:
                    # Referee candidates = res - mk - loaded.  This
                    # access's unmarked side loads enter ``utree`` only
                    # after the loop, so the tree holds exactly that
                    # set and ``ucount`` is the referee's count.
                    if ucount == 0:
                        break
                    victim = fw_select(utree, int(integers(ucount)) + 1)
                    fw_add(utree, victim, -1)
                    ucount -= 1
                    fw_add(rtree, victim, -1)
                    rcount -= 1
                    res.discard(victim)
                    evicted.add(victim)
                res.add(nb)
                loaded.add(nb)
                fw_add(rtree, nb, 1)
                rcount += 1
                if mark_side_loads:
                    mk.add(nb)
                else:
                    side_loaded.append(nb)
            # Deferred: this access's unmarked side loads become
            # eviction candidates for later accesses only.
            for nb in side_loaded:
                fw_add(utree, nb, 1)
            ucount += len(side_loaded)
            # (The referee's ``marked &= resident`` is a no-op: victims
            # are always unmarked at eviction time.)
            churn = loaded & evicted
            eff_loaded = loaded - churn
            eff_evicted = evicted - churn
            misses += 1
            loaded_n += len(eff_loaded)
            evicted_n += len(eff_evicted)
            pend -= eff_evicted
            for member in eff_loaded:
                if member != it:
                    pend.add(member)
                else:
                    pend.discard(member)
            if record is not None:
                record.append(KIND_MISS)
        st[0], st[1], st[2], st[3], st[4] = (
            misses,
            temporal,
            spatial,
            loaded_n,
            evicted_n,
        )
        fw[0], fw[1] = rcount, ucount

    def finish() -> _Counts:
        return st[0], st[1], st[2], st[3], st[4]

    return run, finish


def _kernel_block(
    ct: CompiledTrace, capacity: int, touch_on_hit: bool, record: _Record
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
            load_set = set(load)
            churn = load_set & evicted
            eff_loaded = load_set - churn
            eff_evicted = evicted - churn
            misses += 1
            loaded_n += len(eff_loaded)
            evicted_n += len(eff_evicted)
            pend -= eff_evicted
            for member in eff_loaded:
                if member != it:
                    pend.add(member)
                else:
                    pend.discard(member)
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

    return run, finish


def _kernel_iblp(
    ct: CompiledTrace,
    capacity: int,
    item_layer_size: int,
    block_first: bool,
    record: _Record,
):
    """IBLP (canonical and block-first ablation) with union refcounting.

    ``block_first`` reproduces
    :class:`~repro.policies.iblp.BlockFirstIBLP`: the block layer's
    recency is refreshed on *every* access to a resident block — §5.1's
    pollution hazard — before the item layer is consulted.
    """
    ils = item_layer_size
    bls = capacity - ils
    items_d: Dict[int, None] = {}  # item layer, insertion order = LRU→MRU
    blocks_d: Dict[int, Tuple[int, ...]] = {}  # block layer
    refcount: Dict[int, int] = {}  # item -> number of layers holding it
    occupancy_cell = [0]  # item slots used by the block layer
    pending: set = set()
    members_of = ct.block_members
    st = [0, 0, 0, 0, 0]  # misses, temporal, spatial, loaded_n, evicted_n

    def acquire(x: int, loaded: set) -> None:
        n = refcount.get(x, 0)
        refcount[x] = n + 1
        if n == 0:
            loaded.add(x)

    def release(x: int, evicted: set) -> None:
        n = refcount[x] - 1
        if n:
            refcount[x] = n
        else:
            del refcount[x]
            evicted.add(x)

    def item_insert(x: int, loaded: set, evicted: set) -> None:
        if ils == 0:
            return
        if x in items_d:
            items_d[x] = items_d.pop(x)
            return
        if len(items_d) >= ils:
            victim = next(iter(items_d))
            del items_d[victim]
            release(victim, evicted)
        items_d[x] = None
        acquire(x, loaded)

    def block_insert(blk: int, x: int, loaded: set, evicted: set) -> None:
        if bls == 0:
            return
        if blk in blocks_d:
            stale = blocks_d.pop(blk)
            occupancy_cell[0] -= len(stale)
            for s in stale:
                release(s, evicted)
        members = members_of[blk]
        load = members
        if len(members) > bls:
            keep = [x] + [m for m in members if m != x]
            load = tuple(keep[:bls])
        while occupancy_cell[0] + len(load) > bls:
            victim_block = next(iter(blocks_d))
            victim_items = blocks_d.pop(victim_block)
            occupancy_cell[0] -= len(victim_items)
            for v in victim_items:
                release(v, evicted)
        blocks_d[blk] = load
        occupancy_cell[0] += len(load)
        for member in load:
            acquire(member, loaded)

    def run(items: List[int], blocks: List[int], dense: List[int]) -> None:
        misses, temporal, spatial, loaded_n, evicted_n = st
        pend = pending
        for it, blk in zip(items, blocks):
            if block_first:
                block_hit = blk in blocks_d
                if block_hit:
                    blocks_d[blk] = blocks_d.pop(blk)  # harmful reordering
            if it in items_d:
                items_d[it] = items_d.pop(it)  # pure item-layer hit
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
            if not block_first:
                block_hit = blk in blocks_d
            loaded: set = set()
            evicted: set = set()
            if block_hit and it in refcount:
                # Block-layer hit: refresh recency, promote the item.
                if not block_first:
                    blocks_d[blk] = blocks_d.pop(blk)
                item_insert(it, loaded, evicted)
                loaded.discard(it)  # promoting a resident is not a load
                eff_evicted = evicted - (loaded & evicted)
                evicted_n += len(eff_evicted)
                pend -= eff_evicted
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
            # Full miss: both layers load.
            item_insert(it, loaded, evicted)
            block_insert(blk, it, loaded, evicted)
            churn = loaded & evicted
            eff_loaded = loaded - churn
            eff_evicted = evicted - churn
            misses += 1
            loaded_n += len(eff_loaded)
            evicted_n += len(eff_evicted)
            pend -= eff_evicted
            for member in eff_loaded:
                if member != it:
                    pend.add(member)
                else:
                    pend.discard(member)
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

    return run, finish


def _kernel_iblp_adaptive(
    ct: CompiledTrace,
    capacity: int,
    initial_item_fraction: float,
    ghost_factor: float,
    max_block_size: int,
    record: _Record,
):
    """Adaptive-split IBLP mirroring
    :class:`~repro.policies.adaptive_iblp.AdaptiveIBLP`: ARC-style
    ghost lists move the float layer boundary (+1 per item-ghost hit,
    -B per block-ghost hit), layers shed lazily, and all victims are
    remembered in bounded ghosts — exactly the referee's order of
    operations, so the boundary trajectory is identical.
    """
    items_d: Dict[int, None] = {}
    blocks_d: Dict[int, Tuple[int, ...]] = {}
    refcount: Dict[int, int] = {}
    ghost_items: Dict[int, None] = {}
    ghost_blocks: Dict[int, None] = {}
    ghost_item_cap = max(1, int(capacity * ghost_factor))
    ghost_block_cap = max(1, int(capacity * ghost_factor) // max_block_size)
    pending: set = set()
    members_of = ct.block_members
    # target_i (float) and block occupancy live in cells: the helpers
    # below mutate them across chunk boundaries.
    target = [capacity * initial_item_fraction]
    occ = [0]
    st = [0, 0, 0, 0, 0]  # misses, temporal, spatial, loaded_n, evicted_n

    def acquire(x: int, loaded: set) -> None:
        n = refcount.get(x, 0)
        refcount[x] = n + 1
        if n == 0:
            loaded.add(x)

    def release(x: int, evicted: set) -> None:
        n = refcount[x] - 1
        if n:
            refcount[x] = n
        else:
            del refcount[x]
            evicted.add(x)

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

    def shrink_layers(loaded: set, evicted: set) -> None:
        i_cap = int(target[0])
        b_cap = capacity - i_cap
        while len(items_d) > i_cap:
            victim = next(iter(items_d))
            del items_d[victim]
            remember_item(victim)
            release(victim, evicted)
        while occ[0] > b_cap and blocks_d:
            blk = next(iter(blocks_d))
            members = blocks_d.pop(blk)
            occ[0] -= len(members)
            remember_block(blk)
            for x in members:
                release(x, evicted)

    def promote(x: int, loaded: set, evicted: set) -> None:
        i_cap = int(target[0])
        if i_cap == 0:
            return
        if x in items_d:
            items_d[x] = items_d.pop(x)
            return
        while len(items_d) >= i_cap and items_d:
            victim = next(iter(items_d))
            del items_d[victim]
            remember_item(victim)
            release(victim, evicted)
        items_d[x] = None
        acquire(x, loaded)

    def promote_forced(x: int, loaded: set, evicted: set) -> None:
        if len(items_d) >= max(1, int(target[0])):
            victim = next(iter(items_d))
            del items_d[victim]
            remember_item(victim)
            release(victim, evicted)
        items_d[x] = None
        acquire(x, loaded)

    def insert_block(blk: int, x: int, loaded: set, evicted: set) -> None:
        b_cap = capacity - int(target[0])
        if b_cap == 0:
            # No block layer: ensure the item itself is resident.
            if x not in refcount:
                promote_forced(x, loaded, evicted)
            return
        if blk in blocks_d:
            stale = blocks_d.pop(blk)
            occ[0] -= len(stale)
            for s in stale:
                release(s, evicted)
        members = members_of[blk]
        load = members
        if len(members) > b_cap:
            keep = [x] + [m for m in members if m != x]
            load = tuple(keep[:b_cap])
        while occ[0] + len(load) > b_cap and blocks_d:
            victim_block = next(iter(blocks_d))
            victim_items = blocks_d.pop(victim_block)
            occ[0] -= len(victim_items)
            remember_block(victim_block)
            for v in victim_items:
                release(v, evicted)
        blocks_d[blk] = load
        occ[0] += len(load)
        for member in load:
            acquire(member, loaded)

    def run(items: List[int], blocks: List[int], dense: List[int]) -> None:
        misses, temporal, spatial, loaded_n, evicted_n = st
        pend = pending
        for it, blk in zip(items, blocks):
            if it in items_d:
                items_d[it] = items_d.pop(it)
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
            if blk in blocks_d and it in refcount:
                blocks_d[blk] = blocks_d.pop(blk)
                promote(it, loaded, evicted)
                loaded.discard(it)
                eff_evicted = evicted - (loaded & evicted)
                evicted_n += len(eff_evicted)
                pend -= eff_evicted
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
            # Miss: consult the ghosts to move the boundary first.
            if it in ghost_items:
                del ghost_items[it]
                target[0] = min(float(capacity), target[0] + 1.0)
            elif blk in ghost_blocks:
                del ghost_blocks[blk]
                target[0] = max(0.0, target[0] - float(max_block_size))
            shrink_layers(loaded, evicted)
            promote(it, loaded, evicted)
            insert_block(blk, it, loaded, evicted)
            churn = loaded & evicted
            eff_loaded = loaded - churn
            eff_evicted = evicted - churn
            misses += 1
            loaded_n += len(eff_loaded)
            evicted_n += len(eff_evicted)
            pend -= eff_evicted
            for member in eff_loaded:
                if member != it:
                    pend.add(member)
                else:
                    pend.discard(member)
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

    return run, finish


def _kernel_athreshold(ct: CompiledTrace, capacity: int, a: int, record: _Record):
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
            protect = set(want)
            loaded: set = set()
            evicted: set = set()
            for w in want:
                if len(res) >= capacity:
                    victim = -1
                    for key in order:
                        if key not in protect:
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
                loaded.add(w)
            misses += 1
            loaded_n += len(loaded)
            evicted_n += len(evicted)
            pend -= evicted
            for member in loaded:
                if member != it:
                    pend.add(member)
                else:
                    pend.discard(member)
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

    return run, finish


# -- dispatch ----------------------------------------------------------------
_DISPATCH: Dict[type, _Kernel] = {
    ItemLRU: lambda ct, p, rec: _kernel_item_recency(ct, p.capacity, True, rec),
    ItemFIFO: lambda ct, p, rec: _kernel_item_recency(ct, p.capacity, False, rec),
    ItemMRU: lambda ct, p, rec: _kernel_item_mru(ct, p.capacity, rec),
    ItemClock: lambda ct, p, rec: _kernel_item_clock(ct, p.capacity, rec),
    ItemLFU: lambda ct, p, rec: _kernel_item_lfu(ct, p.capacity, rec),
    ItemRandom: lambda ct, p, rec: _kernel_item_random(ct, p.capacity, p.seed, rec),
    ItemTwoQ: lambda ct, p, rec: _kernel_item_twoq(
        ct, p.capacity, p.probation_fraction, p.ghost_fraction, rec
    ),
    MarkingLRU: lambda ct, p, rec: _kernel_marking_lru(ct, p.capacity, rec),
    GCM: lambda ct, p, rec: _kernel_gcm(ct, p.capacity, p.seed, False, None, rec),
    MarkAllGCM: lambda ct, p, rec: _kernel_gcm(
        ct, p.capacity, p.seed, True, None, rec
    ),
    PartialGCM: lambda ct, p, rec: _kernel_gcm(
        ct, p.capacity, p.seed, False, p.max_load, rec
    ),
    BlockLRU: lambda ct, p, rec: _kernel_block(ct, p.capacity, True, rec),
    BlockFIFO: lambda ct, p, rec: _kernel_block(ct, p.capacity, False, rec),
    IBLP: lambda ct, p, rec: _kernel_iblp(
        ct, p.capacity, p.item_layer_size, False, rec
    ),
    BlockFirstIBLP: lambda ct, p, rec: _kernel_iblp(
        ct, p.capacity, p.item_layer_size, True, rec
    ),
    AdaptiveIBLP: lambda ct, p, rec: _kernel_iblp_adaptive(
        ct,
        p.capacity,
        p.initial_item_fraction,
        p.ghost_factor,
        p.mapping.max_block_size,
        rec,
    ),
    AThresholdLRU: lambda ct, p, rec: _kernel_athreshold(ct, p.capacity, p.a, rec),
}

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


def fast_simulate(policy, trace: Trace, record: _Record = None) -> Optional[SimResult]:
    """Replay ``policy`` over ``trace`` with a kernel, if one applies.

    Returns the referee-identical :class:`SimResult`, or ``None`` when
    the policy has no kernel, is already warm, or its mapping cannot be
    collapsed with the trace's (see the module docstring's fallback
    rules).  ``record``, if given, receives one
    :data:`KIND_MISS`/:data:`KIND_TEMPORAL`/:data:`KIND_SPATIAL` code
    per access — the stream the conformance harness diffs against the
    referee's ``on_access`` observations.  The policy object is never
    mutated.
    """
    if fast_fallback_reason(policy, trace) is not None:
        return None
    name = getattr(policy, "name", type(policy).__name__)
    with spans.span("fast.replay", policy=name, capacity=policy.capacity) as sp:
        compiled = compile_trace(trace)
        if sp is not None:
            sp.set("accesses", compiled.n)
        (counts,) = _replay_steppers(compiled, [(policy, record)], None)
    return _batch_result(name, policy.capacity, trace, compiled.n, *counts)


def _replay_steppers(
    compiled: CompiledTrace, kernels: List[Tuple[object, _Record]], chunk: Optional[int]
) -> List[_Counts]:
    """Advance one kernel stepper per ``(policy, record)`` in lockstep.

    The single stepper loop behind both replay entry points: every
    kernel sees each ``chunk``-sized slice of ``compiled`` before the
    next slice is produced (``None`` hands an in-memory trace over in
    one slice).  Returns each kernel's final counters, in order.
    """
    steppers = [
        _DISPATCH[type(policy)](compiled, policy, rec) for policy, rec in kernels
    ]
    for items_c, blocks_c, dense_c in compiled.iter_chunks(chunk):
        for run, _finish in steppers:
            run(items_c, blocks_c, dense_c)
    return [finish() for _run, finish in steppers]


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
    result.metadata.update(
        {k: v for k, v in trace.metadata.items() if isinstance(v, (str, int, float))}
    )
    result.accesses = accesses
    result.misses = misses
    result.temporal_hits = temporal
    result.spatial_hits = spatial
    result.loaded_items = loaded
    result.evicted_items = evicted
    return result


# -- vectorized stack distances [Mattson et al. 1970] ------------------------
#
# The batched multi-capacity kernels below rest on reuse (stack)
# distances: dist[t] = number of distinct ids referenced since the
# previous access to ids[t] (cold accesses get -1).  An LRU cache of
# capacity k hits access t iff 0 <= dist[t] < k, so one pass prices
# every capacity simultaneously.
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
# searchsorteds) instead of a per-access Fenwick loop.


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


def _prev_occurrence(arr: np.ndarray) -> np.ndarray:
    """Index of the previous access to each id (-1 when cold)."""
    n = int(arr.size)
    prev = np.full(n, -1, dtype=np.int64)
    if n:
        order = np.argsort(arr, kind="stable")
        srt = arr[order]
        same = srt[1:] == srt[:-1]
        prev[order[1:][same]] = order[:-1][same]
    return prev


def stack_distances(ids: Sequence[int] | np.ndarray) -> np.ndarray:
    """LRU reuse (stack) distance of each access; cold accesses get -1.

    ``distance[t]`` is the number of distinct ids seen since the
    previous access to ``ids[t]``; an LRU cache of capacity ``k`` hits
    access ``t`` iff ``0 <= distance[t] < k``.  Fully vectorized — see
    the derivation above :func:`_count_earlier_greater`.
    """
    arr = np.asarray(ids, dtype=np.int64)
    n = int(arr.size)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    with spans.span("fast.mattson", accesses=n):
        prev = _prev_occurrence(arr)
        out = (
            np.arange(n, dtype=np.int64) - prev - 1 - _count_earlier_greater(prev)
        )
        out[prev < 0] = -1
    return out


# -- batched multi-capacity replay -------------------------------------------

#: Stack (inclusion) policies with a batched multi-capacity kernel.
MULTI_CAPACITY_POLICIES: Tuple[str, ...] = ("block-lru", "item-lru")


def _uniform_block_size(trace: Trace) -> Optional[int]:
    """Common size of every *referenced* block, or ``None`` if ragged."""
    bt = trace.block_trace()
    if bt.size == 0:
        return int(trace.mapping.max_block_size)
    blocks = np.unique(bt)
    mapping = trace.mapping
    if isinstance(mapping, FixedBlockMapping):
        B = mapping.max_block_size
        sizes = np.minimum(B, mapping.universe - blocks * B)
    else:
        sizes = np.asarray(
            [len(mapping.items_in(int(b))) for b in blocks], dtype=np.int64
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
    if policy_name not in MULTI_CAPACITY_POLICIES:
        return False
    if not _valid_capacities(capacities):
        return False
    if policy_name == "block-lru":
        size = _uniform_block_size(trace)
        if size is None or min(capacities) < size:
            return False
    return True


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
    trace: Trace, caps: List[int], record: Optional[Dict[int, List[int]]]
) -> Dict[int, SimResult]:
    n = int(trace.items.size)
    size = _uniform_block_size(trace)
    assert size is not None and (not caps or min(caps) >= size)
    bt = trace.block_trace()
    bdist = stack_distances(bt)
    p_item = _prev_occurrence(trace.items)
    distinct_blocks = int((bdist < 0).sum())
    # Accesses grouped by block, time-ascending within each group; the
    # per-capacity "last reload before t" scan runs in this layout.
    order = np.argsort(bt, kind="stable")
    grp_start = np.empty(n, dtype=bool)
    if n:
        grp_start[0] = True
        grp_start[1:] = bt[order][1:] != bt[order][:-1]
    rank = np.cumsum(grp_start) - 1
    base = rank * (n + 1)  # disjoint per-group key ranges
    p_item_sorted = p_item[order]
    out: Dict[int, SimResult] = {}
    for k in caps:
        slots = k // size
        miss = (bdist < 0) | (bdist >= slots)
        misses = int(miss.sum())
        # L[t] = position of the latest same-block miss (block reload)
        # strictly before t; every hit has one, since a resident block
        # was necessarily loaded by an earlier miss.  Segmented running
        # max over the grouped layout, shifted by one slot so each
        # access sees only strictly-earlier reloads.
        key = np.where(miss[order], order, -1) + base
        shifted = np.empty(n, dtype=np.int64)
        if n:
            shifted[0] = base[0] - 1
            shifted[1:] = key[:-1]
            shifted[grp_start] = base[grp_start] - 1
        last_reload = np.maximum.accumulate(shifted) - base
        # Spatial hit iff the item's own previous access predates the
        # block's latest reload: the item rode in as a side-load and
        # this is its first touch since (the referee's pending set).
        hit_sorted = ~miss[order]
        spatial_sorted = hit_sorted & (p_item_sorted < last_reload)
        spatial = int(spatial_sorted.sum())
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
            codes_sorted = np.where(
                ~hit_sorted,
                KIND_MISS,
                np.where(spatial_sorted, KIND_SPATIAL, KIND_TEMPORAL),
            )
            codes = np.empty(n, dtype=np.int64)
            codes[order] = codes_sorted
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
    if not multi_capacity_supported(policy_name, trace, capacities):
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
        return _multi_capacity_block_lru(trace, caps, record)


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
            kernels: List[Tuple[object, _Record]] = []
            for i in remaining:
                name, cap, kwargs = norm[i]
                cell_rec: _Record = [] if record is not None else None
                if cell_rec is not None:
                    record[i] = cell_rec
                policy = make_policy(name, cap, trace.mapping, **kwargs)
                kernels.append((policy, cell_rec))
            compiled = compile_trace(trace)
            counts = _replay_steppers(
                compiled, kernels, chunk if len(kernels) > 1 else None
            )
            for i, cell_counts in zip(remaining, counts):
                results[i] = _batch_result(
                    norm[i][0], norm[i][1], trace, compiled.n, *cell_counts
                )
    return results  # type: ignore[return-value]
