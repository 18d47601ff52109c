"""One seeded draw stream for the randomized kernels and trace generators.

Two kinds of code draw from ``numpy.random.default_rng(seed)`` one
scalar call at a time: the randomized replay kernels (the GCM family
and ``item-random``) and the per-step synthetic trace generators
(:mod:`repro.workloads.spatial`, :mod:`~repro.workloads.mixtures`,
:mod:`~repro.workloads.scenarios`).  Each scalar numpy call costs
microseconds of dispatch — ``choice(a, p=p)`` rebuilds its whole CDF
every call.  :class:`RawStream` replays the same calls in pure Python
over blocks of ``bit_generator.random_raw(4096)`` values, so a draw
costs list indexing and integer arithmetic instead:

* PCG64's ``next_uint32`` hands out the low 32-bit half of a raw
  64-bit output first and keeps the high half for the next call.  The
  stream splits each refill block into its halves in that order, so
  a carried high half is always consumed before the next refill.
* ``integers(n)`` is numpy's 32-bit Lemire rejection for
  ``2 <= n < 2**32`` (``n == 1`` draws nothing).
* ``shuffle(x)`` is numpy's untyped list path: for ``i = len(x)-1 .. 1``
  draw ``j`` by masked rejection (``mask = (1 << i.bit_length()) - 1``)
  and swap ``x[i], x[j]``.  ``permutation(n)`` is ``shuffle`` over
  ``list(range(n))`` (numpy's ndarray shuffle draws the same values).
* ``random()`` is ``Generator.random()``: a whole 64-bit output
  ``>> 11``, times ``2**-53``.  A 64-bit draw leaves a carried high
  half in place, so when one is pending the stream moves it forward
  past the two halves it consumes.
* ``sample(pop, size)`` is ``choice(pop, size, replace=False)`` on
  numpy's Floyd path (``pop <= 10000``): for ``j = pop-size .. pop-1``
  take ``integers(j+1)``, or ``j`` if already taken, then shuffle the
  picks with Lemire draws ``integers(i+1)`` for ``i = size-1 .. 1``.
* ``weighted(p)`` returns a zero-argument pick equal to
  ``choice(len(p), p=p)``: ``p`` is validated and its normalised
  cumulative sum hoisted once, and each pick is a ``bisect_right`` of
  one ``random()``.

numpy does not promise that Generator streams stay stable across
releases (NEP 19), so the replica is trusted only after a once-per-
process self-check against numpy on a fixed mixed sequence
(:func:`raw_stream_ok`).  :func:`draw_stream` is the only constructor:
it returns the replica when the check passed, every integer draw
bound fits the 32-bit path (``bound < 2**32``) and any ``sample``
population stays on Floyd's path; otherwise :class:`NumpyStream`, a
thin adapter over the numpy generator itself.  Both expose the same
calls, so kernel and generator bodies have one draw path.  The referee
keeps numpy and stays the oracle.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, List, Optional

import numpy as np

from repro.telemetry import spans

__all__ = [
    "RawStream",
    "NumpyStream",
    "draw_stream",
    "generator_stream",
    "stream_kind",
    "raw_stream_ok",
]

#: 64-bit outputs fetched per refill (two 32-bit halves each).
RAW_BLOCK = 4096

#: Largest ``sample`` population numpy draws with Floyd's algorithm;
#: larger ones take its tail-shuffle path, which the replica lacks.
FLOYD_MAX_POP = 10000

_LOW32 = 0xFFFFFFFF
_TWO32 = 1 << 32
_TWO_NEG53 = 1.0 / 9007199254740992.0


def _mask_table(n: int) -> List[int]:
    """``table[i]`` is the smallest all-ones mask covering ``i`` — the
    shuffle's rejection mask for step ``i``."""
    return [(1 << i.bit_length()) - 1 for i in range(n)]


#: Masks for lists of up to 256 items (block-sized lists); longer
#: lists build their own table.
_MASKS = _mask_table(256)


def _checked_probabilities(p) -> np.ndarray:
    """``p`` as a float64 vector, validated the way ``choice`` does."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("p must be a non-empty 1-dimensional vector")
    if not np.isfinite(p).all():
        raise ValueError("probabilities must be finite")
    if (p < 0).any():
        raise ValueError("probabilities are not non-negative")
    if abs(float(p.sum()) - 1.0) > np.sqrt(np.finfo(np.float64).eps):
        raise ValueError("probabilities do not sum to 1")
    return p


class RawStream:
    """Pure-Python replica of a seeded PCG64 ``Generator``'s scalar
    draws — see the module docstring."""

    __slots__ = ("_bitgen", "_buf", "_pos")

    def __init__(self, seed) -> None:
        self._bitgen = np.random.default_rng(seed).bit_generator
        self._buf: List[int] = []
        self._pos = 0

    def _refill(self) -> List[int]:
        raw = self._bitgen.random_raw(RAW_BLOCK)
        halves = np.empty(2 * RAW_BLOCK, dtype=np.uint64)
        halves[0::2] = raw & np.uint64(_LOW32)
        halves[1::2] = raw >> np.uint64(32)
        self._buf = buf = halves.tolist()
        self._pos = 0
        return buf

    def _next32(self) -> int:
        pos = self._pos
        try:
            value = self._buf[pos]
        except IndexError:
            value = self._refill()[0]
            pos = 0
        self._pos = pos + 1
        return value

    def integers(self, n: int) -> int:
        """``int(Generator.integers(n))`` for ``1 <= n < 2**32``."""
        if n == 1:
            return 0
        pos = self._pos
        try:
            m = self._buf[pos] * n
        except IndexError:
            m = self._refill()[0] * n
            pos = 0
        self._pos = pos + 1
        if (m & _LOW32) < n:
            threshold = _TWO32 % n
            while (m & _LOW32) < threshold:
                m = self._next32() * n
        return m >> 32

    def random(self) -> float:
        """``Generator.random()``: one 64-bit output, top 53 bits."""
        buf, pos = self._buf, self._pos
        if pos & 1:
            # A high half is carried: the 64-bit draw takes the next
            # output's two halves and the carried one moves up behind it.
            try:
                lo, hi = buf[pos + 1], buf[pos + 2]
            except IndexError:
                carried = buf[pos]
                buf = self._refill()
                lo, hi = buf[0], buf[1]
                buf[1] = carried
                self._pos = 1
                return ((hi << 21) | (lo >> 11)) * _TWO_NEG53
            buf[pos + 2] = buf[pos]
        else:
            try:
                lo, hi = buf[pos], buf[pos + 1]
            except IndexError:
                buf = self._refill()
                lo, hi = buf[0], buf[1]
                pos = 0
        self._pos = pos + 2
        return ((hi << 21) | (lo >> 11)) * _TWO_NEG53

    def shuffle(self, x: list) -> None:
        """``Generator.shuffle(x)`` for a Python list, in place."""
        i = len(x) - 1
        if i < 1:
            return
        masks = _MASKS if i < len(_MASKS) else _mask_table(i + 1)
        buf, pos = self._buf, self._pos
        while True:
            try:
                while i:
                    mask = masks[i]
                    j = buf[pos] & mask
                    pos += 1
                    while j > i:
                        j = buf[pos] & mask
                        pos += 1
                    x[i], x[j] = x[j], x[i]
                    i -= 1
                break
            except IndexError:
                # Block exhausted mid-draw: nothing was consumed by the
                # failed read, so resume the same step on a new block.
                buf = self._refill()
                pos = 0
        self._pos = pos

    def permutation(self, n: int) -> List[int]:
        """``Generator.permutation(n).tolist()``."""
        x = list(range(n))
        self.shuffle(x)
        return x

    def sample(self, pop: int, size: int) -> List[int]:
        """``Generator.choice(pop, size, replace=False).tolist()`` for
        ``pop <= 10000`` (numpy's Floyd path)."""
        integers = self.integers
        picks: List[int] = []
        taken = set()
        for j in range(pop - size, pop):
            v = integers(j + 1)
            if v in taken:
                v = j
            taken.add(v)
            picks.append(v)
        for i in range(size - 1, 0, -1):
            k = integers(i + 1)
            picks[i], picks[k] = picks[k], picks[i]
        return picks

    def weighted(self, p) -> Callable[[], int]:
        """A pick equal to ``int(Generator.choice(len(p), p=p))``."""
        cdf = _checked_probabilities(p).cumsum()
        cdf /= cdf[-1]
        table = cdf.tolist()
        random = self.random
        return lambda: bisect_right(table, random())


class NumpyStream:
    """The numpy generator behind the :class:`RawStream` interface."""

    __slots__ = ("_rng", "_integers", "shuffle", "random")

    def __init__(self, seed) -> None:
        self._rng = rng = np.random.default_rng(seed)
        self._integers = rng.integers
        self.shuffle = rng.shuffle
        self.random = rng.random

    def integers(self, n: int) -> int:
        return int(self._integers(n))

    def permutation(self, n: int) -> List[int]:
        return self._rng.permutation(n).tolist()

    def sample(self, pop: int, size: int) -> List[int]:
        return self._rng.choice(pop, size, replace=False).tolist()

    def weighted(self, p) -> Callable[[], int]:
        p = _checked_probabilities(p)
        choice, n = self._rng.choice, len(p)
        return lambda: int(choice(n, p=p))


#: Bounds the self-check cycles through: the Lemire edge cases (2,
#: powers of two, the 32-bit maximum) and uneven bounds in between.
_CHECK_BOUNDS = (1, 2, 3, 7, 8, 100, 1000, 12345, 2**31, 2**31 + 1, 2**32 - 1)

#: Halves per refill block.
_BLOCK_HALVES = 2 * RAW_BLOCK


def _self_check() -> bool:
    """Whether :class:`RawStream` reproduces numpy on a fixed sequence.

    Mixes ``integers`` over :data:`_CHECK_BOUNDS`, ``random``, shuffles
    of lengths 0..69 and, every fourth step, a Floyd sample and a Zipf
    ``weighted`` pick.  It then lands 64-bit ``random`` draws on the
    last four positions of a block, a carried high half at the very
    end among them, so each step crosses a refill.  It skips ahead to
    each position with one vectorised numpy call: numpy's bounded
    ``integers(2**31, size=m)`` takes exactly ``m`` 32-bit halves.
    """
    raw, ref = RawStream(20220611), np.random.default_rng(20220611)
    zipf = np.arange(1, 51, dtype=np.float64) ** -0.9
    zipf /= zipf.sum()
    pick = raw.weighted(zipf)
    for k in range(200):
        n = _CHECK_BOUNDS[k % len(_CHECK_BOUNDS)]
        if raw.integers(n) != int(ref.integers(n)):
            return False
        if raw.random() != ref.random():
            return False
        a, b = list(range(k % 70)), list(range(k % 70))
        raw.shuffle(a)
        ref.shuffle(b)
        if a != b:
            return False
        if k % 4:
            continue
        pop = 1 + k % 37
        size = k % (pop + 1)
        if raw.sample(pop, size) != ref.choice(pop, size, replace=False).tolist():
            return False
        if pick() != int(ref.choice(len(zipf), p=zipf)):
            return False
    for end in (3, 2, 1, 0):
        skip = _BLOCK_HALVES - end - raw._pos
        if skip < 0:  # past this block's target: skip to the next block
            ref.integers(2**31, size=_BLOCK_HALVES - raw._pos)
            raw._refill()
            skip = _BLOCK_HALVES - end
        ref.integers(2**31, size=skip)
        raw._pos += skip
        for _ in range(3):
            if raw.random() != ref.random() or raw.integers(7) != int(ref.integers(7)):
                return False
    return True


_raw_ok: Optional[bool] = None


def raw_stream_ok() -> bool:
    """The cached result of the replica's self-check (run on first use)."""
    global _raw_ok
    if _raw_ok is None:
        _raw_ok = _self_check()
    return _raw_ok


def stream_kind(bound: int, sample_pop: int = 0) -> str:
    """``"raw"`` or ``"numpy"``: which stream :func:`draw_stream` builds
    for these arguments."""
    fits = bound < _TWO32 and sample_pop <= FLOYD_MAX_POP
    return "raw" if fits and raw_stream_ok() else "numpy"


def draw_stream(seed, bound: int, sample_pop: int = 0):
    """The draw stream seeded with ``seed``.

    ``bound`` is at least every ``integers`` bound and ``shuffle`` or
    ``permutation`` length the caller will use (a kernel passes its
    capacity), ``sample_pop`` at least every ``sample`` population.
    Draw-for-draw identical to ``numpy.random.default_rng(seed)``
    either way (see the module docstring).
    """
    if stream_kind(bound, sample_pop) == "raw":
        return RawStream(seed)
    return NumpyStream(seed)


def generator_stream(seed, bound: int, sample_pop: int = 0):
    """:func:`draw_stream` for a trace generator, which also names the
    stream on the innermost open span (``rng="raw"|"numpy"``)."""
    stream = draw_stream(seed, bound, sample_pop)
    spans.annotate(rng="raw" if isinstance(stream, RawStream) else "numpy")
    return stream
