"""One seeded draw stream for the randomized replay kernels.

The randomized policies (the GCM family and ``item-random``) draw from
``numpy.random.default_rng(seed)`` through two calls:
``Generator.integers(n)`` for a victim index and list
``Generator.shuffle`` for GCM's neighbour order.  Each scalar numpy
call costs microseconds of dispatch, which dominated the GCM kernels.
:class:`RawStream` replays the same two calls in pure Python over
blocks of ``bit_generator.random_raw(4096)`` values, so a kernel pays
list indexing and integer arithmetic per draw instead:

* PCG64's ``next_uint32`` hands out the low 32-bit half of a raw
  64-bit output first and keeps the high half for the next call.  The
  stream splits each refill block into its halves in that order, so
  a carried high half is always consumed before the next refill.
* ``integers(n)`` is numpy's 32-bit Lemire rejection for
  ``2 <= n < 2**32`` (``n == 1`` draws nothing).
* ``shuffle(x)`` is numpy's untyped list path: for ``i = len(x)-1 .. 1``
  draw ``j`` by masked rejection (``mask = (1 << i.bit_length()) - 1``)
  and swap ``x[i], x[j]``.

numpy does not promise that Generator streams stay stable across
releases (NEP 19), so the replica is trusted only after a once-per-
process self-check against numpy on a fixed mixed sequence
(:func:`raw_stream_ok`).  :func:`draw_stream` is the only constructor
the kernels use: it returns the replica when the check passed and the
draw bound fits the 32-bit path (``capacity < 2**32``; no draw bound
exceeds the capacity), and otherwise :class:`NumpyStream`, a thin
adapter over the numpy generator itself.  Both expose
``integers(n) -> int`` and ``shuffle(list)``, so kernel bodies have one
draw path.  The referee keeps numpy and stays the oracle.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

__all__ = [
    "RawStream",
    "NumpyStream",
    "draw_stream",
    "stream_kind",
    "raw_stream_ok",
]

#: 64-bit outputs fetched per refill (two 32-bit halves each).
RAW_BLOCK = 4096

_LOW32 = 0xFFFFFFFF
_TWO32 = 1 << 32


def _mask_table(n: int) -> List[int]:
    """``table[i]`` is the smallest all-ones mask covering ``i`` — the
    shuffle's rejection mask for step ``i``."""
    return [(1 << i.bit_length()) - 1 for i in range(n)]


#: Masks for lists of up to 256 items (block-sized lists); longer
#: lists build their own table.
_MASKS = _mask_table(256)


class RawStream:
    """Pure-Python replica of a seeded PCG64 ``Generator``'s
    ``integers(n)`` and list ``shuffle`` — see the module docstring."""

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


class NumpyStream:
    """The numpy generator behind the :class:`RawStream` interface."""

    __slots__ = ("_integers", "shuffle")

    def __init__(self, seed) -> None:
        rng = np.random.default_rng(seed)
        self._integers = rng.integers
        self.shuffle = rng.shuffle

    def integers(self, n: int) -> int:
        return int(self._integers(n))


#: Bounds the self-check cycles through: the Lemire edge cases (2,
#: powers of two, the 32-bit maximum) and uneven bounds in between.
_CHECK_BOUNDS = (1, 2, 3, 7, 8, 100, 1000, 12345, 2**31, 2**31 + 1, 2**32 - 1)


def _self_check() -> bool:
    """Whether :class:`RawStream` reproduces numpy on a fixed sequence.

    Mixes ``integers`` over :data:`_CHECK_BOUNDS` with shuffles of
    lengths 0..69 — about 9k 32-bit draws, so the sequence also
    crosses a refill boundary.
    """
    raw, ref = RawStream(20220611), np.random.default_rng(20220611)
    for k in range(200):
        n = _CHECK_BOUNDS[k % len(_CHECK_BOUNDS)]
        if raw.integers(n) != int(ref.integers(n)):
            return False
        a, b = list(range(k % 70)), list(range(k % 70))
        raw.shuffle(a)
        ref.shuffle(b)
        if a != b:
            return False
    return True


_raw_ok: Optional[bool] = None


def raw_stream_ok() -> bool:
    """The cached result of the replica's self-check (run on first use)."""
    global _raw_ok
    if _raw_ok is None:
        _raw_ok = _self_check()
    return _raw_ok


def stream_kind(capacity: int) -> str:
    """``"raw"`` or ``"numpy"``: which stream :func:`draw_stream` builds
    for a kernel of this capacity."""
    return "raw" if capacity < _TWO32 and raw_stream_ok() else "numpy"


def draw_stream(seed, capacity: int):
    """The draw stream for a randomized kernel seeded with ``seed``.

    Draw-for-draw identical to ``numpy.random.default_rng(seed)``'s
    ``integers``/``shuffle`` either way (see the module docstring).
    """
    if stream_kind(capacity) == "raw":
        return RawStream(seed)
    return NumpyStream(seed)
