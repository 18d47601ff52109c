"""Composite workloads mixing temporal and spatial locality.

The interesting regime for IBLP is *mixed* locality: a hot set served
by the item layer while streaming blocks flow through the block layer.
These generators build exactly that, plus generic interleavers for
ablation studies.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.mapping import FixedBlockMapping
from repro.core.raw_stream import generator_stream
from repro.core.trace import Trace
from repro.errors import ConfigurationError, TraceFormatError

__all__ = ["hot_and_stream", "interleave", "phase_mixture"]


def hot_and_stream(
    length: int,
    hot_items: int,
    stream_blocks: int,
    block_size: int = 8,
    hot_fraction: float = 0.5,
    zipf_alpha: float = 0.8,
    scatter_hot: bool = True,
    seed: int = 0,
) -> Trace:
    """Hot Zipf items interleaved with a streaming whole-block scan.

    The canonical IBLP motivation (§5.1): the hot set rewards an item
    layer; the stream rewards a block layer; either baseline alone
    sacrifices one side.  With ``scatter_hot`` (default) each hot item
    sits in its *own* block — a Block Cache then wastes ``B-1`` slots
    per hot item (Theorem 3's pollution), while an Item Cache pays for
    every streamed item (Theorem 2's blindness).  With
    ``scatter_hot=False`` the hot set is packed into the first
    ``⌈hot_items/B⌉`` blocks (block-cache-friendly).
    """
    if not 0.0 <= hot_fraction <= 1.0:
        raise ConfigurationError(
            f"hot_fraction must be in [0, 1], got {hot_fraction}"
        )
    if hot_items < 1 or stream_blocks < 1:
        raise ConfigurationError("need at least one hot item and stream block")
    if not math.isfinite(zipf_alpha):
        raise ConfigurationError(f"zipf_alpha must be finite, got {zipf_alpha}")
    hot_blocks = hot_items if scatter_hot else -(-hot_items // block_size)
    universe = (hot_blocks + stream_blocks) * block_size
    mapping = FixedBlockMapping(universe=universe, block_size=block_size)
    ranks = np.arange(1, hot_items + 1, dtype=float)
    weights = ranks**-zipf_alpha
    weights /= weights.sum()
    # One hot item per block (block-local offset 0), or packed.
    hot_stride = block_size if scatter_hot else 1
    stream_start = hot_blocks * block_size
    stream_len = stream_blocks * block_size
    stream = generator_stream(seed, bound=0)  # no integer draws
    random, pick = stream.random, stream.weighted(weights)
    accesses = np.empty(length, dtype=np.int64)
    cursor = 0
    for pos in range(length):
        if random() < hot_fraction:
            accesses[pos] = pick() * hot_stride
        else:
            accesses[pos] = stream_start + cursor
            cursor = (cursor + 1) % stream_len
    return Trace(
        accesses,
        mapping,
        {
            "generator": "hot_and_stream",
            "hot_items": hot_items,
            "hot_fraction": hot_fraction,
            "seed": seed,
        },
    )


def interleave(traces: Sequence[Trace], pattern: Sequence[int]) -> Trace:
    """Interleave traces over a shared mapping by a repeating pattern.

    ``pattern`` lists trace indices, e.g. ``[0, 0, 1]`` takes two
    accesses from trace 0 then one from trace 1, cycling until any
    source is exhausted.  All traces must share universe and block
    size.
    """
    if not traces:
        raise ConfigurationError("need at least one trace")
    first = traces[0].mapping
    for t in traces[1:]:
        if (
            t.mapping.universe != first.universe
            or t.mapping.max_block_size != first.max_block_size
        ):
            raise TraceFormatError("interleaved traces must share a mapping")
    if not pattern or any(not 0 <= p < len(traces) for p in pattern):
        raise ConfigurationError("pattern must index into the trace list")
    cursors = [0] * len(traces)
    out: list[int] = []
    while True:
        for idx in pattern:
            if cursors[idx] >= len(traces[idx]):
                return Trace(
                    np.asarray(out, dtype=np.int64),
                    first,
                    {"generator": "interleave", "pattern": list(pattern)},
                )
            out.append(int(traces[idx].items[cursors[idx]]))
            cursors[idx] += 1


def phase_mixture(
    segments: Sequence[Trace], repeats: int = 1
) -> Trace:
    """Concatenate trace segments (phase changes), repeated.

    Useful for regime-shift experiments: e.g. a Zipf phase followed by
    a scan phase stresses a policy's adaptivity.
    """
    if not segments:
        raise ConfigurationError("need at least one segment")
    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
    first = segments[0].mapping
    for seg in segments[1:]:
        if (
            seg.mapping.universe != first.universe
            or seg.mapping.max_block_size != first.max_block_size
        ):
            raise TraceFormatError("mixture segments must share a mapping")
    items = np.concatenate(
        [seg.items for _ in range(repeats) for seg in segments]
    )
    return Trace(items, first, {"generator": "phase_mixture", "repeats": repeats})
