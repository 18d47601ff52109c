"""Spatially-structured workloads with a tunable ``f/g`` ratio.

The paper's locality model measures spatial locality as ``f(n)/g(n)``
— items per window over blocks per window, between 1 and ``B``.  The
generators here dial that ratio:

* :func:`block_runs` — access ``run_length`` distinct items of a block
  before moving on; ``run_length = B`` gives maximal spatial locality,
  1 gives none.
* :func:`markov_spatial` — a two-state walk: stay in the current block
  with probability ``stay``; expected run length ``1/(1-stay)``.
* :func:`block_zipf` — Zipf over *blocks*, uniform within; models hot
  rows/pages whose items are used together.

The seeded generators draw from
:func:`~repro.core.raw_stream.generator_stream`, which replays
``numpy.random.default_rng(seed)``'s scalar calls draw for draw, so a
trace is bit-identical to one built from numpy calls.  Every block of
these mappings is full, so item ``j`` of block ``b`` is ``b * B + j``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.mapping import FixedBlockMapping
from repro.core.raw_stream import generator_stream
from repro.core.trace import Trace
from repro.errors import ConfigurationError

__all__ = ["block_runs", "markov_spatial", "block_zipf", "interleaved_streams"]


def _mapping(universe: int, block_size: int) -> FixedBlockMapping:
    rounded = -(-universe // block_size) * block_size
    return FixedBlockMapping(universe=rounded, block_size=block_size)


def block_runs(
    length: int,
    universe: int,
    block_size: int = 8,
    run_length: int | None = None,
    seed: int = 0,
) -> Trace:
    """Visit random blocks, touching ``run_length`` distinct items each.

    With ``run_length = block_size`` (default) every visit consumes the
    whole block (``f/g → B``); with 1 it touches a single item
    (``f/g → 1``, the Theorem 3 pollution pattern).
    """
    if run_length is None:
        run_length = block_size
    if not 1 <= run_length <= block_size:
        raise ConfigurationError(
            f"run_length must be in [1, {block_size}], got {run_length}"
        )
    mapping = _mapping(universe, block_size)
    nblocks = mapping.num_blocks
    stream = generator_stream(seed, nblocks, sample_pop=block_size)
    integers, sample = stream.integers, stream.sample
    accesses: list[int] = []
    while len(accesses) < length:
        base = integers(nblocks) * block_size
        accesses.extend([base + j for j in sample(block_size, run_length)])
    return Trace(
        np.asarray(accesses[:length], dtype=np.int64),
        mapping,
        {
            "generator": "block_runs",
            "run_length": run_length,
            "seed": seed,
        },
    )


def markov_spatial(
    length: int,
    universe: int,
    block_size: int = 8,
    stay: float = 0.8,
    seed: int = 0,
) -> Trace:
    """Markov walk: remain in the current block w.p. ``stay``.

    Within a block the next item is uniform; leaving picks a uniform
    new block.  Expected within-block run length is ``1/(1-stay)``,
    giving a smooth dial from no spatial locality (``stay = 0``) to
    near-maximal (``stay → 1``).
    """
    if not 0.0 <= stay < 1.0:
        raise ConfigurationError(f"stay must be in [0, 1), got {stay}")
    mapping = _mapping(universe, block_size)
    nblocks = mapping.num_blocks
    stream = generator_stream(seed, max(nblocks, block_size))
    integers, random = stream.integers, stream.random
    accesses = np.empty(length, dtype=np.int64)
    blk = integers(nblocks)
    for pos in range(length):
        if random() >= stay:
            blk = integers(nblocks)
        accesses[pos] = blk * block_size + integers(block_size)
    return Trace(
        accesses,
        mapping,
        {"generator": "markov_spatial", "stay": stay, "seed": seed},
    )


def interleaved_streams(
    length: int,
    streams: int,
    blocks_per_stream: int,
    block_size: int = 8,
) -> Trace:
    """``streams`` sequential scans advancing round-robin.

    Every block stays partially consumed for ``streams * block_size``
    accesses, so exploiting its spatial locality requires a block-level
    footprint of at least ``streams`` blocks — the workload that makes
    block-layer *capacity* (not just block loading) matter.  Items
    never repeat within a lap, so temporal locality is nil until a
    stream wraps.  Deterministic; no seed.
    """
    if streams < 1 or blocks_per_stream < 1:
        raise ConfigurationError("need >= 1 stream and >= 1 block each")
    universe = streams * blocks_per_stream * block_size
    mapping = _mapping(universe, block_size)
    lap = blocks_per_stream * block_size
    pos = np.arange(length, dtype=np.int64)
    accesses = (pos % streams) * lap + (pos // streams) % lap
    return Trace(
        accesses,
        mapping,
        {
            "generator": "interleaved_streams",
            "streams": streams,
            "blocks_per_stream": blocks_per_stream,
        },
    )


def block_zipf(
    length: int,
    universe: int,
    block_size: int = 8,
    alpha: float = 1.0,
    within_run: int = 4,
    seed: int = 0,
) -> Trace:
    """Zipf-popular blocks with short within-block runs.

    Each step samples a block from a Zipf law, then touches
    ``within_run`` random distinct items of it — hot DRAM rows / hot
    file pages, the workloads that motivate granularity-aware caching.
    """
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ConfigurationError(f"alpha must be finite and >= 0, got {alpha}")
    mapping = _mapping(universe, block_size)
    if not 1 <= within_run <= block_size:
        raise ConfigurationError(
            f"within_run must be in [1, {block_size}], got {within_run}"
        )
    nblocks = mapping.num_blocks
    ranks = np.arange(1, nblocks + 1, dtype=float)
    weights = ranks**-alpha
    weights /= weights.sum()
    stream = generator_stream(seed, nblocks, sample_pop=block_size)
    block_ids = stream.permutation(nblocks)
    pick, sample = stream.weighted(weights), stream.sample
    accesses: list[int] = []
    while len(accesses) < length:
        base = block_ids[pick()] * block_size
        accesses.extend([base + j for j in sample(block_size, within_run)])
    return Trace(
        np.asarray(accesses[:length], dtype=np.int64),
        mapping,
        {
            "generator": "block_zipf",
            "alpha": alpha,
            "within_run": within_run,
            "seed": seed,
        },
    )
