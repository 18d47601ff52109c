"""System-flavoured workload scenarios.

The paper's introduction motivates GC caching with real hierarchies:
SRAM lines (64 B) inside DRAM rows (2–4 KB), and pages (4 KB) on
flash/disk.  These generators translate that into item/block terms:

* :func:`dram_cache_workload` — a die-stacked DRAM cache holding 64 B
  lines fetched from 4 KB rows (B = 64): row-buffer-friendly bursts of
  co-located lines, hot rows by Zipf, plus pointer-chase noise with no
  spatial structure.
* :func:`page_cache_workload` — a page cache reading files: whole-file
  sequential reads (spatial) mixed with random hot-page lookups
  (temporal), mimicking a file-server scan+index mix.

Both draw from :func:`~repro.core.raw_stream.generator_stream`, which
replays ``numpy.random.default_rng(seed)``'s scalar calls draw for
draw, so a trace is bit-identical to one built from numpy calls.
"""

from __future__ import annotations

import numpy as np

from repro.core.mapping import FixedBlockMapping
from repro.core.raw_stream import generator_stream
from repro.core.trace import Trace
from repro.errors import ConfigurationError

__all__ = ["dram_cache_workload", "page_cache_workload"]


def dram_cache_workload(
    length: int = 100_000,
    rows: int = 512,
    lines_per_row: int = 64,
    hot_row_fraction: float = 0.1,
    burst_mean: float = 8.0,
    noise_fraction: float = 0.2,
    seed: int = 0,
) -> Trace:
    """SRAM/DRAM granularity boundary: 64-line rows, bursty row reuse.

    Accesses arrive as bursts of geometrically-distributed length
    within a Zipf-hot row (row-buffer locality), except a
    ``noise_fraction`` of isolated single-line touches to uniformly
    random rows (pointer chasing).
    """
    if rows < 2 or lines_per_row < 1:
        raise ConfigurationError("need >= 2 rows and >= 1 line per row")
    if not 0 < burst_mean:
        raise ConfigurationError("burst_mean must be positive")
    if not 0 <= noise_fraction <= 1:
        raise ConfigurationError("noise_fraction must be in [0, 1]")
    if not 0 <= hot_row_fraction <= 1:
        raise ConfigurationError(
            f"hot_row_fraction must be in [0, 1], got {hot_row_fraction}"
        )
    mapping = FixedBlockMapping(
        universe=rows * lines_per_row, block_size=lines_per_row
    )
    n_hot = max(1, int(rows * hot_row_fraction))
    ranks = np.arange(1, n_hot + 1, dtype=float)
    weights = ranks**-1.0
    weights /= weights.sum()
    stream = generator_stream(seed, max(rows, lines_per_row))
    integers, random = stream.integers, stream.random
    hot_rows = stream.permutation(rows)[:n_hot]
    pick = stream.weighted(weights)
    accesses: list[int] = []
    p_end = min(1.0, 1.0 / burst_mean)
    while len(accesses) < length:
        if random() < noise_fraction:
            row = integers(rows)
            accesses.append(row * lines_per_row + integers(lines_per_row))
            continue
        base = hot_rows[pick()] * lines_per_row
        start = integers(lines_per_row)
        offset = 0
        while True:
            accesses.append(base + (start + offset) % lines_per_row)
            offset += 1
            if random() < p_end or offset >= lines_per_row:
                break
    return Trace(
        np.asarray(accesses[:length], dtype=np.int64),
        mapping,
        {
            "generator": "dram_cache_workload",
            "rows": rows,
            "lines_per_row": lines_per_row,
            "seed": seed,
        },
    )


def page_cache_workload(
    length: int = 100_000,
    files: int = 64,
    pages_per_file: int = 32,
    scan_fraction: float = 0.5,
    hot_pages: int = 128,
    seed: int = 0,
) -> Trace:
    """File-server mix: whole-file scans plus hot random page lookups.

    Files are blocks (a readahead unit fetches neighbours for free);
    scans read every page of a uniformly chosen file in order, lookups
    hit a Zipf-hot page set scattered across files.
    """
    if files < 1 or pages_per_file < 1:
        raise ConfigurationError("need >= 1 file and >= 1 page per file")
    if not 0 <= scan_fraction <= 1:
        raise ConfigurationError("scan_fraction must be in [0, 1]")
    if hot_pages < 1:
        raise ConfigurationError(f"hot_pages must be >= 1, got {hot_pages}")
    universe = files * pages_per_file
    hot_pages = min(hot_pages, universe)
    mapping = FixedBlockMapping(universe=universe, block_size=pages_per_file)
    stream = generator_stream(seed, universe)
    integers, random = stream.integers, stream.random
    hot_ids = stream.permutation(universe)[:hot_pages]
    ranks = np.arange(1, hot_pages + 1, dtype=float)
    weights = ranks**-0.9
    weights /= weights.sum()
    pick = stream.weighted(weights)
    accesses: list[int] = []
    while len(accesses) < length:
        if random() < scan_fraction:
            base = integers(files) * pages_per_file
            accesses.extend(range(base, base + pages_per_file))
        else:
            accesses.append(hot_ids[pick()])
    return Trace(
        np.asarray(accesses[:length], dtype=np.int64),
        mapping,
        {
            "generator": "page_cache_workload",
            "files": files,
            "pages_per_file": pages_per_file,
            "seed": seed,
        },
    )
