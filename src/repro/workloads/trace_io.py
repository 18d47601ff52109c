"""Plain-text trace import/export for external workloads.

Real cache studies consume traces from other tools; this module reads
and writes a minimal, diff-friendly text format so external traces can
be replayed through the simulator (and library traces exported for
other simulators):

* comment/header lines start with ``#``; two directives are honoured:
  ``# universe: <int>`` and ``# block_size: <int>``.  A ``#`` line
  shaped like a directive (``# key: value``) with any other key is a
  :class:`~repro.errors.TraceFormatError` — silent typos
  (``# blocksize: 8``) must not change simulation results; plain
  comments without a colon are ignored;
* each remaining line is one access: a non-negative item id,
  optionally followed by whitespace and an ``r``/``w`` flag (default
  read).  Extra fields, negative ids, and files with no accesses are
  format errors.

Every malformed input raises :class:`~repro.errors.TraceFormatError`
with the file and line number — never a bare ``ValueError`` or
``IndexError``.

Unknown ids are densified optionally (``densify=True``) so sparse
address traces (e.g. raw memory addresses) map onto the library's
dense universe while preserving block co-location: addresses are
grouped by ``address // block_size`` before renaming, so items that
shared a block still do.

Parsing is delegated to the chunked reader in
:mod:`repro.workloads.stream`, so gzip-compressed files work
transparently (sniffed by magic bytes) and ``offset``/``limit``
windows read only as much of the file as needed; this module keeps the
convenience "whole trace in memory" return type.  For traces too large
to materialize, convert to ``.rtc`` instead
(:func:`repro.workloads.stream.convert_to_rtc`).
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from repro.core.mapping import FixedBlockMapping
from repro.core.readwrite import RWTrace
from repro.core.trace import Trace
from repro.errors import TraceFormatError

__all__ = ["read_text_trace", "write_text_trace", "densify_addresses"]


def densify_addresses(
    addresses: np.ndarray, block_size: int
) -> Tuple[np.ndarray, int]:
    """Rename sparse addresses to a dense universe, preserving blocks.

    Blocks (``address // block_size``) are numbered in first-appearance
    order; within a block, items keep their intra-block offset.
    Returns ``(dense_items, universe)``.  One chunk through
    :class:`~repro.workloads.stream.StreamingDensifier`.
    """
    from repro.workloads.stream import StreamingDensifier

    densifier = StreamingDensifier(block_size)
    addresses = np.asarray(addresses, dtype=np.int64)
    if addresses.size and addresses.min() < 0:
        raise TraceFormatError("addresses must be non-negative")
    return densifier.apply(addresses), densifier.universe


def read_text_trace(
    path: str | Path,
    block_size: Optional[int] = None,
    densify: bool = False,
    limit: Optional[int] = None,
    offset: int = 0,
) -> RWTrace:
    """Parse a text trace file into an :class:`RWTrace`.

    ``block_size`` overrides the file's ``# block_size:`` directive
    (default 1 if neither is given — traditional caching).  Gzip
    content is decompressed transparently (sniffed by magic bytes, not
    extension).  ``offset``/``limit`` select an access window: the
    first ``offset`` accesses are skipped (still validated) and at most
    ``limit`` accesses are returned; parsing stops once the window is
    full.  Parsing is chunked via
    :class:`repro.workloads.stream.TextTraceStream`, so error line
    numbers stay correct across chunk boundaries.
    """
    from repro.workloads.stream import TextTraceStream

    path = Path(path)
    stream = TextTraceStream(path, limit=limit, offset=offset)
    chunks = list(stream)
    if not chunks:
        if stream.accesses_seen:
            raise TraceFormatError(
                f"{path}: no accesses in window (offset={offset}, limit={limit})"
            )
        raise TraceFormatError(f"{path}: no accesses found")
    header_universe = stream.header_universe
    bsize = block_size or stream.header_block or 1
    arr = np.concatenate([c.items for c in chunks])
    writes = np.concatenate([c.writes for c in chunks])
    if densify:
        arr, universe = densify_addresses(arr, bsize)
    else:
        top = int(arr.max()) + 1
        universe = header_universe or (-(-top // bsize) * bsize)
        if universe < top:
            raise TraceFormatError(
                f"{path}: universe {universe} smaller than max item {top - 1}"
            )
        universe = -(-universe // bsize) * bsize
    trace = Trace(
        arr,
        FixedBlockMapping(universe=universe, block_size=bsize),
        {"generator": "read_text_trace", "source": str(path)},
    )
    return RWTrace(trace=trace, is_write=writes)


def write_text_trace(rw: RWTrace, path: str | Path) -> Path:
    """Write an :class:`RWTrace` in the text format; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        f"# universe: {rw.trace.universe}",
        f"# block_size: {rw.trace.block_size}",
    ]
    for item, is_write in zip(rw.trace.items.tolist(), rw.is_write.tolist()):
        lines.append(f"{item} {'w' if is_write else 'r'}")
    path.write_text("\n".join(lines) + "\n")
    return path
