"""Memory-mapped compiled-trace files (``.rtc``).

An ``.rtc`` file is the on-disk twin of :class:`repro.core.fast.CompiledTrace`:
numpy-backed columns (``items``, ``blocks``, ``dense``, ``ops``) plus the
distinct-id tables, behind a small JSON header that records the trace
geometry and its content fingerprint.  The point of the format is that
*nothing* has to be materialized to replay it:

* :func:`open_rtc` wraps the columns in ``np.memmap`` views and returns a
  :class:`MmapTrace` — a :class:`~repro.core.trace.Trace` whose ``items``
  array is the mapped file.  The fast kernels, ``multi_capacity_replay``
  and ``multi_policy_replay`` all run directly over the mapping; the OS
  page cache is the only "copy".
* The header fingerprint is the exact ``trace-v1`` recipe from
  :meth:`Trace.fingerprint`, computed incrementally by the writer, so an
  mmap-backed trace content-addresses identically to its in-memory twin
  (campaign cells memoize across the two representations).
* Forked campaign workers inherit the parent's mapping, and the writer
  publishes with ``os.replace``, so re-converting a path mid-campaign
  leaves running workers on the inode that was planned.

Layout (little-endian)::

    b"RTC1" | uint32 header_len | header JSON | pad | columns...

Columns follow in a fixed order — ``items`` (int64), ``blocks`` (int64),
``dense`` (int64), ``ops`` (uint8), ``unique_items`` (int64),
``unique_blocks`` (int64) — each aligned to a 64-byte boundary, so the
header needs no offset table: offsets derive from the counts.

Only :class:`~repro.core.mapping.FixedBlockMapping` traces are
representable (``blocks[i] == items[i] // block_size``); explicit
mappings stay in-memory.

Compile-memo interaction: the fast path's compile memo normally keys on
the content fingerprint, but for mmap traces the fingerprint is *read
from the header* (trusted, validated at convert time) — editing column
bytes in place would not change it.  :func:`file_memo_key` therefore
digests the header bytes together with ``st_mtime_ns`` and ``st_size``,
and :func:`open_rtc` plants it as ``trace._memo_key`` so a modified file
can never be served a stale compilation.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import BinaryIO, Dict, List, Optional

import numpy as np

from repro.core.mapping import FixedBlockMapping
from repro.core.trace import Trace
from repro.errors import ConfigurationError, TraceFormatError
from repro.telemetry import spans

__all__ = [
    "RTC_MAGIC",
    "RTC_VERSION",
    "MmapTrace",
    "RtcFile",
    "RtcWriter",
    "file_memo_key",
    "open_rtc",
    "rtc_info",
    "trace_to_rtc",
]

RTC_MAGIC = b"RTC1"
RTC_VERSION = 1

#: Accesses per chunk for streaming writes/reads (bounded memory).
DEFAULT_CHUNK = 65536

_ALIGN = 64

_I8 = np.dtype("<i8")
_U1 = np.dtype("<u1")


def _align(offset: int) -> int:
    return -(-offset // _ALIGN) * _ALIGN


def _column_offsets(header_end: int, n: int, n_distinct: int, n_blocks: int) -> Dict[str, int]:
    """Column offsets derived from the counts (fixed order, 64-aligned)."""
    offsets: Dict[str, int] = {}
    pos = _align(header_end)
    for name, nbytes in (
        ("items", n * 8),
        ("blocks", n * 8),
        ("dense", n * 8),
        ("ops", n * 1),
        ("unique_items", n_distinct * 8),
        ("unique_blocks", n_blocks * 8),
    ):
        offsets[name] = pos
        pos = _align(pos + nbytes)
    offsets["end"] = pos
    return offsets


class MmapTrace(Trace):
    """A :class:`Trace` whose ``items`` column is an ``np.memmap``.

    Construction skips the full min/max range scan that
    ``Trace.__post_init__`` performs — the converter validated every
    chunk when the file was written — so opening a multi-gigabyte trace
    touches only the header page.  ``_fp`` is planted from the header
    (the writer computed the exact ``trace-v1`` recipe incrementally)
    and ``_memo_key`` from :func:`file_memo_key`.
    """

    def __post_init__(self) -> None:
        if self.items.ndim != 1:
            raise TraceFormatError("trace items must be one-dimensional")
        self._fp: Optional[str] = None


class RtcFile:
    """Read-side view of an ``.rtc`` file: header dict + memmap columns."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        with open(self.path, "rb") as fh:
            magic = fh.read(4)
            if magic != RTC_MAGIC:
                raise TraceFormatError(
                    f"{self.path}: not an .rtc file (bad magic {magic!r})"
                )
            (header_len,) = np.frombuffer(fh.read(4), dtype="<u4")
            self.header_bytes = fh.read(int(header_len))
            if len(self.header_bytes) != int(header_len):
                raise TraceFormatError(f"{self.path}: truncated header")
        try:
            self.header = json.loads(self.header_bytes.decode("utf-8"))
        except ValueError as exc:
            raise TraceFormatError(f"{self.path}: corrupt header JSON") from exc
        if self.header.get("version") != RTC_VERSION:
            raise TraceFormatError(
                f"{self.path}: unsupported rtc version "
                f"{self.header.get('version')!r} (expected {RTC_VERSION})"
            )
        st = os.stat(self.path)
        self.size = st.st_size
        self.mtime_ns = st.st_mtime_ns
        n = int(self.header["n"])
        n_distinct = int(self.header["n_distinct"])
        n_blocks = int(self.header["n_blocks"])
        offsets = _column_offsets(8 + int(header_len), n, n_distinct, n_blocks)
        if self.size < offsets["end"]:
            raise TraceFormatError(
                f"{self.path}: truncated columns "
                f"(need {offsets['end']} bytes, have {self.size})"
            )
        self.n = n
        self.items = self._map("items", offsets, _I8, n)
        self.blocks = self._map("blocks", offsets, _I8, n)
        self.dense = self._map("dense", offsets, _I8, n)
        self.ops = self._map("ops", offsets, _U1, n)
        self.unique_items = self._map("unique_items", offsets, _I8, n_distinct)
        self.unique_blocks = self._map("unique_blocks", offsets, _I8, n_blocks)

    def _map(self, name: str, offsets: Dict[str, int], dtype: np.dtype, count: int) -> np.ndarray:
        if count == 0:
            return np.empty(0, dtype=dtype)
        return np.memmap(self.path, dtype=dtype, mode="r", offset=offsets[name], shape=(count,))

    @property
    def fingerprint(self) -> str:
        return str(self.header["fingerprint"])


def _drop_repeats(values: np.ndarray) -> np.ndarray:
    """The distinct values of a sorted array, in order."""
    keep = np.empty(values.size, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


class RtcWriter:
    """Incremental one-pass ``.rtc`` writer with bounded memory.

    ``append()`` streams access chunks to sibling spill files while
    accumulating the distinct-id table and the incremental ``trace-v1``
    fingerprint; ``finalize()`` runs one chunked pass over the spilled
    items to compute the dense column, then assembles the final file and
    atomically renames it into place.  Peak memory is O(chunk +
    distinct), never O(n).
    """

    def __init__(
        self,
        path: str | Path,
        block_size: int,
        metadata: Optional[dict] = None,
        conversion: Optional[dict] = None,
        chunk: int = DEFAULT_CHUNK,
    ):
        if block_size < 1:
            raise ConfigurationError(f"block_size must be >= 1, got {block_size}")
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.block_size = int(block_size)
        self.metadata = dict(metadata or {})
        self.conversion = dict(conversion or {})
        self.chunk = max(1, int(chunk))
        self._n = 0
        self._write_count = 0
        self._max_item = -1
        self._unique = np.empty(0, dtype=np.int64)
        self._hash = hashlib.sha256(b"trace-v1\x00")
        self._tmp = {
            name: self.path.with_name(self.path.name + f".tmp-{name}")
            for name in ("items", "blocks", "ops")
        }
        self._files: Dict[str, BinaryIO] = {
            name: open(p, "wb") for name, p in self._tmp.items()
        }
        self._finalized = False

    def append(self, items: np.ndarray, writes: Optional[np.ndarray] = None) -> None:
        """Append one chunk of accesses (and optional write flags)."""
        if self._finalized:
            raise ConfigurationError("RtcWriter already finalized")
        arr = np.ascontiguousarray(items, dtype=np.int64)
        if arr.ndim != 1:
            raise ConfigurationError("items chunk must be 1-D")
        if arr.size == 0:
            return
        with spans.span("rtc.append", accesses=int(arr.size)):
            if int(arr.min()) < 0:
                raise TraceFormatError("item ids must be non-negative")
            if writes is None:
                ops = np.zeros(arr.size, dtype=_U1)
            else:
                ops = np.ascontiguousarray(writes).astype(bool).astype(_U1)
                if ops.size != arr.size:
                    raise ConfigurationError("writes chunk must match items chunk")
            self._hash.update(arr.tobytes())
            self._files["items"].write(arr.astype(_I8, copy=False).tobytes())
            blocks = arr // self.block_size
            self._files["blocks"].write(blocks.astype(_I8, copy=False).tobytes())
            self._write_count += int(ops.sum())
            self._files["ops"].write(ops.tobytes())
            # Merge the sorted chunk into the sorted table: a stable sort
            # of two sorted runs is one linear merge, unlike the full
            # re-sort np.union1d does on every chunk.
            merged = np.concatenate((self._unique, np.sort(arr)))
            merged.sort(kind="stable")
            self._unique = _drop_repeats(merged)
            self._max_item = max(self._max_item, int(arr.max()))
            self._n += arr.size

    def abort(self) -> None:
        """Close and remove spill files without producing an output."""
        for fh in self._files.values():
            try:
                fh.close()
            except OSError:
                pass
        for p in self._tmp.values():
            p.unlink(missing_ok=True)
        self._finalized = True

    def finalize(self, universe: Optional[int] = None) -> Path:
        """Complete the file and rename it into place; returns the path."""
        if self._finalized:
            raise ConfigurationError("RtcWriter already finalized")
        if self._n == 0:
            self.abort()
            raise TraceFormatError(f"{self.path}: no accesses to write")
        with spans.span("rtc.finalize", accesses=self._n, distinct=int(self._unique.size)):
            return self._write_file(universe)

    def _write_file(self, universe: Optional[int]) -> Path:
        for fh in self._files.values():
            fh.close()
        top = self._max_item + 1
        if universe is None:
            universe = -(-top // self.block_size) * self.block_size
        universe = int(universe)
        if universe < top:
            self.abort()
            raise TraceFormatError(
                f"{self.path}: universe {universe} smaller than max item {top - 1}"
            )
        # Finish the trace-v1 recipe exactly as Trace.fingerprint() does.
        self._hash.update(b"\x00mapping\x00")
        self._hash.update(f"fixed:{universe}:{self.block_size}".encode())
        fingerprint = self._hash.hexdigest()

        unique_blocks = _drop_repeats(self._unique // self.block_size)
        header = {
            "format": "rtc",
            "version": RTC_VERSION,
            "n": self._n,
            "universe": universe,
            "block_size": self.block_size,
            "n_distinct": int(self._unique.size),
            "n_blocks": int(unique_blocks.size),
            "write_count": self._write_count,
            "fingerprint": fingerprint,
            "metadata": self.metadata,
            "conversion": self.conversion,
        }
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        offsets = _column_offsets(
            8 + len(header_bytes), self._n, int(self._unique.size), int(unique_blocks.size)
        )

        # Chunked pass over the spilled items to emit the dense column.
        # Plain reads, not a memmap: mapped pages would stay resident and
        # grow the converter's RSS with the trace length.
        dense_tmp = self.path.with_name(self.path.name + ".tmp-dense")
        with open(self._tmp["items"], "rb") as items_f, open(dense_tmp, "wb") as dense_f:
            for _ in range(0, self._n, self.chunk):
                seg = np.fromfile(items_f, dtype=_I8, count=self.chunk)
                dense_f.write(np.searchsorted(self._unique, seg).astype(_I8).tobytes())

        final_tmp = self.path.with_name(self.path.name + ".tmp-final")
        try:
            with open(final_tmp, "wb") as out:
                out.write(RTC_MAGIC)
                out.write(len(header_bytes).to_bytes(4, "little"))
                out.write(header_bytes)
                copy_chunk = max(self.chunk * 8, 1 << 20)
                for name, src in (
                    ("items", self._tmp["items"]),
                    ("blocks", self._tmp["blocks"]),
                    ("dense", dense_tmp),
                    ("ops", self._tmp["ops"]),
                ):
                    out.write(b"\x00" * (offsets[name] - out.tell()))
                    with open(src, "rb") as fh:
                        while True:
                            buf = fh.read(copy_chunk)
                            if not buf:
                                break
                            out.write(buf)
                out.write(b"\x00" * (offsets["unique_items"] - out.tell()))
                out.write(self._unique.astype(_I8, copy=False).tobytes())
                out.write(b"\x00" * (offsets["unique_blocks"] - out.tell()))
                out.write(unique_blocks.astype(_I8, copy=False).tobytes())
                out.write(b"\x00" * (offsets["end"] - out.tell()))
            os.replace(final_tmp, self.path)
        finally:
            final_tmp.unlink(missing_ok=True)
            dense_tmp.unlink(missing_ok=True)
            for p in self._tmp.values():
                p.unlink(missing_ok=True)
        self._finalized = True
        return self.path


def file_memo_key(path: str | Path, header_bytes: Optional[bytes] = None) -> str:
    """Compile-memo key for an on-disk trace: header digest + mtime + size.

    The content fingerprint alone is unsafe for mmap traces (it is read
    from the header, so editing column bytes leaves it unchanged); the
    mtime/size pair ties the memo entry to this revision of the file.
    """
    path = Path(path)
    st = os.stat(path)
    if header_bytes is None:
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic != RTC_MAGIC:
                raise TraceFormatError(f"{path}: not an .rtc file (bad magic {magic!r})")
            (header_len,) = np.frombuffer(fh.read(4), dtype="<u4")
            header_bytes = fh.read(int(header_len))
    h = hashlib.sha256(b"rtc-memo\x00")
    h.update(header_bytes)
    h.update(f":{st.st_mtime_ns}:{st.st_size}".encode())
    return h.hexdigest()


def open_rtc(path: str | Path) -> MmapTrace:
    """Open an ``.rtc`` file as a zero-copy :class:`MmapTrace`."""
    rtc = RtcFile(path)
    mapping = FixedBlockMapping(
        universe=int(rtc.header["universe"]),
        block_size=int(rtc.header["block_size"]),
    )
    trace = MmapTrace(rtc.items, mapping, dict(rtc.header.get("metadata", {})))
    trace._rtc = rtc
    trace._fp = rtc.fingerprint
    trace._memo_key = file_memo_key(rtc.path, rtc.header_bytes)
    return trace


def rtc_info(path: str | Path) -> dict:
    """Header + file stats for ``trace info`` (touches only the header)."""
    rtc = RtcFile(path)
    info = dict(rtc.header)
    info["path"] = str(rtc.path)
    info["file_bytes"] = rtc.size
    return info


def trace_to_rtc(
    trace: Trace,
    path: str | Path,
    writes: Optional[np.ndarray] = None,
    chunk: int = DEFAULT_CHUNK,
) -> Path:
    """Convert an in-memory trace to ``.rtc`` (chunked; metadata preserved).

    The resulting file fingerprints identically to ``trace``, so
    campaign cells memoize across the two representations.
    """
    if not isinstance(trace.mapping, FixedBlockMapping):
        raise ConfigurationError(
            "rtc files support FixedBlockMapping traces only "
            f"(got {type(trace.mapping).__name__})"
        )
    writer = RtcWriter(
        path,
        block_size=trace.mapping.max_block_size,
        metadata=dict(trace.metadata),
        conversion={"source": "in-memory", "generator": "trace_to_rtc"},
        chunk=chunk,
    )
    try:
        items = np.asarray(trace.items)
        for lo in range(0, items.size, writer.chunk):
            seg_writes = None if writes is None else writes[lo : lo + writer.chunk]
            writer.append(items[lo : lo + writer.chunk], seg_writes)
        return writer.finalize(universe=trace.mapping.universe)
    except BaseException:
        if not writer._finalized:
            writer.abort()
        raise
