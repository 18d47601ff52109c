"""Streaming trace ingestion: chunked parsers and SHARDS sampling.

`repro.workloads.trace_io` materializes whole traces in RAM, which caps
experiments at toy scales.  This module reads traces in bounded memory:

* **Chunked parsers** — :class:`TextTraceStream` (the repo's text
  format), :class:`MsrTraceStream` (MSR-Cambridge block-storage CSV:
  ``timestamp,hostname,disk,type,offset,size[,latency]``, expanded to
  page-granular accesses), and :class:`KvTraceStream` (memcached-style
  ``timestamp,key,op[,...]`` CSV, keys hashed to stable 63-bit ids).
  All three sniff gzip by magic bytes (never by extension), support an
  ``offset=``/``limit=`` access window, and raise
  :class:`~repro.errors.TraceFormatError` with ``path:lineno`` prefixes
  that stay correct across chunk boundaries.
* **A one-pass converter** — :func:`convert_to_rtc` streams any parser
  into the mmap-able ``.rtc`` columnar format
  (:mod:`repro.core.rtc`), optionally densifying sparse addresses
  block-preservingly and/or SHARDS-sampling on the fly.  Peak memory is
  O(chunk + distinct items), never O(n).
* **SHARDS sampling** — :func:`shards` builds a spatially hashed
  sampler that keeps an access iff ``SplitMix64(block ^ salt) <
  rate * 2^64``.  Filtering by *block* hash keeps load sets intact
  (every item of a kept block is kept), so granularity-change effects
  survive sampling; stack distances on the sample estimate true
  distances scaled by ``rate``, which is what
  :func:`repro.analysis.mrc.sampled_miss_ratio_curve` rescales.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import re
import zlib
from contextlib import closing
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Dict, Iterator, List, Optional, TextIO, Tuple

import numpy as np

from repro.core.mapping import splitmix64
from repro.core.reuse import run_heads
from repro.core.rtc import DEFAULT_CHUNK, RtcFile, RtcWriter
from repro.core.trace import Trace
from repro.errors import ConfigurationError, TraceFormatError
from repro.telemetry import spans

__all__ = [
    "KvTraceStream",
    "MsrTraceStream",
    "ShardsSampler",
    "StreamChunk",
    "StreamingDensifier",
    "TextTraceStream",
    "convert_to_rtc",
    "open_text_source",
    "sample_rtc",
    "sample_trace",
    "shards",
]

_GZIP_MAGIC = b"\x1f\x8b"

#: memcached-style operations mapped to the read/write flag.
_KV_READ_OPS = frozenset({"get", "gets", "read", "hit", "touch"})
_KV_WRITE_OPS = frozenset(
    {"set", "add", "replace", "cas", "append", "prepend", "incr", "decr", "delete", "update", "write"}
)


def open_text_source(path: str | Path) -> TextIO:
    """Open ``path`` for text reading, gunzipping if the *content* is gzip.

    Detection is by the two magic bytes ``1f 8b``, not the file
    extension — a ``.trace`` file that happens to be compressed works,
    and a ``.gz``-named plain file is read as-is.
    """
    with open(path, "rb") as fh:
        magic = fh.read(2)
    # gzip.open owns (and closes) its file, unlike GzipFile(fileobj=...).
    binary = gzip.open(path, "rb") if magic == _GZIP_MAGIC else open(path, "rb")
    return io.TextIOWrapper(binary, encoding="utf-8")


#: What reading a corrupt source raises: a truncated or damaged gzip
#: stream, or bytes that are not UTF-8.
_CORRUPT_SOURCE = (EOFError, UnicodeDecodeError, zlib.error, gzip.BadGzipFile)


def _text_blocks(path: Path, size: int) -> Iterator[str]:
    """The decoded text of ``path`` in blocks of about ``size``
    characters, each cut at its last newline (one is added after an
    unterminated last line).  Every parser reads its source here, so
    corrupt content — a truncated or damaged gzip stream, bytes that are
    not UTF-8 — raises :class:`~repro.errors.TraceFormatError` naming
    the path.  No line is named: the decoder reads ahead of the lines
    handed out, so the failing line is not known."""
    carry = ""
    with open_text_source(path) as fh:
        while True:
            try:
                block = fh.read(size)
            except _CORRUPT_SOURCE as exc:
                what = (
                    "not UTF-8 text"
                    if isinstance(exc, UnicodeDecodeError)
                    else "truncated or corrupt gzip data"
                )
                raise TraceFormatError(f"{path}: {what}: {exc}") from exc
            if not block:
                if carry:
                    yield carry + "\n"
                return
            cut = block.rfind("\n") + 1
            if not cut:
                carry += block
                continue
            text = carry + block[:cut]
            carry = block[cut:]
            yield text


def _text_lines(path: Path, size: int) -> Iterator[str]:
    """The lines of ``path`` without their newlines, read as :func:`_text_blocks`."""
    for block in _text_blocks(path, size):
        lines = block.split("\n")
        lines.pop()
        yield from lines


@dataclass
class StreamChunk:
    """One bounded batch of parsed accesses."""

    items: np.ndarray  #: int64 item ids
    writes: np.ndarray  #: bool write flags


#: A parsed run of consecutive accesses: int64 item ids and bool write flags.
_Run = Tuple[np.ndarray, np.ndarray]

#: One ``(item, is_write)`` pair as a numpy record.
_ACCESS = np.dtype([("item", np.int64), ("write", bool)])


class _AccessStream:
    """Base class: window handling + chunk batching over ``_runs()``.

    Subclasses yield parsed runs from ``_runs()`` — by default, batches
    of the ``(item, is_write)`` pairs ``_accesses()`` yields, never
    pulling more than the window still wants.  This base applies the
    ``offset``/``limit`` window (skipped accesses are still parsed and
    validated), re-batches survivors into :class:`StreamChunk` arrays of
    exactly ``chunk`` accesses (the last one may be shorter), and stops
    reading the source as soon as the window is exhausted.  Each run is
    parsed under one ``stream.parse`` span (``accesses``, ``fast_lines``,
    ``slow_lines``), so the span times the parser alone.
    """

    def __init__(
        self,
        path: str | Path,
        limit: Optional[int] = None,
        offset: int = 0,
        chunk: int = DEFAULT_CHUNK,
    ):
        self.path = Path(path)
        if offset < 0:
            raise ConfigurationError(f"offset must be >= 0, got {offset}")
        if limit is not None and limit < 0:
            raise ConfigurationError(f"limit must be >= 0, got {limit}")
        self.limit = limit
        self.offset = int(offset)
        self.chunk = max(1, int(chunk))
        #: Accesses parsed so far, including those skipped by the window.
        self.accesses_seen = 0
        #: Accesses emitted so far (inside the window).
        self.emitted = 0
        #: Source lines parsed a block at a time / one at a time.
        self.fast_lines = 0
        self.slow_lines = 0

    def _accesses(self) -> Iterator[Tuple[int, bool]]:
        raise NotImplementedError

    def _wanted(self) -> int:
        """Most accesses worth parsing next: ``chunk``, or fewer when
        the window ends sooner."""
        if self.limit is None:
            return self.chunk
        return min(self.chunk, self.offset + self.limit - self.accesses_seen)

    def _runs(self) -> Iterator[_Run]:
        accesses = self._accesses()
        while True:
            batch = np.fromiter(islice(accesses, self._wanted()), dtype=_ACCESS)
            if not batch.size:
                return
            yield batch["item"], batch["write"]

    def __iter__(self) -> Iterator[StreamChunk]:
        if self.limit == 0:
            return
        chunk = self.chunk
        pending_items: List[np.ndarray] = []
        pending_writes: List[np.ndarray] = []
        buffered = 0
        with closing(self._runs()) as runs:
            while True:
                fast, slow = self.fast_lines, self.slow_lines
                with spans.span("stream.parse") as sp:
                    run = next(runs, None)
                    if sp is not None:
                        sp.attributes.update(
                            accesses=0 if run is None else int(run[0].size),
                            fast_lines=self.fast_lines - fast,
                            slow_lines=self.slow_lines - slow,
                        )
                if run is None:
                    break
                items, writes = run
                skip = min(items.size, max(0, self.offset - self.accesses_seen))
                take = items.size - skip
                if self.limit is not None:
                    take = min(take, self.limit - self.emitted)
                self.accesses_seen += skip + take
                if not take:
                    continue  # an empty slice is still a view of the whole run
                self.emitted += take
                pending_items.append(items[skip : skip + take])
                pending_writes.append(writes[skip : skip + take])
                buffered += take
                if buffered >= chunk:
                    items = np.concatenate(pending_items)
                    writes = np.concatenate(pending_writes)
                    full = buffered - buffered % chunk
                    for lo in range(0, full, chunk):
                        yield StreamChunk(items[lo : lo + chunk], writes[lo : lo + chunk])
                    pending_items, pending_writes = [items[full:]], [writes[full:]]
                    buffered -= full
                if self.limit is not None and self.emitted >= self.limit:
                    break
        if buffered:
            yield StreamChunk(np.concatenate(pending_items), np.concatenate(pending_writes))


#: Largest item id an int64 column holds.
_MAX_ITEM = (1 << 63) - 1

#: Flag byte -> 0 (none), 1 (read) or 2 (write) for the block parser.
_FLAG_CODES = np.zeros(256, dtype=np.uint8)
_FLAG_CODES[[ord("r"), ord("R")]] = 1
_FLAG_CODES[[ord("w"), ord("W")]] = 2

#: A decimal id with a leading zero after the first line ("\n007").
_LEADING_ZERO = re.compile(rb"\n0[0-9]")


def _block_run(body: str) -> Optional[_Run]:
    """Parse a block of canonical lines in one step, or return ``None``.

    ``body`` is whole lines, each ending in a newline.  Every line must
    be a canonical decimal id — ``0``, or digits without a leading zero
    that fit in int64 — optionally followed by one space and an
    ``r``/``w``/``R``/``W`` flag (the form ``write_text_trace``
    emits).  A block with any other line returns ``None`` and goes to
    the per-line parser, which gives the same result or raises the
    error; these string checks only decide which parser runs.
    """
    if not body.isascii() or body.startswith("\n"):
        return None
    raw = body.encode("ascii")
    writes: Optional[np.ndarray] = None
    if b" " in raw:
        # Cut the " <flag>" suffixes; whatever else is left fails below.
        # The body neither starts with a blank line nor ends without a
        # newline, so ends - 2 >= -1 never reads a flag by wrapping.
        b = np.frombuffer(raw, dtype=np.uint8)
        ends = np.flatnonzero(b == 10)
        flags = _FLAG_CODES[b[ends - 1]]
        flags[b[ends - 2] != 32] = 0
        flagged = ends[flags > 0]
        keep = np.ones(b.size, dtype=bool)
        keep[flagged - 1] = False
        keep[flagged - 2] = False
        raw = b[keep].tobytes()
        writes = flags == 2
    if (
        raw.translate(None, b"0123456789\n")
        or raw.startswith(b"\n")
        or b"\n\n" in raw
        or (raw.startswith(b"0") and not raw.startswith(b"0\n"))
        or _LEADING_ZERO.search(raw)
    ):
        return None
    tokens = raw.split(b"\n")
    tokens.pop()
    try:
        items = np.array(tokens, dtype=np.int64)
    except OverflowError:  # an id past int64: the per-line parser names it
        return None
    return items, np.zeros(items.size, dtype=bool) if writes is None else writes


class TextTraceStream(_AccessStream):
    """Chunked reader for the repo's text trace format (gzip-transparent).

    The decoded text is read in blocks of about ``16 * chunk``
    characters cut at their last newline.  A block whose lines are all
    canonical ids (see :func:`_block_run`) is converted in one numpy
    call; leading ``#`` lines and every other block go through the
    per-line parser, so comments, directives, blank lines, hex, ``+``,
    ``_``, odd whitespace and errors keep one set of semantics.

    Directive lines (``# universe:``/``# block_size:``) are recorded on
    ``header_universe``/``header_block`` as they are encountered — read
    them after consuming the stream.  Parse errors carry the absolute
    ``path:lineno`` of the offending line regardless of chunking.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.header_universe: Optional[int] = None
        self.header_block: Optional[int] = None

    def _runs(self) -> Iterator[_Run]:
        lineno = 0  # lines before the current block
        for text in _text_blocks(self.path, 16 * self.chunk):
            head = 0
            while text.startswith("#", head):
                head = text.index("\n", head) + 1
            if head:
                lines = text[:head].split("\n")
                lines.pop()
                self._parse_lines(lines, 0, lineno, len(lines))
                lineno += len(lines)
            body = text[head:]
            if not body:
                continue
            run = _block_run(body)
            if run is not None:
                self.fast_lines += run[0].size
                lineno += run[0].size
                yield run
                continue
            lines = body.split("\n")
            lines.pop()
            pos = 0
            while pos < len(lines):
                items, writes, pos = self._parse_lines(lines, pos, lineno, self._wanted())
                if items:
                    yield np.array(items, dtype=np.int64), np.array(writes, dtype=bool)
            lineno += len(lines)

    def _parse_lines(
        self, lines: List[str], start: int, lineno: int, wanted: int
    ) -> Tuple[List[int], List[bool], int]:
        """Parse ``lines[start:]`` one at a time until ``wanted`` accesses
        are found; returns them and the index after the last line read.
        ``lineno`` is the number of source lines before ``lines[0]``."""
        items: List[int] = []
        writes: List[bool] = []
        pos = start
        while pos < len(lines) and len(items) < wanted:
            line = lines[pos].strip()
            pos += 1
            if not line:
                continue
            if line.startswith("#"):
                self._directive(line, lineno + pos)
                continue
            parts = line.split()
            if len(parts) > 2:
                raise TraceFormatError(
                    f"{self.path}:{lineno + pos}: expected 'item [r|w]', "
                    f"got {len(parts)} fields: {line!r}"
                )
            try:
                item = int(parts[0], 0)
            except ValueError as exc:
                raise TraceFormatError(
                    f"{self.path}:{lineno + pos}: bad item id {parts[0]!r}"
                ) from exc
            if item < 0:
                raise TraceFormatError(
                    f"{self.path}:{lineno + pos}: item ids must be non-negative, got {item}"
                )
            if item > _MAX_ITEM:
                raise TraceFormatError(
                    f"{self.path}:{lineno + pos}: item id {parts[0]!r} does not fit in int64"
                )
            if len(parts) > 1:
                flag = parts[1].lower()
                if flag not in ("r", "w"):
                    raise TraceFormatError(
                        f"{self.path}:{lineno + pos}: flag must be r or w, got {parts[1]!r}"
                    )
                writes.append(flag == "w")
            else:
                writes.append(False)
            items.append(item)
        self.slow_lines += pos - start
        return items, writes, pos

    def _directive(self, line: str, lineno: int) -> None:
        body = line[1:].strip().lower()
        key, sep, value = body.partition(":")
        if not sep:
            return  # plain comment
        key = key.strip()
        if key not in ("universe", "block_size"):
            raise TraceFormatError(
                f"{self.path}:{lineno}: unknown directive {key!r} "
                "(known: universe, block_size)"
            )
        try:
            parsed = int(value)
        except ValueError as exc:
            raise TraceFormatError(
                f"{self.path}:{lineno}: directive {key!r} needs an integer, "
                f"got {value.strip()!r}"
            ) from exc
        if parsed < 1:
            raise TraceFormatError(
                f"{self.path}:{lineno}: directive {key!r} must be >= 1, got {parsed}"
            )
        if key == "universe":
            self.header_universe = parsed
        else:
            self.header_block = parsed


class MsrTraceStream(_AccessStream):
    """MSR-Cambridge block-storage CSV, expanded to page accesses.

    Each record ``timestamp,hostname,disk,type,offset,size[,latency]``
    becomes one access per ``page_bytes`` page the byte range
    ``[offset, offset+size)`` touches; the page number is the item id
    (sparse — convert with ``densify=True``).  ``type`` must be
    ``Read``/``Write`` (case-insensitive).  Lines starting with ``#``
    and blank lines are skipped.
    """

    def __init__(self, *args, page_bytes: int = 4096, **kwargs):
        super().__init__(*args, **kwargs)
        if page_bytes < 1:
            raise ConfigurationError(f"page_bytes must be >= 1, got {page_bytes}")
        self.page_bytes = int(page_bytes)

    def _accesses(self) -> Iterator[Tuple[int, bool]]:
        page = self.page_bytes
        for lineno, raw in enumerate(_text_lines(self.path, 16 * self.chunk), start=1):
            self.slow_lines = lineno
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) < 6:
                raise TraceFormatError(
                    f"{self.path}:{lineno}: expected "
                    "'timestamp,host,disk,type,offset,size[,latency]', "
                    f"got {len(parts)} fields"
                )
            op = parts[3].strip().lower()
            if op not in ("read", "write"):
                raise TraceFormatError(
                    f"{self.path}:{lineno}: type must be Read or Write, "
                    f"got {parts[3].strip()!r}"
                )
            try:
                byte_offset = int(parts[4])
                size = int(parts[5])
            except ValueError as exc:
                raise TraceFormatError(
                    f"{self.path}:{lineno}: offset/size must be integers, "
                    f"got {parts[4].strip()!r}/{parts[5].strip()!r}"
                ) from exc
            if byte_offset < 0 or size < 0:
                raise TraceFormatError(
                    f"{self.path}:{lineno}: offset/size must be non-negative"
                )
            is_write = op == "write"
            first = byte_offset // page
            last = (byte_offset + max(size, 1) - 1) // page
            if last > _MAX_ITEM:
                raise TraceFormatError(
                    f"{self.path}:{lineno}: page {last} does not fit in int64"
                )
            for pg in range(first, last + 1):
                yield pg, is_write


class KvTraceStream(_AccessStream):
    """memcached-style KV CSV: ``timestamp,key,op[,...]``.

    Keys are hashed to stable 63-bit ids (blake2b, platform-independent)
    — sparse, so convert with ``densify=True``.  ``op`` is mapped to the
    read/write flag (``get``/``gets`` → read, ``set``/``delete``/... →
    write); unknown operations are format errors.
    """

    def _accesses(self) -> Iterator[Tuple[int, bool]]:
        for lineno, raw in enumerate(_text_lines(self.path, 16 * self.chunk), start=1):
            self.slow_lines = lineno
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) < 3:
                raise TraceFormatError(
                    f"{self.path}:{lineno}: expected 'timestamp,key,op[,...]', "
                    f"got {len(parts)} fields"
                )
            key = parts[1].strip()
            if not key:
                raise TraceFormatError(f"{self.path}:{lineno}: empty key")
            op = parts[2].strip().lower()
            if op in _KV_READ_OPS:
                is_write = False
            elif op in _KV_WRITE_OPS:
                is_write = True
            else:
                raise TraceFormatError(
                    f"{self.path}:{lineno}: unknown op {parts[2].strip()!r}"
                )
            digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
            yield int.from_bytes(digest, "big") & ((1 << 63) - 1), is_write


class StreamingDensifier:
    """Chunk-at-a-time address densifier (the one renaming loop).

    Blocks are renamed in first-appearance order across *all* chunks
    seen so far, so streaming densification of a trace produces exactly
    the array :func:`~repro.workloads.trace_io.densify_addresses` (one
    chunk) returns for the whole trace.
    """

    def __init__(self, block_size: int):
        if block_size < 1:
            raise TraceFormatError(f"block_size must be >= 1, got {block_size}")
        self.block_size = int(block_size)
        self._rename: Dict[int, int] = {}

    def apply(self, items: np.ndarray) -> np.ndarray:
        out = np.empty_like(items)
        bsize = self.block_size
        rename = self._rename
        for idx, addr in enumerate(items.tolist()):
            blk, off = divmod(addr, bsize)
            out[idx] = rename.setdefault(blk, len(rename)) * bsize + off
        return out

    @property
    def universe(self) -> int:
        return max(1, len(self._rename)) * self.block_size


# --------------------------------------------------------------------------
# SHARDS spatial sampling
# --------------------------------------------------------------------------

_U64_MOD = 1 << 64


@dataclass(frozen=True)
class ShardsSampler:
    """Spatially hashed (SHARDS-style) sampler at *block* granularity.

    An access survives iff ``SplitMix64(block ^ salt) < rate * 2^64``
    where ``salt = SplitMix64(seed)`` — a uniform, deterministic
    coin-flip per block.  Because the decision depends only on the
    block id, sampling is *block-closed*: either every item of a block
    is kept or none is, so load sets and spatial hits survive intact.
    """

    rate: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.rate <= 1.0:
            raise ConfigurationError(f"sample rate must be in (0, 1], got {self.rate}")
        threshold = min(int(round(self.rate * _U64_MOD)), _U64_MOD - 1)
        object.__setattr__(self, "_threshold", np.uint64(threshold))
        salt = int(splitmix64(np.asarray([self.seed], dtype=np.uint64))[0])
        object.__setattr__(self, "_salt", np.uint64(salt))

    def keep_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Boolean keep-mask for an array of block ids.

        The coin depends on the block id only, so it is flipped once per
        run of equal ids and repeated over the run.
        """
        blocks = np.ascontiguousarray(blocks)
        if self.rate >= 1.0:
            return np.ones(blocks.shape, dtype=bool)
        flat = blocks.ravel()
        heads = run_heads(flat)
        keep = splitmix64(flat[heads].astype(np.uint64) ^ self._salt) < self._threshold
        return np.repeat(keep, np.diff(heads, append=flat.size)).reshape(blocks.shape)

    def keep_items(self, items: np.ndarray, block_size: int) -> np.ndarray:
        """Keep-mask for item ids under an aligned fixed-``B`` mapping."""
        return self.keep_blocks(np.asarray(items, dtype=np.int64) // int(block_size))

    def sampled_items(self, trace: Trace, chunk: int = DEFAULT_CHUNK * 4) -> np.ndarray:
        """Surviving item ids of ``trace``, gathered chunk-at-a-time.

        For mmap-backed traces this scans the on-disk block column in
        bounded windows, so peak memory is O(chunk + kept) rather than
        O(n).
        """
        rtc = getattr(trace, "_rtc", None)
        if rtc is not None:
            kept: List[np.ndarray] = []
            for lo in range(0, rtc.n, chunk):
                blocks = np.asarray(rtc.blocks[lo : lo + chunk])
                mask = self.keep_blocks(blocks)
                if mask.any():
                    kept.append(np.asarray(rtc.items[lo : lo + chunk])[mask])
            if not kept:
                return np.empty(0, dtype=np.int64)
            return np.concatenate(kept)
        mask = self.keep_blocks(trace.block_trace())
        return np.asarray(trace.items)[mask]

    def sample(self, trace: Trace) -> Trace:
        """An in-memory sub-trace of the surviving accesses.

        Keeps the original mapping/universe — block membership and
        intra-block offsets are untouched, only accesses are dropped.
        """
        items = self.sampled_items(trace)
        return Trace(
            items,
            trace.mapping,
            {
                **trace.metadata,
                "shards_rate": self.rate,
                "shards_seed": self.seed,
                "shards_parent_accesses": len(trace),
            },
        )


def shards(rate: float, seed: int = 0) -> ShardsSampler:
    """Build a :class:`ShardsSampler` (``rate`` in ``(0, 1]``)."""
    return ShardsSampler(rate=rate, seed=seed)


def sample_trace(trace: Trace, rate: float, seed: int = 0) -> Trace:
    """Convenience: ``shards(rate, seed).sample(trace)``."""
    return shards(rate, seed).sample(trace)


def sample_rtc(
    source: str | Path,
    out: str | Path,
    rate: float,
    seed: int = 0,
    chunk: int = DEFAULT_CHUNK,
) -> Path:
    """SHARDS-sample an ``.rtc`` file into a smaller ``.rtc``, streaming.

    Both sides stay on disk: the source columns are scanned in bounded
    windows and surviving accesses stream through an
    :class:`~repro.core.rtc.RtcWriter`, so traces far larger than RAM
    can be thinned.  The sample keeps the source universe (block ids
    and intra-block offsets are untouched) and records the sampling
    parameters plus the parent access count in its metadata — the same
    provenance :meth:`ShardsSampler.sample` attaches in memory.
    """
    rtc = RtcFile(source)
    sampler = shards(rate, seed)
    meta = {
        **dict(rtc.header.get("metadata", {})),
        "shards_rate": sampler.rate,
        "shards_seed": sampler.seed,
        "shards_parent_accesses": rtc.n,
    }
    conversion = {
        "format": "rtc",
        "source": str(rtc.path),
        "sample_rate": sampler.rate,
        "sample_seed": sampler.seed,
    }
    writer = RtcWriter(
        out,
        block_size=int(rtc.header["block_size"]),
        metadata=meta,
        conversion=conversion,
        chunk=chunk,
    )
    try:
        for lo in range(0, rtc.n, chunk):
            blocks = np.asarray(rtc.blocks[lo : lo + chunk])
            mask = sampler.keep_blocks(blocks)
            if mask.any():
                writer.append(
                    np.asarray(rtc.items[lo : lo + chunk])[mask],
                    np.asarray(rtc.ops[lo : lo + chunk])[mask].astype(bool),
                )
    except BaseException:
        writer.abort()
        raise
    try:
        return writer.finalize(universe=int(rtc.header["universe"]))
    except TraceFormatError:
        raise TraceFormatError(
            f"{rtc.path}: sampling at rate {sampler.rate} "
            f"(seed {sampler.seed}) left no accesses"
        ) from None


# --------------------------------------------------------------------------
# Streaming conversion to .rtc
# --------------------------------------------------------------------------


def _sniff_text_directives(path: Path) -> Tuple[Optional[int], Optional[int]]:
    """Read leading ``#`` lines for universe/block_size (cheap, bounded).

    Only the header *prefix* is scanned — directives that appear after
    the first access are handled (rejected) by the conversion pass,
    which needs the block size before the first chunk is written.
    """
    universe: Optional[int] = None
    block: Optional[int] = None
    for raw in _text_lines(path, 4096):
        line = raw.strip()
        if not line:
            continue
        if not line.startswith("#"):
            break
        body = line[1:].strip().lower()
        key, sep, value = body.partition(":")
        if not sep:
            continue
        try:
            parsed = int(value)
        except ValueError:
            continue  # the main pass raises the proper error
        if key.strip() == "universe":
            universe = parsed
        elif key.strip() == "block_size":
            block = parsed
    return universe, block


def convert_to_rtc(
    source: str | Path,
    out: str | Path,
    fmt: str = "text",
    *,
    block_size: Optional[int] = None,
    page_bytes: int = 4096,
    densify: Optional[bool] = None,
    limit: Optional[int] = None,
    offset: int = 0,
    sample_rate: Optional[float] = None,
    sample_seed: int = 0,
    chunk: int = DEFAULT_CHUNK,
    metadata: Optional[dict] = None,
) -> Path:
    """One-pass streaming conversion of a trace file to ``.rtc``.

    ``densify`` defaults to ``True`` for the sparse-address formats
    (``msr``, ``kv``) and ``False`` for ``text``.  When sampling and
    densifying are both requested, sampling happens first (on the raw
    block ids) so the sample matches what :func:`shards` would keep
    from the unconverted stream.  Converting a text trace without
    sampling produces a file whose fingerprint equals the in-memory
    ``read_text_trace`` trace — campaign cells memoize across the two.
    """
    source = Path(source)
    out = Path(out)
    if fmt == "text":
        stream: _AccessStream = TextTraceStream(source, limit=limit, offset=offset, chunk=chunk)
        _, sniffed_block = _sniff_text_directives(source)
        bsize = block_size or sniffed_block or 1
        do_densify = bool(densify)
        generator = "read_text_trace"
    elif fmt == "msr":
        stream = MsrTraceStream(
            source, page_bytes=page_bytes, limit=limit, offset=offset, chunk=chunk
        )
        bsize = block_size or 1
        do_densify = True if densify is None else bool(densify)
        generator = "msr_csv"
    elif fmt == "kv":
        stream = KvTraceStream(source, limit=limit, offset=offset, chunk=chunk)
        bsize = block_size or 1
        do_densify = True if densify is None else bool(densify)
        generator = "kv_csv"
    else:
        raise ConfigurationError(f"unknown trace format {fmt!r} (known: text, msr, kv)")

    sampler = shards(sample_rate, sample_seed) if sample_rate is not None else None
    densifier = StreamingDensifier(bsize) if do_densify else None
    meta = {"generator": generator, "source": str(source)}
    if metadata:
        meta.update(metadata)
    conversion = {
        "format": fmt,
        "source": str(source),
        "block_size": bsize,
        "densify": do_densify,
        "offset": offset,
        "limit": limit,
    }
    if fmt == "msr":
        conversion["page_bytes"] = page_bytes
    if sampler is not None:
        conversion["sample_rate"] = sampler.rate
        conversion["sample_seed"] = sampler.seed

    writer = RtcWriter(out, block_size=bsize, metadata=meta, conversion=conversion, chunk=chunk)
    try:
        for batch in stream:
            items, writes = batch.items, batch.writes
            if sampler is not None:
                mask = sampler.keep_items(items, bsize)
                items, writes = items[mask], writes[mask]
            if items.size == 0:
                continue
            if densifier is not None:
                items = densifier.apply(items)
            writer.append(items, writes)

        header_block = getattr(stream, "header_block", None)
        if fmt == "text" and block_size is None and header_block not in (None, bsize):
            raise TraceFormatError(
                f"{source}: block_size directive ({header_block}) appears after the "
                f"first access (streaming conversion chose {bsize}); move the "
                "directive to the header or pass block_size= explicitly"
            )
        if writer._n == 0:
            if stream.accesses_seen and (offset or limit is not None):
                raise TraceFormatError(
                    f"{source}: no accesses in window (offset={offset}, limit={limit})"
                )
            if stream.accesses_seen and sampler is not None:
                raise TraceFormatError(
                    f"{source}: no accesses survived sampling (rate={sampler.rate})"
                )
            raise TraceFormatError(f"{source}: no accesses found")

        if densifier is not None:
            universe = densifier.universe
        else:
            header_universe = getattr(stream, "header_universe", None)
            if header_universe is not None:
                top = writer._max_item + 1
                if header_universe < top:
                    raise TraceFormatError(
                        f"{source}: universe {header_universe} smaller than "
                        f"max item {top - 1}"
                    )
                universe = -(-header_universe // bsize) * bsize
            else:
                universe = None  # writer rounds max+1 up to whole blocks
        return writer.finalize(universe=universe)
    except BaseException:
        if not writer._finalized:
            writer.abort()
        raise
