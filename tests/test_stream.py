"""Streaming ingestion tests: chunked parsers (text/MSR/KV), gzip
sniffing, access windows, streaming densification parity, the
one-pass .rtc converter's fingerprint parity with the in-memory path,
the block text parser against the per-line reference, typed errors for
corrupt sources, and the parse/append/finalize spans."""

import gzip
from typing import Iterator, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rtc import open_rtc, rtc_info
from repro.errors import ConfigurationError, TraceFormatError
from repro.telemetry import spans
from repro.telemetry.sinks import RingBufferSink
from repro.telemetry.spans import SpanTracer
from repro.workloads import markov_spatial
from repro.workloads.stream import (
    KvTraceStream,
    MsrTraceStream,
    StreamChunk,
    StreamingDensifier,
    TextTraceStream,
    convert_to_rtc,
    open_text_source,
    sample_trace,
)
from repro.workloads.trace_io import (
    densify_addresses,
    read_text_trace,
    write_text_trace,
)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


def collect(stream):
    chunks = list(stream)
    if not chunks:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
    return (
        np.concatenate([c.items for c in chunks]),
        np.concatenate([c.writes for c in chunks]),
    )


# -- text parser -------------------------------------------------------------


def test_text_stream_chunks_preserve_order(tmp_path):
    path = write_lines(tmp_path / "t.txt", [str(i % 7) for i in range(100)])
    items, writes = collect(TextTraceStream(path, chunk=9))
    assert items.tolist() == [i % 7 for i in range(100)]
    assert not writes.any()


def test_text_stream_reads_directives(tmp_path):
    path = write_lines(
        tmp_path / "t.txt",
        ["# universe: 64", "# block_size: 4", "1 r", "2 w", "3"],
    )
    stream = TextTraceStream(path)
    items, writes = collect(stream)
    assert stream.header_universe == 64
    assert stream.header_block == 4
    assert items.tolist() == [1, 2, 3]
    assert writes.tolist() == [False, True, False]


def test_text_stream_line_numbers_cross_chunks(tmp_path):
    lines = [str(i) for i in range(50)] + ["oops"]
    path = write_lines(tmp_path / "t.txt", lines)
    with pytest.raises(TraceFormatError, match=rf"{path}:51: bad item id"):
        collect(TextTraceStream(path, chunk=8))


def test_text_stream_bad_flag(tmp_path):
    path = write_lines(tmp_path / "t.txt", ["1 r", "2 x"])
    with pytest.raises(TraceFormatError, match="flag must be r or w"):
        collect(TextTraceStream(path))


def test_text_stream_unknown_directive(tmp_path):
    path = write_lines(tmp_path / "t.txt", ["# blocksize: 8", "1"])
    with pytest.raises(TraceFormatError, match="unknown directive"):
        collect(TextTraceStream(path))


def test_gzip_sniffed_by_magic_not_extension(tmp_path):
    body = "# block_size: 4\n" + "\n".join(str(i % 9) for i in range(40)) + "\n"
    path = tmp_path / "t.txt"  # deliberately no .gz suffix
    path.write_bytes(gzip.compress(body.encode()))
    rw = read_text_trace(path)
    assert rw.trace.items.tolist() == [i % 9 for i in range(40)]
    assert rw.trace.block_size == 4


def test_window_matches_slice_of_full_read(tmp_path):
    full_items = [(i * 13) % 31 for i in range(200)]
    path = write_lines(tmp_path / "t.txt", [str(x) for x in full_items])
    whole = read_text_trace(path, block_size=1)
    window = read_text_trace(path, block_size=1, offset=40, limit=25)
    assert window.trace.items.tolist() == full_items[40:65]
    assert len(whole.trace) == 200


def test_window_stops_reading_early(tmp_path):
    # A malformed line *after* the window must never be reached.
    path = write_lines(tmp_path / "t.txt", ["1", "2", "3", "oops"])
    rw = read_text_trace(path, limit=2)
    assert rw.trace.items.tolist() == [1, 2]


def test_empty_window_is_format_error(tmp_path):
    path = write_lines(tmp_path / "t.txt", ["1", "2"])
    with pytest.raises(TraceFormatError, match="no accesses in window"):
        read_text_trace(path, offset=5)


def test_negative_window_rejected(tmp_path):
    path = write_lines(tmp_path / "t.txt", ["1"])
    with pytest.raises(ConfigurationError, match="offset must be >= 0"):
        TextTraceStream(path, offset=-1)
    with pytest.raises(ConfigurationError, match="limit must be >= 0"):
        TextTraceStream(path, limit=-1)


@pytest.mark.parametrize(
    "cls, line",
    [
        (TextTraceStream, "{}"),  # block parser
        (TextTraceStream, "{}\t"),  # per-line parser
        (KvTraceStream, "{},k,get"),
    ],
    ids=["text-block", "text-lines", "kv"],
)
def test_skipped_offset_region_is_not_kept(tmp_path, cls, line):
    # Skipping ~30k accesses must not hold on to the runs they were
    # parsed into: the peak stays that of reading the first few.
    import tracemalloc

    n = 30_000
    path = tmp_path / "t.txt"
    path.write_text("".join(line.format(i * 7919 % 1000003) + "\n" for i in range(n)))
    peaks = []
    for offset in (0, n - 5):
        tracemalloc.start()
        items, _ = collect(cls(path, chunk=64, offset=offset, limit=5))
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        assert items.size == 5
    assert peaks[1] < peaks[0] + 100_000, peaks


# -- MSR block-storage parser ------------------------------------------------


def test_msr_expands_byte_ranges_to_pages(tmp_path):
    path = write_lines(
        tmp_path / "m.csv",
        [
            "128166372003061629,src1,0,Read,0,8192,100",
            "128166372003061630,src1,0,Write,4096,4097",
            "128166372003061631,src1,0,Read,12288,1",
        ],
    )
    items, writes = collect(MsrTraceStream(path, page_bytes=4096))
    assert items.tolist() == [0, 1, 1, 2, 3]
    assert writes.tolist() == [False, False, True, True, False]


def test_msr_rejects_bad_type(tmp_path):
    path = write_lines(tmp_path / "m.csv", ["1,h,0,Flush,0,512"])
    with pytest.raises(TraceFormatError, match="type must be Read or Write"):
        collect(MsrTraceStream(path))


def test_msr_rejects_short_record(tmp_path):
    path = write_lines(tmp_path / "m.csv", ["1,h,0,Read"])
    with pytest.raises(TraceFormatError, match="expected"):
        collect(MsrTraceStream(path))


# -- memcached-style KV parser -----------------------------------------------


def test_kv_ops_and_stable_hashing(tmp_path):
    path = write_lines(
        tmp_path / "k.csv",
        ["1,alpha,get", "2,beta,set", "3,alpha,gets", "4,beta,delete,extra"],
    )
    items, writes = collect(KvTraceStream(path))
    assert items[0] == items[2]  # same key, same id
    assert items[1] == items[3]
    assert items[0] != items[1]
    assert (items >= 0).all() and (items < 2**63).all()
    assert writes.tolist() == [False, True, False, True]


def test_kv_rejects_unknown_op(tmp_path):
    path = write_lines(tmp_path / "k.csv", ["1,key,frobnicate"])
    with pytest.raises(TraceFormatError, match="unknown op"):
        collect(KvTraceStream(path))


def test_kv_rejects_empty_key(tmp_path):
    path = write_lines(tmp_path / "k.csv", ["1,,get"])
    with pytest.raises(TraceFormatError, match="empty key"):
        collect(KvTraceStream(path))


# -- streaming densification -------------------------------------------------


def test_streaming_densifier_matches_batch(tmp_path):
    rng = np.random.default_rng(5)
    addresses = rng.integers(0, 2**40, size=500)
    batch, batch_universe = densify_addresses(addresses, block_size=8)
    dens = StreamingDensifier(8)
    pieces = [
        dens.apply(chunk) for chunk in np.array_split(addresses, 13)
    ]
    assert np.concatenate(pieces).tolist() == batch.tolist()
    assert dens.universe == batch_universe


# -- conversion --------------------------------------------------------------


def test_convert_text_fingerprint_parity(tmp_path):
    trace = markov_spatial(
        length=4000, universe=512, block_size=8, stay=0.8, seed=6
    )
    from repro.core.readwrite import RWTrace

    rw = RWTrace(trace=trace, is_write=np.zeros(len(trace), dtype=bool))
    src = write_text_trace(rw, tmp_path / "t.txt")
    out = convert_to_rtc(src, tmp_path / "t.rtc")
    loaded = open_rtc(out)
    in_memory = read_text_trace(src).trace
    assert loaded.fingerprint() == in_memory.fingerprint()
    assert loaded.metadata == in_memory.metadata


def test_convert_msr_densifies_by_default(tmp_path):
    src = write_lines(
        tmp_path / "m.csv",
        ["1,h,0,Read,1000000000,8192", "2,h,0,Read,0,4096"],
    )
    out = convert_to_rtc(src, tmp_path / "m.rtc", fmt="msr", block_size=4)
    loaded = open_rtc(out)
    # Sparse page ids were renamed onto a dense universe.
    assert int(np.asarray(loaded.items).max()) < loaded.mapping.universe
    # 3 pages for the first record's 8 KB span, 1 for the second.
    assert len(loaded) == 4


def test_convert_with_window(tmp_path):
    src = write_lines(tmp_path / "t.txt", [str(i) for i in range(30)])
    out = convert_to_rtc(
        src, tmp_path / "t.rtc", block_size=1, offset=10, limit=5
    )
    assert np.asarray(open_rtc(out).items).tolist() == list(range(10, 15))


def test_convert_sampled_matches_post_hoc_sampling(tmp_path):
    trace = markov_spatial(
        length=3000, universe=512, block_size=8, stay=0.8, seed=8
    )
    from repro.core.readwrite import RWTrace

    rw = RWTrace(trace=trace, is_write=np.zeros(len(trace), dtype=bool))
    src = write_text_trace(rw, tmp_path / "t.txt")
    out = convert_to_rtc(
        src, tmp_path / "t.rtc", sample_rate=0.25, sample_seed=4
    )
    sampled = sample_trace(read_text_trace(src).trace, 0.25, seed=4)
    assert np.asarray(open_rtc(out).items).tolist() == sampled.items.tolist()


def test_convert_unknown_format(tmp_path):
    src = write_lines(tmp_path / "t.txt", ["1"])
    with pytest.raises(ConfigurationError, match="unknown trace format"):
        convert_to_rtc(src, tmp_path / "t.rtc", fmt="parquet")


def test_convert_failure_leaves_no_partial_file(tmp_path):
    src = write_lines(tmp_path / "t.txt", ["1", "2", "bad line here"])
    with pytest.raises(TraceFormatError):
        convert_to_rtc(src, tmp_path / "t.rtc")
    assert not (tmp_path / "t.rtc").exists()
    assert not list(tmp_path.glob("*.tmp-*"))


# -- block parser vs the per-line reference ----------------------------------


class ReferenceTextStream(TextTraceStream):
    """The text parser as it was before block parsing: one line at a
    time, one access at a time.  The oracle for the differential tests
    (directive handling is shared and unchanged)."""

    def _accesses(self) -> Iterator[Tuple[int, bool]]:
        with open_text_source(self.path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    self._directive(line, lineno)
                    continue
                parts = line.split()
                if len(parts) > 2:
                    raise TraceFormatError(
                        f"{self.path}:{lineno}: expected 'item [r|w]', "
                        f"got {len(parts)} fields: {line!r}"
                    )
                try:
                    item = int(parts[0], 0)
                except ValueError as exc:
                    raise TraceFormatError(
                        f"{self.path}:{lineno}: bad item id {parts[0]!r}"
                    ) from exc
                if item < 0:
                    raise TraceFormatError(
                        f"{self.path}:{lineno}: item ids must be non-negative, got {item}"
                    )
                if len(parts) > 1:
                    flag = parts[1].lower()
                    if flag not in ("r", "w"):
                        raise TraceFormatError(
                            f"{self.path}:{lineno}: flag must be r or w, got {parts[1]!r}"
                        )
                    yield item, flag == "w"
                else:
                    yield item, False

    def __iter__(self) -> Iterator[StreamChunk]:
        if self.limit == 0:
            return
        items: List[int] = []
        writes: List[bool] = []
        for item, is_write in self._accesses():
            self.accesses_seen += 1
            if self.accesses_seen <= self.offset:
                continue
            items.append(item)
            writes.append(is_write)
            self.emitted += 1
            if len(items) >= self.chunk:
                yield StreamChunk(
                    np.asarray(items, dtype=np.int64), np.asarray(writes, dtype=bool)
                )
                items, writes = [], []
            if self.limit is not None and self.emitted >= self.limit:
                break
        if items:
            yield StreamChunk(
                np.asarray(items, dtype=np.int64), np.asarray(writes, dtype=bool)
            )


def run_stream(cls, path, **kwargs):
    """Everything a consumer can observe of one pass over ``path``."""
    stream = cls(path, **kwargs)
    try:
        chunks = list(stream)
    except TraceFormatError as exc:
        return ("error", type(exc), str(exc))
    return (
        [c.items.tolist() for c in chunks],
        [c.writes.tolist() for c in chunks],
        [c.items.dtype for c in chunks] + [c.writes.dtype for c in chunks],
        stream.accesses_seen,
        stream.emitted,
        stream.header_universe,
        stream.header_block,
    )


def canonical(lo: int, hi: int, flags: bool = False) -> str:
    """Lines the block parser takes: ids without leading zeros, each
    with an ``r``/``w`` flag in turn when ``flags``."""
    suffix = (" r", " w") if flags else ("", "")
    return "".join(f"{i * 37 % 1000}{suffix[i % 2]}\n" for i in range(lo, hi))


HEADER = "# universe: 100000\n# block_size: 4\n"

#: Edge lines, each spliced between runs of canonical lines.
ID_CASES = {
    "double-zero": "00\n",
    "leading-zero": "007\n",  # an error
    "hex": "0x1f\n",
    "underscore": "1_000\n",
    "plus": "+5\n",
    "padded": " 7 \n",
    "zero": "0\n",
    "19-digit": "1234567890123456789\n",
    "int64-max": "9223372036854775807\n",
    "negative": "-3\n",  # an error
    "word": "oops\n",  # an error
}
WHITESPACE_CASES = {
    "tab-flag": "5\tw\n",
    "leading-tab": "\t5\n",
    "crlf": "5 w\r\n6\r\n",
    "lone-cr": "5\r6 w\r",
    "blank": "\n\n",
    "spaces-only": "   \n",
    "two-spaces": "5  w\n",
    "vertical-tab": "5\x0b\n",
    "no-final-newline": None,  # case_body drops the last newline
}
FLAG_CASES = {
    "upper-read": "5 R\n",
    "upper-write": "5 W\n",
    "bad-flag": "5 x\n",  # an error
    "no-space": "55w\n",  # an error
    "flag-only": " w\n",  # an error
    "three-fields": "5 w w\n",  # an error
}
DIRECTIVE_CASES = {
    "mid-block-size": "# block_size: 8\n",
    "mid-comment": "# just a comment\n",
    "bad-directive": "# universe: many\n",  # an error
}
ALL_CASES = {**ID_CASES, **WHITESPACE_CASES, **FLAG_CASES, **DIRECTIVE_CASES}


def case_body(name: str, flags: bool) -> str:
    edge = ALL_CASES[name]
    if edge is None:
        return HEADER + canonical(0, 30, flags).rstrip("\n")
    return HEADER + canonical(0, 20, flags) + edge + canonical(20, 40, flags)


WINDOWS = [{}, {"offset": 3, "limit": 10}, {"offset": 19, "limit": 4}, {"offset": 25}]


@pytest.mark.parametrize("flags", [False, True], ids=["bare", "flagged"])
@pytest.mark.parametrize("name", sorted(ALL_CASES))
def test_block_parser_matches_reference(tmp_path, name, flags):
    body = case_body(name, flags)
    plain = tmp_path / "plain.txt"
    plain.write_bytes(body.encode("utf-8"))
    packed = tmp_path / "packed.txt"
    packed.write_bytes(gzip.compress(body.encode("utf-8")))
    for path in (plain, packed):
        for chunk in (1, 7, 8192):
            for window in WINDOWS:
                kwargs = {"chunk": chunk, **window}
                expected = run_stream(ReferenceTextStream, path, **kwargs)
                assert run_stream(TextTraceStream, path, **kwargs) == expected, (
                    path.name,
                    kwargs,
                )


def test_block_parser_takes_the_fast_path(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text(HEADER + canonical(0, 500, flags=True) + "0x10\n" + canonical(0, 500))
    stream = TextTraceStream(path, chunk=64)
    list(stream)
    # Every line is counted once; the two header lines and the block
    # around the hex id go one line at a time, the rest a block at a time.
    assert stream.fast_lines + stream.slow_lines == 1003
    assert 2 < stream.slow_lines < 200
    assert stream.fast_lines > 800


LINE_PIECES = st.sampled_from(
    ["0", "1", "42", "007", "00", "0x2a", "+9", "1_0", " 8", "9 ", "\t3", "5 w", "5 r",
     "6 W", "7 R", "8 x", "9  w", "", "#", "# block_size: 2", "# universe: 9",
     "1234567890123456789", "٣", "w", "5 w w"]
)  # ids past int64 changed on purpose: test_id_past_int64_is_a_format_error


@settings(max_examples=150, deadline=None)
@given(
    lines=st.lists(LINE_PIECES, max_size=40),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
    terminated=st.booleans(),
    chunk=st.sampled_from([1, 2, 3, 7, 64]),
    offset=st.integers(0, 6),
    limit=st.one_of(st.none(), st.integers(0, 12)),
)
def test_block_parser_matches_reference_on_random_lines(
    tmp_path_factory, lines, newline, terminated, chunk, offset, limit
):
    # Canonical filler makes whole blocks take the fast path around
    # the sampled edge lines.
    filler = [str(i) for i in range(1, 9)]
    mixed = [line for piece in lines for line in (piece, *filler[: len(piece) % 5])]
    body = newline.join(mixed) + (newline if terminated and mixed else "")
    path = tmp_path_factory.mktemp("fuzz") / "t.txt"
    path.write_text(body, newline="")
    kwargs = {"chunk": chunk, "offset": offset, "limit": limit}
    expected = run_stream(ReferenceTextStream, path, **kwargs)
    assert run_stream(TextTraceStream, path, **kwargs) == expected


# -- corrupt sources raise typed errors ---------------------------------------


def truncated_gzip(path, text: str):
    data = gzip.compress(text.encode("utf-8"))
    path.write_bytes(data[: len(data) // 2])
    return path


TRACE_TEXT = HEADER + canonical(0, 3000)


@pytest.mark.parametrize("chunk", [7, 8192])
def test_truncated_gzip_is_a_format_error(tmp_path, chunk):
    path = truncated_gzip(tmp_path / "t.txt", TRACE_TEXT)
    with pytest.raises(TraceFormatError, match=rf"{path}: truncated or corrupt gzip data: "):
        list(TextTraceStream(path, chunk=chunk))
    with pytest.raises(TraceFormatError, match=str(path)):
        read_text_trace(path)
    with pytest.raises(TraceFormatError, match="truncated or corrupt gzip"):
        convert_to_rtc(path, tmp_path / "t.rtc", chunk=chunk)
    assert not (tmp_path / "t.rtc").exists()
    assert not list(tmp_path.glob("*.tmp-*"))


def test_truncated_gzip_header_is_a_format_error(tmp_path):
    # Truncated inside the header lines: the directive sniff fails first.
    path = tmp_path / "t.txt"
    path.write_bytes(gzip.compress(TRACE_TEXT.encode())[:12])
    with pytest.raises(TraceFormatError, match=rf"{path}: truncated or corrupt gzip data: "):
        convert_to_rtc(path, tmp_path / "t.rtc")
    assert not (tmp_path / "t.rtc").exists()


def test_corrupt_gzip_stream_is_a_format_error(tmp_path):
    data = bytearray(gzip.compress(TRACE_TEXT.encode()))
    data[20:40] = b"\xff" * 20  # damage the deflate stream
    path = tmp_path / "t.txt"
    path.write_bytes(bytes(data))
    with pytest.raises(TraceFormatError, match=rf"{path}: truncated or corrupt gzip data"):
        read_text_trace(path)


@pytest.mark.parametrize("chunk", [7, 8192])
def test_invalid_utf8_is_a_format_error(tmp_path, chunk):
    path = tmp_path / "t.txt"
    path.write_bytes(b"1\n2\n3\n\xff\xfe\n4\n")
    with pytest.raises(TraceFormatError, match=rf"{path}: not UTF-8 text: "):
        list(TextTraceStream(path, chunk=chunk))
    with pytest.raises(TraceFormatError, match="not UTF-8 text"):
        convert_to_rtc(path, tmp_path / "t.rtc", chunk=chunk)
    assert not (tmp_path / "t.rtc").exists()
    assert not list(tmp_path.glob("*.tmp-*"))


@pytest.mark.parametrize("chunk", [7, 8192])
def test_id_past_int64_is_a_format_error(tmp_path, chunk):
    path = write_lines(tmp_path / "t.txt", ["1", "2", "12345678901234567890", "3"])
    with pytest.raises(TraceFormatError, match=rf"{path}:3: item id '12345678901234567890' does not fit in int64"):
        read_text_trace(path)
    with pytest.raises(TraceFormatError, match=rf"{path}:3: .* does not fit in int64"):
        convert_to_rtc(path, tmp_path / "t.rtc", chunk=chunk)
    assert not (tmp_path / "t.rtc").exists()
    assert not list(tmp_path.glob("*.tmp-*"))


def test_largest_int64_id_is_accepted(tmp_path):
    path = write_lines(tmp_path / "t.txt", ["1", "9223372036854775807"])
    assert read_text_trace(path).trace.items.tolist() == [1, 2**63 - 1]


@pytest.mark.parametrize(
    "cls, line",
    [(MsrTraceStream, "1,h,0,Read,0,512"), (KvTraceStream, "1,key,get")],
)
def test_csv_streams_share_the_typed_source_errors(tmp_path, cls, line):
    packed = truncated_gzip(tmp_path / "t.csv", "\n".join([line] * 5000) + "\n")
    with pytest.raises(TraceFormatError, match=rf"{packed}: truncated or corrupt gzip data: "):
        list(cls(packed))
    bad = tmp_path / "bad.csv"
    bad.write_bytes((line + "\n").encode() * 3 + b"\xc3\x28\n")
    with pytest.raises(TraceFormatError, match=rf"{bad}: not UTF-8 text: "):
        list(cls(bad))


def test_msr_page_past_int64_is_a_format_error(tmp_path):
    path = write_lines(tmp_path / "m.csv", ["1,h,0,Read,0,512", f"2,h,0,Read,{2**80},512"])
    with pytest.raises(TraceFormatError, match=rf"{path}:2: page \d+ does not fit in int64"):
        list(MsrTraceStream(path, page_bytes=1))


# -- ingest spans --------------------------------------------------------------


@pytest.fixture
def ring_tracer():
    sink = RingBufferSink()
    spans.enable(SpanTracer(sinks=[sink]))
    yield sink
    spans.disable()


def test_convert_records_parse_append_and_finalize_spans(tmp_path, ring_tracer):
    text = HEADER + canonical(0, 600, flags=True) + "0x10 w\n" + canonical(0, 600)
    src = tmp_path / "t.txt"
    src.write_text(text)
    convert_to_rtc(src, tmp_path / "t.rtc", chunk=100)
    records = ring_tracer.of_type("span")
    parse = [r for r in records if r["name"] == "stream.parse"]
    assert sum(r["attrs"]["accesses"] for r in parse) == 1201
    assert sum(r["attrs"]["fast_lines"] + r["attrs"]["slow_lines"] for r in parse) == 1203
    # One ~1600-character block around the hex id goes line by line.
    assert sum(r["attrs"]["fast_lines"] for r in parse) > 600
    assert sum(r["attrs"]["slow_lines"] for r in parse) >= 3
    append = [r for r in records if r["name"] == "rtc.append"]
    assert [r["attrs"]["accesses"] for r in append] == [100] * 12 + [1]
    (finalize,) = [r for r in records if r["name"] == "rtc.finalize"]
    assert finalize["attrs"]["accesses"] == 1201
    assert finalize["attrs"]["distinct"] == rtc_info(tmp_path / "t.rtc")["n_distinct"]
    # Parsing and appending alternate; neither nests in the other.
    parse_ids = {r["span_id"] for r in parse}
    assert not any(r["parent_id"] in parse_ids for r in append)


def test_csv_streams_record_slow_lines(tmp_path, ring_tracer):
    path = write_lines(tmp_path / "k.csv", ["# keys", "1,a,get", "2,b,set", "3,a,get"])
    list(KvTraceStream(path))
    parse = [r for r in ring_tracer.of_type("span") if r["name"] == "stream.parse"]
    assert sum(r["attrs"]["accesses"] for r in parse) == 3
    assert sum(r["attrs"]["slow_lines"] for r in parse) == 4
    assert sum(r["attrs"]["fast_lines"] for r in parse) == 0


@pytest.mark.parametrize("packed", [False, True], ids=["plain", "gzip"])
def test_text_source_closes_its_file(tmp_path, packed):
    import gc
    import warnings

    path = tmp_path / "t.txt"
    data = b"1\n2\n"
    path.write_bytes(gzip.compress(data) if packed else data)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with open_text_source(path) as fh:
            assert fh.read() == "1\n2\n"
        del fh
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
