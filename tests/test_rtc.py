"""Compiled-trace (.rtc) format tests: round-trip, fingerprint parity,
mmap replay bit-identity, the stale-memo regression, and campaign
integration (zero-recompute resume over the same file, parallel workers
that inherit the planned trace)."""

import numpy as np
import pytest

from repro.campaign import CampaignRunner, CampaignSpec, TraceSpec
from repro.core.conformance import (
    assert_mmap_conformant,
    mmap_conformance_suite,
)
from repro.core.fast import (
    FAST_POLICY_NAMES,
    compile_trace,
    fast_simulate,
    multi_capacity_replay,
    multi_policy_replay,
)
from repro.core.mapping import FixedBlockMapping
from repro.core.rtc import (
    RTC_MAGIC,
    RtcWriter,
    file_memo_key,
    open_rtc,
    rtc_info,
    trace_to_rtc,
)
from repro.core.trace import Trace
from repro.errors import ConfigurationError, TraceFormatError
from repro.policies import make_policy
from repro.workloads import markov_spatial, zipf_items


def small_trace(length=6000, universe=1024, block_size=8, seed=2):
    return zipf_items(
        length=length, universe=universe, block_size=block_size,
        alpha=0.9, seed=seed,
    )


# -- format round-trip -------------------------------------------------------


def test_roundtrip_preserves_trace(tmp_path):
    trace = small_trace()
    path = trace_to_rtc(trace, tmp_path / "t.rtc")
    loaded = open_rtc(path)
    assert np.array_equal(np.asarray(loaded.items), np.asarray(trace.items))
    assert loaded.mapping.universe == trace.mapping.universe
    assert loaded.mapping.max_block_size == trace.mapping.max_block_size
    assert loaded.metadata == trace.metadata


def test_fingerprint_parity_with_in_memory(tmp_path):
    """Conversion must not change identity: campaign cells memoize across
    the on-disk and in-memory representations."""
    trace = small_trace()
    loaded = open_rtc(trace_to_rtc(trace, tmp_path / "t.rtc"))
    assert loaded.fingerprint() == trace.fingerprint()


def test_rtc_info_reads_header_only(tmp_path):
    trace = small_trace(length=500)
    path = trace_to_rtc(trace, tmp_path / "t.rtc")
    info = rtc_info(path)
    assert info["n"] == 500
    assert info["block_size"] == 8
    assert info["fingerprint"] == trace.fingerprint()
    assert info["file_bytes"] == path.stat().st_size


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bogus.rtc"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(TraceFormatError, match="not an .rtc file"):
        open_rtc(path)


def test_truncated_columns_rejected(tmp_path):
    trace = small_trace(length=2000)
    path = trace_to_rtc(trace, tmp_path / "t.rtc")
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(TraceFormatError, match="truncated"):
        open_rtc(path)


def test_writer_rejects_negative_items(tmp_path):
    writer = RtcWriter(tmp_path / "t.rtc", block_size=4)
    with pytest.raises(TraceFormatError, match="non-negative"):
        writer.append(np.asarray([1, -2, 3]))
    writer.abort()


def test_writer_empty_is_format_error(tmp_path):
    writer = RtcWriter(tmp_path / "t.rtc", block_size=4)
    with pytest.raises(TraceFormatError, match="no accesses"):
        writer.finalize()
    assert not (tmp_path / "t.rtc").exists()


def test_magic_constant_spelled():
    assert RTC_MAGIC == b"RTC1"


# -- stale-memo regression ---------------------------------------------------


def test_edited_rtc_gets_fresh_compilation(tmp_path):
    """Editing column bytes in place must never serve a stale compiled
    trace.  The header fingerprint cannot see such an edit (it is not
    recomputed from the columns on open), so the compile memo keys mmap
    traces by file digest + mtime + size instead of by fingerprint."""
    items = np.arange(64, dtype=np.int64) % 32
    trace = Trace(items, FixedBlockMapping(universe=32, block_size=4))
    path = trace_to_rtc(trace, tmp_path / "t.rtc")

    first = open_rtc(path)
    compiled = compile_trace(first)
    col_offset = first._rtc.items.offset
    assert next(iter(compiled.iter_chunks()))[0][0] == 0

    # In-place edit of the first item (0 -> 1, same block): header —
    # including the stored fingerprint — is untouched.
    with open(path, "r+b") as fh:
        fh.seek(col_offset)
        fh.write(np.int64(1).tobytes())

    second = open_rtc(path)
    assert second.fingerprint() == first.fingerprint()  # header lies
    assert second._memo_key != first._memo_key  # memo key does not
    recompiled = compile_trace(second)
    assert next(iter(recompiled.iter_chunks()))[0][0] == 1


def test_file_memo_key_tracks_mtime(tmp_path):
    trace = small_trace(length=200)
    path = trace_to_rtc(trace, tmp_path / "t.rtc")
    rtc = open_rtc(path)._rtc
    key = file_memo_key(path, rtc.header_bytes)
    import os

    os.utime(path, ns=(rtc.mtime_ns + 10, rtc.mtime_ns + 10))
    assert file_memo_key(path, rtc.header_bytes) != key


# -- mmap replay bit-identity ------------------------------------------------


def test_mmap_replay_bit_identical_all_policies(tmp_path):
    """Acceptance criterion: replay over an mmap-backed .rtc trace is
    bit-identical to the in-memory trace for every registered policy."""
    traces = {
        "zipf": small_trace(),
        "markov": markov_spatial(
            length=6000, universe=1024, block_size=8, stay=0.8, seed=3
        ),
    }
    rows = mmap_conformance_suite(traces, [64, 256], tmp_path)
    assert len(rows) == len(traces) * len(FAST_POLICY_NAMES) * 2
    bad = [r for r in rows if not r["ok"]]
    assert not bad, bad


def test_assert_mmap_conformant_single_cell(tmp_path):
    trace = small_trace(length=3000)
    mm = open_rtc(trace_to_rtc(trace, tmp_path / "t.rtc"))
    report = assert_mmap_conformant("iblp", 128, trace, mm)
    assert report.ok and report.accesses == 3000


def test_mmap_conformance_rejects_different_traces(tmp_path):
    a = small_trace(seed=1)
    b = open_rtc(trace_to_rtc(small_trace(seed=2), tmp_path / "b.rtc"))
    with pytest.raises(ConfigurationError, match="same logical trace"):
        assert_mmap_conformant("item-lru", 64, a, b)


def test_mmap_multi_capacity_and_multi_policy_parity(tmp_path):
    trace = small_trace()
    mm = open_rtc(trace_to_rtc(trace, tmp_path / "t.rtc"))
    caps = [32, 128, 512]
    mem = multi_capacity_replay("item-lru", trace, caps)
    mmr = multi_capacity_replay("item-lru", mm, caps)
    assert {k: r.as_row() for k, r in mem.items()} == {
        k: r.as_row() for k, r in mmr.items()
    }
    cells = [("item-lru", 64), ("block-lru", 64), ("iblp", 128)]
    mem_rows = [r.as_row() for r in multi_policy_replay(cells, trace)]
    mm_rows = [r.as_row() for r in multi_policy_replay(cells, mm)]
    assert mem_rows == mm_rows


def test_fast_simulate_streams_mmap_chunked(tmp_path):
    """A chunk far smaller than the trace still replays identically —
    the kernels are resumable steppers, so traversal granularity is
    invisible."""
    trace = small_trace(length=5000)
    mm = open_rtc(trace_to_rtc(trace, tmp_path / "t.rtc"))
    compiled = compile_trace(mm)
    seen = 0
    for items_c, _blocks_c, _dense_c in compiled.iter_chunks(512):
        assert len(items_c) <= 512
        seen += len(items_c)
    assert seen == 5000
    policy = make_policy("block-lru", 128, mm.mapping)
    ref = fast_simulate(make_policy("block-lru", 128, trace.mapping), trace)
    got = fast_simulate(policy, mm)
    assert got.as_row() == ref.as_row()


# -- campaign integration ----------------------------------------------------


def test_trace_spec_rtc_round_trip(tmp_path):
    trace = small_trace(length=1500)
    path = trace_to_rtc(trace, tmp_path / "t.rtc")
    spec = TraceSpec(kind="rtc", path=str(path))
    assert spec.materialize().fingerprint() == trace.fingerprint()
    again = TraceSpec.from_dict(spec.as_dict())
    assert again.kind == "rtc" and again.path == str(path)
    assert spec.as_dict() == {"kind": "rtc", "path": str(path)}


def test_trace_spec_rtc_missing_file(tmp_path):
    with pytest.raises(ConfigurationError, match="does not exist"):
        TraceSpec(kind="rtc", path=str(tmp_path / "gone.rtc")).materialize()


def test_campaign_resume_recomputes_zero_cells(tmp_path):
    """Acceptance criterion: a campaign resumed against the same .rtc
    file recomputes nothing — the mmap trace fingerprints identically
    run over run, so every cell is a memo hit."""
    trace = small_trace(length=2500)
    path = trace_to_rtc(trace, tmp_path / "t.rtc")
    spec = CampaignSpec.from_grid(
        name="rtc",
        policies=["item-lru", "block-lru"],
        capacities=[32, 128],
        traces={"t": TraceSpec(kind="rtc", path=str(path))},
        fast=True,
    )
    camp_dir = tmp_path / "camp"
    with CampaignRunner(camp_dir, spec) as runner:
        first = runner.run()
    assert first.computed == 4 and first.memo_hits == 0
    with CampaignRunner(camp_dir, spec) as runner:
        second = runner.run()
    assert second.computed == 0 and second.memo_hits == 4
    rows_first = sorted(
        (o.cell.policy, o.cell.capacity, o.result.miss_ratio)
        for o in first.done
    )
    rows_second = sorted(
        (o.cell.policy, o.cell.capacity, o.result.miss_ratio)
        for o in second.done
    )
    assert rows_first == rows_second


def test_campaign_parallel_over_rtc(tmp_path):
    trace = small_trace(length=2500)
    path = trace_to_rtc(trace, tmp_path / "t.rtc")
    spec = CampaignSpec.from_grid(
        name="rtc-par",
        policies=["item-lru", "iblp"],
        capacities=[64],
        traces={"t": TraceSpec(kind="rtc", path=str(path))},
        fast=True,
    )
    with CampaignRunner(
        tmp_path / "camp", spec, parallel=True, max_workers=2
    ) as runner:
        report = runner.run()
    assert report.computed == 2 and not report.quarantined


def _mixed_spec(rtc_path):
    return CampaignSpec.from_grid(
        name="mixed",
        policies=["item-lru", "block-lru", "iblp"],
        capacities=[32, 128],
        traces={
            "mem": TraceSpec(
                kind="workload",
                name="zipf",
                params={"length": 2000, "universe": 512, "block_size": 8},
            ),
            "rtc": TraceSpec(kind="rtc", path=str(rtc_path)),
        },
        fast=True,
    )


def _run_rows(directory, spec, parallel):
    with CampaignRunner(directory, spec, parallel=parallel, max_workers=2) as runner:
        report = runner.run()
    assert not report.quarantined
    return report.rows()


def test_parallel_campaign_creates_no_shared_memory(tmp_path, monkeypatch):
    """Workers inherit both trace kinds; nothing is published to shm."""
    from multiprocessing import shared_memory

    created = []

    def refuse(*args, **kwargs):
        created.append((args, kwargs))
        raise OSError("shared memory is off limits")

    spec = _mixed_spec(trace_to_rtc(small_trace(length=2500), tmp_path / "t.rtc"))
    serial = _run_rows(tmp_path / "serial", spec, parallel=False)
    monkeypatch.setattr(shared_memory, "SharedMemory", refuse)
    parallel = _run_rows(tmp_path / "parallel", spec, parallel=True)
    assert created == []
    assert parallel == serial


def test_parallel_campaign_survives_rtc_reconverted_after_planning(
    tmp_path, monkeypatch
):
    """A worker replays the trace that was planned, not the file's
    later contents: the re-conversion replaces the path's inode, and
    the worker keeps the planned mapping."""
    path = trace_to_rtc(small_trace(length=2500), tmp_path / "t.rtc")
    spec = _mixed_spec(path)
    planned = _run_rows(tmp_path / "serial", spec, parallel=False)
    original_plan = CampaignRunner._plan

    def plan_then_reconvert(self):
        result = original_plan(self)
        trace_to_rtc(small_trace(length=2500, seed=9), path)
        return result

    monkeypatch.setattr(CampaignRunner, "_plan", plan_then_reconvert)
    assert _run_rows(tmp_path / "parallel", spec, parallel=True) == planned
    assert open_rtc(path).fingerprint() != small_trace(length=2500).fingerprint()
