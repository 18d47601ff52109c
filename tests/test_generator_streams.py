"""The synthetic trace generators on the raw PCG64 stream.

``block_runs``, ``markov_spatial``, ``block_zipf``, ``hot_and_stream``,
``dram_cache_workload`` and ``page_cache_workload`` draw from
:func:`repro.core.raw_stream.generator_stream`, a pure-Python replay of
``numpy.random.default_rng(seed)``'s scalar calls.  A trace's
fingerprint is a campaign cell's address, so the generators must stay
bit-identical to the numpy-call bodies they replaced.  These tests pin:

* ``tests/golden/generator_fingerprints.jsonl``: fingerprint, length,
  mapping and metadata of all seven generators over seeds and
  parameter sets (B = 1, full-block runs, ``stay = 0``, non-power-of-
  two block counts, universes that are not a multiple of B), recorded
  from the numpy-call bodies — on the raw stream and under a forced
  numpy fallback;
* the numpy-call bodies themselves (kept below as the oracle) against
  the generators over random parameters;
* typed errors for parameters numpy used to reject mid-draw;
* the ``campaign.materialize`` span naming the draw stream.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import workloads
from repro.campaign.spec import TraceSpec
from repro.core import raw_stream
from repro.core.mapping import FixedBlockMapping
from repro.core.trace import Trace
from repro.errors import ConfigurationError
from repro.telemetry import spans

#: One case per line.  JSON lines, not ``*.json``: ``tests/golden/*.json``
#: are the policy-result fixtures of ``test_golden_traces.py``.
GOLDEN = [
    json.loads(line)
    for line in (Path(__file__).parent / "golden" / "generator_fingerprints.jsonl")
    .read_text()
    .splitlines()
]


# -- the numpy-call bodies the generators replaced (the oracle) ---------------


def _mapping(universe, block_size):
    rounded = -(-universe // block_size) * block_size
    return FixedBlockMapping(universe=rounded, block_size=block_size)


def oracle_block_runs(length, universe, block_size=8, run_length=None, seed=0):
    if run_length is None:
        run_length = block_size
    mapping = _mapping(universe, block_size)
    rng = np.random.default_rng(seed)
    accesses = []
    while len(accesses) < length:
        blk = int(rng.integers(mapping.num_blocks))
        members = mapping.items_in(blk)
        picks = rng.choice(
            len(members), size=min(run_length, len(members)), replace=False
        )
        accesses.extend(int(members[i]) for i in picks)
    return np.asarray(accesses[:length], dtype=np.int64), mapping


def oracle_markov_spatial(length, universe, block_size=8, stay=0.8, seed=0):
    mapping = _mapping(universe, block_size)
    rng = np.random.default_rng(seed)
    accesses = np.empty(length, dtype=np.int64)
    blk = int(rng.integers(mapping.num_blocks))
    for pos in range(length):
        if rng.random() >= stay:
            blk = int(rng.integers(mapping.num_blocks))
        members = mapping.items_in(blk)
        accesses[pos] = members[int(rng.integers(len(members)))]
    return accesses, mapping


def oracle_interleaved_streams(length, streams, blocks_per_stream, block_size=8):
    mapping = _mapping(streams * blocks_per_stream * block_size, block_size)
    lap = blocks_per_stream * block_size
    accesses = np.empty(length, dtype=np.int64)
    for pos in range(length):
        accesses[pos] = (pos % streams) * lap + (pos // streams) % lap
    return accesses, mapping


def oracle_block_zipf(
    length, universe, block_size=8, alpha=1.0, within_run=4, seed=0
):
    mapping = _mapping(universe, block_size)
    rng = np.random.default_rng(seed)
    nblocks = mapping.num_blocks
    weights = np.arange(1, nblocks + 1, dtype=float) ** -alpha
    weights /= weights.sum()
    block_ids = np.arange(nblocks)
    rng.shuffle(block_ids)
    accesses = []
    while len(accesses) < length:
        blk = int(rng.choice(block_ids, p=weights))
        members = mapping.items_in(blk)
        picks = rng.choice(
            len(members), size=min(within_run, len(members)), replace=False
        )
        accesses.extend(int(members[i]) for i in picks)
    return np.asarray(accesses[:length], dtype=np.int64), mapping


def oracle_hot_and_stream(
    length,
    hot_items,
    stream_blocks,
    block_size=8,
    hot_fraction=0.5,
    zipf_alpha=0.8,
    scatter_hot=True,
    seed=0,
):
    hot_blocks = hot_items if scatter_hot else -(-hot_items // block_size)
    universe = (hot_blocks + stream_blocks) * block_size
    mapping = FixedBlockMapping(universe=universe, block_size=block_size)
    rng = np.random.default_rng(seed)
    weights = np.arange(1, hot_items + 1, dtype=float) ** -zipf_alpha
    weights /= weights.sum()
    hot_ids = np.arange(hot_items, dtype=np.int64)
    if scatter_hot:
        hot_ids *= block_size
    stream_start = hot_blocks * block_size
    stream_len = stream_blocks * block_size
    accesses = np.empty(length, dtype=np.int64)
    cursor = 0
    for pos in range(length):
        if rng.random() < hot_fraction:
            accesses[pos] = rng.choice(hot_ids, p=weights)
        else:
            accesses[pos] = stream_start + cursor
            cursor = (cursor + 1) % stream_len
    return accesses, mapping


def oracle_dram_cache_workload(
    length=100_000,
    rows=512,
    lines_per_row=64,
    hot_row_fraction=0.1,
    burst_mean=8.0,
    noise_fraction=0.2,
    seed=0,
):
    mapping = FixedBlockMapping(
        universe=rows * lines_per_row, block_size=lines_per_row
    )
    rng = np.random.default_rng(seed)
    n_hot = max(1, int(rows * hot_row_fraction))
    weights = np.arange(1, n_hot + 1, dtype=float) ** -1.0
    weights /= weights.sum()
    hot_rows = rng.permutation(rows)[:n_hot]
    accesses = []
    p_end = min(1.0, 1.0 / burst_mean)
    while len(accesses) < length:
        if rng.random() < noise_fraction:
            row = int(rng.integers(rows))
            accesses.append(row * lines_per_row + int(rng.integers(lines_per_row)))
            continue
        row = int(rng.choice(hot_rows, p=weights))
        start = int(rng.integers(lines_per_row))
        offset = 0
        while True:
            accesses.append(row * lines_per_row + (start + offset) % lines_per_row)
            offset += 1
            if rng.random() < p_end or offset >= lines_per_row:
                break
    return np.asarray(accesses[:length], dtype=np.int64), mapping


def oracle_page_cache_workload(
    length=100_000,
    files=64,
    pages_per_file=32,
    scan_fraction=0.5,
    hot_pages=128,
    seed=0,
):
    universe = files * pages_per_file
    hot_pages = min(hot_pages, universe)
    mapping = FixedBlockMapping(universe=universe, block_size=pages_per_file)
    rng = np.random.default_rng(seed)
    hot_ids = rng.permutation(universe)[:hot_pages]
    weights = np.arange(1, hot_pages + 1, dtype=float) ** -0.9
    weights /= weights.sum()
    accesses = []
    while len(accesses) < length:
        if rng.random() < scan_fraction:
            base = int(rng.integers(files)) * pages_per_file
            accesses.extend(range(base, base + pages_per_file))
        else:
            accesses.append(int(rng.choice(hot_ids, p=weights)))
    return np.asarray(accesses[:length], dtype=np.int64), mapping


ORACLES = {
    "block_runs": oracle_block_runs,
    "markov_spatial": oracle_markov_spatial,
    "interleaved_streams": oracle_interleaved_streams,
    "block_zipf": oracle_block_zipf,
    "hot_and_stream": oracle_hot_and_stream,
    "dram_cache_workload": oracle_dram_cache_workload,
    "page_cache_workload": oracle_page_cache_workload,
}


# -- pinned fingerprints ------------------------------------------------------


def _case_id(case):
    return f"{case['generator']}-{case['fingerprint'][:8]}"


def _assert_matches_golden(case):
    trace = getattr(workloads, case["generator"])(**case["params"])
    assert trace.fingerprint() == case["fingerprint"]
    assert len(trace) == case["length"]
    assert trace.mapping.universe == case["mapping"]["universe"]
    assert trace.mapping.max_block_size == case["mapping"]["block_size"]
    assert trace.metadata == case["metadata"]


def test_golden_covers_every_generator_and_edge():
    names = {c["generator"] for c in GOLDEN}
    assert names == set(ORACLES)
    for name in names - {"interleaved_streams"}:
        rows = [c for c in GOLDEN if c["generator"] == name]
        assert len({c["params"]["seed"] for c in rows}) >= 3
        assert len({json.dumps(dict(c["params"], seed=0)) for c in rows}) >= 3
    params = [c["params"] for c in GOLDEN]
    assert any(p.get("block_size") == 1 for p in params)
    assert any(p.get("run_length") == p["block_size"] for p in params)
    assert any(p.get("within_run") == p["block_size"] for p in params)
    assert any(p.get("stay") == 0.0 for p in params)
    assert any(
        "universe" in p and p["universe"] % p["block_size"] for p in params
    )
    nblocks = [c["mapping"]["universe"] // c["mapping"]["block_size"] for c in GOLDEN]
    assert any(n & (n - 1) for n in nblocks)


@pytest.mark.parametrize("case", GOLDEN, ids=_case_id)
def test_generator_matches_pinned_fingerprint(case):
    assert raw_stream.raw_stream_ok()
    _assert_matches_golden(case)


@pytest.mark.parametrize("case", GOLDEN, ids=_case_id)
def test_generator_matches_pinned_fingerprint_on_numpy_fallback(
    case, forced_fallback
):
    _assert_matches_golden(case)


@pytest.mark.parametrize(
    "case", GOLDEN[:: max(1, len(GOLDEN) // 12)], ids=_case_id
)
def test_oracle_reproduces_pinned_fingerprint(case):
    items, mapping = ORACLES[case["generator"]](**case["params"])
    assert Trace(items, mapping).fingerprint() == case["fingerprint"]


# -- the oracle over random parameters ----------------------------------------

_seeds = st.integers(min_value=0, max_value=2**63)
_lengths = st.integers(min_value=0, max_value=300)
_unit = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def _runs(draw, run_key):
    block_size = draw(st.integers(min_value=1, max_value=12))
    return {
        "length": draw(_lengths),
        "universe": draw(st.integers(min_value=1, max_value=400)),
        "block_size": block_size,
        run_key: draw(st.integers(min_value=1, max_value=block_size)),
        "seed": draw(_seeds),
    }


_PARAMS = {
    "block_runs": _runs("run_length"),
    "block_zipf": _runs("within_run").flatmap(
        lambda p: st.floats(min_value=0.0, max_value=2.5).map(
            lambda a: dict(p, alpha=a)
        )
    ),
    "markov_spatial": st.fixed_dictionaries(
        {
            "length": _lengths,
            "universe": st.integers(min_value=1, max_value=400),
            "block_size": st.integers(min_value=1, max_value=12),
            "stay": st.one_of(
                st.just(0.0), st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
            ),
            "seed": _seeds,
        }
    ),
    "interleaved_streams": st.fixed_dictionaries(
        {
            "length": _lengths,
            "streams": st.integers(min_value=1, max_value=5),
            "blocks_per_stream": st.integers(min_value=1, max_value=5),
            "block_size": st.integers(min_value=1, max_value=8),
        }
    ),
    "hot_and_stream": st.fixed_dictionaries(
        {
            "length": _lengths,
            "hot_items": st.integers(min_value=1, max_value=60),
            "stream_blocks": st.integers(min_value=1, max_value=20),
            "block_size": st.integers(min_value=1, max_value=8),
            "hot_fraction": _unit,
            "zipf_alpha": st.floats(min_value=-1.0, max_value=2.5),
            "scatter_hot": st.booleans(),
            "seed": _seeds,
        }
    ),
    "dram_cache_workload": st.fixed_dictionaries(
        {
            "length": _lengths,
            "rows": st.integers(min_value=2, max_value=40),
            "lines_per_row": st.integers(min_value=1, max_value=20),
            "hot_row_fraction": _unit,
            "burst_mean": st.floats(min_value=0.1, max_value=20.0),
            "noise_fraction": _unit,
            "seed": _seeds,
        }
    ),
    "page_cache_workload": st.fixed_dictionaries(
        {
            "length": _lengths,
            "files": st.integers(min_value=1, max_value=12),
            "pages_per_file": st.integers(min_value=1, max_value=10),
            "scan_fraction": _unit,
            "hot_pages": st.integers(min_value=1, max_value=200),
            "seed": _seeds,
        }
    ),
}


@settings(max_examples=200, deadline=None)
@given(
    case=st.one_of(
        [st.tuples(st.just(name), params) for name, params in _PARAMS.items()]
    )
)
def test_generators_match_numpy_oracle(case):
    name, params = case
    trace = getattr(workloads, name)(**params)
    items, mapping = ORACLES[name](**params)
    np.testing.assert_array_equal(trace.items, items)
    assert trace.items.dtype == np.int64
    assert trace.mapping.universe == mapping.universe
    assert trace.mapping.max_block_size == mapping.max_block_size


# -- typed errors before any draw ---------------------------------------------


@pytest.fixture
def no_draws(monkeypatch):
    """Any draw-stream construction fails the test: a parameter error
    must be raised first."""

    def refuse(*_args, **_kwargs):
        raise AssertionError("drew before validating")

    for module in ("spatial", "mixtures", "scenarios"):
        monkeypatch.setattr(
            f"repro.workloads.{module}.generator_stream", refuse
        )


@pytest.mark.parametrize("fraction", [2, 1.0001, -0.5, math.nan])
def test_dram_hot_row_fraction_outside_unit_interval(fraction, no_draws):
    with pytest.raises(ConfigurationError, match="hot_row_fraction"):
        workloads.dram_cache_workload(100, rows=8, lines_per_row=4, hot_row_fraction=fraction)


@pytest.mark.parametrize("hot_pages", [0, -3])
def test_page_cache_needs_a_hot_page(hot_pages, no_draws):
    with pytest.raises(ConfigurationError, match="hot_pages"):
        workloads.page_cache_workload(100, files=4, pages_per_file=4, hot_pages=hot_pages)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_block_zipf_alpha_must_be_finite(alpha, no_draws):
    with pytest.raises(ConfigurationError, match="alpha"):
        workloads.block_zipf(100, universe=64, alpha=alpha)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_hot_and_stream_zipf_alpha_must_be_finite(alpha, no_draws):
    with pytest.raises(ConfigurationError, match="zipf_alpha"):
        workloads.hot_and_stream(100, hot_items=8, stream_blocks=4, zipf_alpha=alpha)


# -- the materialize span -----------------------------------------------------


def _materialize_spans(path, specs):
    spans.enable(path)
    try:
        traces = [spec.materialize() for spec in specs]
    finally:
        spans.disable()
    records = [json.loads(line) for line in path.read_text().splitlines()]
    attrs = [r.get("attrs", {}) for r in records if r["name"] == "campaign.materialize"]
    return traces, attrs


_ZIPF_SPEC = TraceSpec(
    kind="workload",
    name="block_zipf",
    params={"length": 400, "universe": 512, "block_size": 8, "seed": 3},
)


def test_materialize_span_names_the_raw_stream(tmp_path):
    (trace,), (attrs,) = _materialize_spans(tmp_path / "s.jsonl", [_ZIPF_SPEC])
    assert attrs == {
        "kind": "workload",
        "name": "block_zipf",
        "accesses": 400,
        "rng": "raw",
    }
    # The stream kind stays out of the metadata: it feeds every digest.
    assert "rng" not in trace.metadata


def test_materialize_span_names_a_numpy_fallback(tmp_path, forced_fallback):
    (trace,), (attrs,) = _materialize_spans(tmp_path / "s.jsonl", [_ZIPF_SPEC])
    assert attrs["rng"] == "numpy"
    assert "rng" not in trace.metadata


def test_materialize_span_for_a_file_spec_has_no_stream(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("# universe: 16\n# block_size: 4\n1\n2\n3\n")
    spec = TraceSpec(kind="file", path=str(path))
    (trace,), (attrs,) = _materialize_spans(tmp_path / "s.jsonl", [spec])
    assert attrs == {"kind": "file", "name": str(path), "accesses": len(trace)}
