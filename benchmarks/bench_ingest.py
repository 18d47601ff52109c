"""E-INGEST: SHARDS-sampled MRCs vs exact, and bounded-memory ingestion.

Two claims are flight-recorded:

* **Sampled speedup** — computing the item-LRU miss-ratio curve from a
  SHARDS sample (rate ``REPRO_INGEST_RATE``, default 5 %) is at least
  ``REPRO_INGEST_GATE`` (default 10) times faster end-to-end than the
  exact batched Mattson replay, while the worst absolute miss-ratio
  error across the capacity grid stays within
  ``REPRO_INGEST_ERR_GATE`` (default 0.02, i.e. two points).  The
  reference workload is the evenly-loaded Markov spatial walk — the
  regime where the block-closed estimator's documented error model
  applies at 5 % (``docs/traces.md``; Zipf-skewed block popularity
  needs higher rates).  The exact block-LRU curve over the same grid
  is timed too (``exact_block_seconds``, recorded, not gated).  Every
  curve timing is the median of ``REPEATS`` (3) runs.
* **Bounded ingestion** — a child process converting a text trace to
  ``.rtc`` with a deliberately small chunk never grows its peak RSS by
  more than one tenth of the resulting file: the trace streamed
  through is >= 10x larger than the memory the converter held.

The same child also times its conversion; ``convert_accesses_per_s``
(text parse + ``.rtc`` write throughput) is recorded, not gated.

Knobs (env vars, so the CI smoke job can shrink the run):

* ``REPRO_INGEST_BENCH_LEN`` — MRC trace length (default 2_000_000)
* ``REPRO_INGEST_RATE``      — SHARDS rate (default 0.05)
* ``REPRO_INGEST_GATE``      — minimum sampled-vs-exact speedup (10.0)
* ``REPRO_INGEST_ERR_GATE``  — max absolute curve error (0.02)
* ``REPRO_INGEST_RSS_LEN``   — conversion trace length (default 4_000_000)

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_ingest.py``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from _harness import metric, write_bench
from repro.analysis.mrc import sampled_miss_ratio_curve
from repro.core.fast import multi_capacity_replay
from repro.workloads import markov_spatial

LENGTH = int(os.environ.get("REPRO_INGEST_BENCH_LEN", "2000000"))
RATE = float(os.environ.get("REPRO_INGEST_RATE", "0.05"))
GATE = float(os.environ.get("REPRO_INGEST_GATE", "10.0"))
ERR_GATE = float(os.environ.get("REPRO_INGEST_ERR_GATE", "0.02"))
RSS_LEN = int(os.environ.get("REPRO_INGEST_RSS_LEN", "4000000"))

UNIVERSE = 131_072
BLOCK_SIZE = 8
CAPACITIES = [4096, 16_384, 65_536, 131_072]
SAMPLER_SEED = 0
CONVERT_CHUNK = 8192
#: Timings per curve; ``speedup`` divides the median exact timing by
#: the median sampled one, so one slow ~0.1 s sample cannot swing it.
REPEATS = 3

# The child measures its own high-water mark, ``VmHWM`` from
# /proc/self/status (Linux), after its imports.  ``ru_maxrss`` would not
# do: Linux carries it across fork+exec, so the child would start at the
# parent's (much larger) peak from generating the workload in memory.
_RSS_CHILD = r"""
import json, sys, time
from repro.workloads.stream import convert_to_rtc

def vm_hwm_kb():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")

src, out, chunk = sys.argv[1], sys.argv[2], int(sys.argv[3])
baseline_kb = vm_hwm_kb()
t0 = time.perf_counter()
convert_to_rtc(src, out, chunk=chunk)
seconds = time.perf_counter() - t0
peak_kb = vm_hwm_kb()
print(json.dumps({"baseline_kb": baseline_kb, "peak_kb": peak_kb, "seconds": seconds}))
"""


def _median_timing(run):
    """``run()``'s result and its median wall time over ``REPEATS`` calls."""
    seconds = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = run()
        seconds.append(time.perf_counter() - t0)
    return result, statistics.median(seconds)


def test_ingest_bench(tmp_path):
    trace = markov_spatial(
        length=LENGTH,
        universe=UNIVERSE,
        block_size=BLOCK_SIZE,
        stay=0.8,
        seed=11,
    )
    caps = [k for k in CAPACITIES if k <= UNIVERSE]

    item, t_exact = _median_timing(
        lambda: multi_capacity_replay("item-lru", trace, caps)
    )
    exact = {k: r.miss_ratio for k, r in item.items()}
    _, t_exact_block = _median_timing(
        lambda: multi_capacity_replay("block-lru", trace, caps)
    )
    approx, t_sampled = _median_timing(
        lambda: dict(sampled_miss_ratio_curve(trace, caps, RATE, seed=SAMPLER_SEED))
    )

    max_err = max(abs(approx[k] - exact[k]) for k in caps)
    speedup = t_exact / max(t_sampled, 1e-9)

    # -- bounded-memory conversion in a fresh child ----------------------
    src = tmp_path / "rss.txt"
    rss_trace = markov_spatial(
        length=RSS_LEN,
        universe=UNIVERSE,
        block_size=BLOCK_SIZE,
        stay=0.8,
        seed=12,
    )
    with open(src, "w") as fh:
        fh.write(f"# universe: {UNIVERSE}\n# block_size: {BLOCK_SIZE}\n")
        items = np.asarray(rss_trace.items)
        for lo in range(0, len(items), 262_144):
            fh.write("\n".join(map(str, items[lo : lo + 262_144].tolist())))
            fh.write("\n")
    del rss_trace, items

    out = tmp_path / "rss.rtc"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_CHILD, str(src), str(out), str(CONVERT_CHUNK)],
        capture_output=True,
        text=True,
        env=env,
        timeout=1200,
    )
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout)
    rss_increment = (child["peak_kb"] - child["baseline_kb"]) * 1024
    rtc_bytes = out.stat().st_size
    rss_cap = rtc_bytes / 10
    rss_cap_ratio = rss_increment / rss_cap
    convert_rate = RSS_LEN / child["seconds"]

    write_bench(
        "ingest",
        metrics={
            "exact_seconds": metric(t_exact, "s", "lower"),
            "exact_block_seconds": metric(t_exact_block, "s", "lower"),
            "sampled_seconds": metric(t_sampled, "s", "lower"),
            "speedup": metric(speedup, "x", "higher"),
            "max_abs_error": metric(max_err, "miss-ratio", "lower"),
            "rss_cap_ratio": metric(rss_cap_ratio, "ratio", "lower"),
            "convert_accesses_per_s": metric(convert_rate, "accesses/s", "higher"),
        },
        extra={
            "length": LENGTH,
            "universe": UNIVERSE,
            "block_size": BLOCK_SIZE,
            "capacities": caps,
            "rate": RATE,
            "sampler_seed": SAMPLER_SEED,
            "timing_repeats": REPEATS,
            "gate": GATE,
            "err_gate": ERR_GATE,
            "exact_curve": exact,
            "sampled_curve": approx,
            "rss_length": RSS_LEN,
            "rtc_bytes": rtc_bytes,
            "rss_increment_bytes": rss_increment,
            "convert_seconds": child["seconds"],
            "convert_chunk": CONVERT_CHUNK,
        },
    )

    assert max_err <= ERR_GATE, (
        f"sampled MRC error {max_err:.4f} exceeds {ERR_GATE} "
        f"(rate={RATE}, seed={SAMPLER_SEED})"
    )
    assert speedup >= GATE, (
        f"sampled-vs-exact speedup {speedup:.1f}x below the {GATE}x gate "
        f"(exact {t_exact:.2f}s, sampled {t_sampled:.2f}s)"
    )
    assert rss_cap_ratio < 1.0, (
        f"converter peak RSS grew {rss_increment / 1e6:.1f} MB — more than "
        f"a tenth of the {rtc_bytes / 1e6:.1f} MB trace it streamed"
    )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(pytest.main([__file__, "-x", "-q"]))
