"""The perf flight recorder: uniform ``BENCH_<name>.json`` emission.

Every timing bench funnels its headline numbers through
:func:`write_bench`, which stamps the payload with the machine
fingerprint, the git sha, and a schema the comparison gate
(:mod:`repro.obs.bench_compare`) understands: a ``metrics`` mapping of
``{"value", "unit", "direction"}`` triples, where ``direction`` says
which way is *worse* — ``"lower"`` metrics (wall seconds) regress by
growing, ``"higher"`` metrics (speedups, throughput) by shrinking.

One record is written, ``BENCH_<name>.json`` at the repo root: the
flight-recorder location CI diffs against a committed baseline with
``gc-caching obs bench-compare``.

Raw wall seconds only compare on similar machines; derived ratios
(speedups) are machine-independent, which is why every bench also
records them and CI gates on those via ``--metrics``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional

__all__ = ["git_sha", "machine_fingerprint", "metric", "write_bench"]

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent

_DIRECTIONS = ("lower", "higher")


def git_sha() -> Optional[str]:
    """Current commit sha, or None outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    sha = proc.stdout.strip()
    return sha or None


def machine_fingerprint() -> Dict[str, Any]:
    """Enough context to judge whether two bench files are comparable."""
    return {
        "node": platform.node(),
        "system": platform.system(),
        "release": platform.release(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
    }


def metric(value: float, unit: str, direction: str = "lower") -> Dict[str, Any]:
    """One flight-recorder metric; ``direction`` is the *bad* way."""
    if direction not in _DIRECTIONS:
        raise ValueError(
            f"direction must be one of {_DIRECTIONS}, got {direction!r}"
        )
    return {"value": float(value), "unit": unit, "direction": direction}


def write_bench(
    name: str,
    metrics: Dict[str, Dict[str, Any]],
    extra: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write ``BENCH_<name>.json`` at the repo root.

    ``metrics`` values come from :func:`metric`; ``extra`` carries
    bench-specific context (trace lengths, worker counts, raw rows)
    that the compare gate ignores but humans want in the record.
    Returns its path.
    """
    for metric_name, payload in metrics.items():
        if "value" not in payload:
            raise ValueError(f"metric {metric_name!r} has no value")
        if payload.get("direction", "lower") not in _DIRECTIONS:
            raise ValueError(
                f"metric {metric_name!r} direction must be one of "
                f"{_DIRECTIONS}, got {payload.get('direction')!r}"
            )
    record: Dict[str, Any] = {
        "bench": name,
        "schema": 1,
        "unix_time": int(time.time()),
        "git_sha": git_sha(),
        "machine": machine_fingerprint(),
        "metrics": metrics,
    }
    if extra:
        for key in extra:
            if key in record:
                raise ValueError(f"extra key {key!r} shadows a harness field")
        record.update(extra)
    text = json.dumps(record, indent=1, sort_keys=True) + "\n"
    path = REPO_ROOT / f"BENCH_{name}.json"
    path.write_text(text)
    return path
