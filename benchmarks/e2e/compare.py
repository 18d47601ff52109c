"""Compare two sets of end-to-end benchmark records.

    python3 benchmarks/e2e/compare.py A1.json A2.json ... -- B1.json B2.json ...

Each file is a record written by ``run.py --out`` (or a list of them,
as the all-workloads mode writes).  For every (workload, end-to-end
metric) pair the sides' medians and quartiles are compared against the
metric's bound in BENCHMARK.json:

* ``agree``      — B's median is within the bound of A's;
* ``B better`` / ``B worse`` — the medians differ by more than the bound;
* ``unresolved`` — a side's quartile spread (as a share of its median)
  is wider than the bound, so a difference of that size cannot be
  told from noise; reported as ``B better`` only when every B run
  beats every A run.

Prints one row per workload, then the quartiles behind each verdict.
Exits 1 when any pair reads ``B worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_records(paths: List[str]) -> List[Dict[str, Any]]:
    records: List[Dict[str, Any]] = []
    for path in paths:
        data = json.loads(Path(path).read_text())
        records.extend(data if isinstance(data, list) else [data])
    return records


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    qa, qb = quartiles(a), quartiles(b)
    spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (qa, qb))
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
    if spread > bound:
        b_wins = all(sign * (y - x) > 0 for x in a for y in b)
        return "B better" if b_wins else "unresolved"
    if gain < -bound:
        return "B worse"
    if gain > bound:
        return "B better"
    return "agree"


def compare(a_paths: List[str], b_paths: List[str]) -> Tuple[str, bool]:
    """The report text, and whether any pair reads ``B worse``."""
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    sides = [load_records(a_paths), load_records(b_paths)]
    workloads = sorted({r["workload"] for side in sides for r in side})
    rows: List[str] = []
    details: List[str] = []
    worse = False
    for workload in workloads:
        cells = []
        for m in metrics:
            a, b = (
                [r["metrics"][m["name"]]["value"] for r in side
                 if r["workload"] == workload and m["name"] in r["metrics"]]
                for side in sides
            )
            if not a or not b:
                cells.append(f"{m['name']}: missing")
                continue
            v = verdict(a, b, m["better"], m["bound"])
            worse |= v == "B worse"
            cells.append(f"{m['name']}: {v}")
            qa, qb = quartiles(a), quartiles(b)
            details.append(
                f"  {workload:<9} {m['name']:<16} A {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}] n={len(a)}"
                f"  B {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] n={len(b)}"
                f"  {(qb[1] - qa[1]) / qa[1]:+.1%} (bound {m['bound']:.0%}, {m['better']} is better)"
            )
        rows.append(f"{workload:<9} " + "; ".join(cells))
    text = "\n".join(rows + ["", "median [q1, q3] per side:"] + details)
    return text, worse


def main(argv: List[str]) -> int:
    if "--" not in argv:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    cut = argv.index("--")
    a_paths, b_paths = argv[:cut], argv[cut + 1 :]
    if not a_paths or not b_paths:
        print("error: need at least one record file on each side of --", file=sys.stderr)
        return 2
    text, worse = compare(a_paths, b_paths)
    print(text)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
