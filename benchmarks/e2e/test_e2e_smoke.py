"""Smoke test of the end-to-end benchmark at a tiny input scale.

Runs every workload untraced and traced at ``--scale 0.02`` and checks
the output contract: every metric BENCHMARK.json names is printed with
its unit, no op fails, and the digests repeat (a repeat mismatch makes
the run report ``correct: false``).  Also checks that the benchmark
refuses to run without the program source, and that compare.py reads
the all-workloads record.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = ["--scale", "0.02", "--seconds", "1", "--seed", "3"]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_prints_every_metric(tmp_path, workload, trace):
    out = tmp_path / "record.json"
    proc = run_bench("--workload", workload, "--trace", str(trace), *SMOKE, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in line["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in wanted}
    record = json.loads(out.read_text())
    assert record["repetitions"]["untraced"] >= 2  # digests compared across repeats
    if trace:
        assert record["repetitions"]["traced"] >= 2
        assert line["metrics"]["trace.unaccounted_share"]["value"] < 0.10
    else:
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_refuses_to_run_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in BENCHMARK["paths"]:
        shutil.copytree(
            ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__")
        )
    proc = run_bench("--workload", "serve", *SMOKE, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_all_workloads_then_compare(tmp_path):
    out = tmp_path / "all.json"
    proc = run_bench(*SMOKE, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    records = json.loads(out.read_text())
    assert sorted(r["workload"] for r in records) == sorted(
        w["name"] for w in BENCHMARK["workloads"]
    )
    cmp = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(out), "--", str(out)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert cmp.returncode == 0, cmp.stdout + cmp.stderr
    rows = cmp.stdout.split("\n\n")[0].splitlines()
    assert len(rows) == len(records)
    assert all("B worse" not in row and "missing" not in row for row in rows)
