"""End-to-end benchmark of the simulator (see README.md in this directory).

Run from the repository root:

    python3 benchmarks/e2e/run.py --workload campaign --seed 1 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --seed 1 --out results.json   # all four

One workload per process: setup (input generation in a child process,
three times, median reported) and then repetitions of the workload's
public-API calls until ``--seconds`` have passed.  The first repetition
warms up and is not timed.  Every repetition's simulated outputs are
checked and hashed; the digests must repeat, and for the pinned seeds
at scale 1 they must equal ``digests.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates traced and
untraced repetitions and reports the per-layer metrics of layers.py.
Without ``--workload`` each workload runs in turn in a fresh child.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = HERE / "digests.json"

WORKLOAD_NAMES = ("campaign", "ingest", "serve", "cluster")
#: End-to-end metrics (BENCHMARK.json ``end_to_end``) and their units.
END_TO_END = {
    "primary_per_s": "1/s",
    "secondary_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUPS = 3
#: Seconds :func:`calibration` takes on the host the bounds were set on
#: (a 2-CPU Xeon virtual machine, Python 3.11).  Rates are reported at
#: that host's speed; see README.md, "Noise and this sandbox".
CAL_REFERENCE_S = 0.034
#: Timed repetitions at least, per kind (untraced, and traced with --trace 1).
MIN_REPS = 2
SETUP_TIMEOUT_S = 150


def parse_args(argv: List[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                   help="one workload (default: all four, each in a child process)")
    p.add_argument("--seed", type=int, default=1, help="input seed")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="measurement window per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from a traced run")
    p.add_argument("--scale", type=float, default=1.0,
                   help="multiply every input size (smoke tests use 0.02)")
    p.add_argument("--out", default=None, help="write the full JSON record here")
    return p.parse_args(argv)


def generate_inputs(workload: str, seed: int, scale: float, out_dir: Path) -> None:
    """Setup child: generate and write the workload's inputs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), "generate",
         workload, str(seed), repr(scale), str(out_dir)],
        check=True,
        env=env,
        timeout=SETUP_TIMEOUT_S,
    )


def median(values: List[float]) -> float:
    return float(statistics.median(values))


_CAL_ITEMS = [(i * 2654435761) % 5003 for i in range(40_000)]


def calibration() -> float:
    """Seconds for a fixed interpreter-bound loop (median of three).

    The loop uses no program code, so no change to the program moves
    it, but it slows down with the host (other tenants, clock changes)
    about as much as the simulator does.  Dividing a timing by the
    calibration next to it removes the host's drift.
    """
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        lru: OrderedDict = OrderedDict()
        heap: List[Tuple[int, int]] = []
        for i, x in enumerate(_CAL_ITEMS):
            if x in lru:
                lru.move_to_end(x)
            else:
                lru[x] = i
                if len(lru) > 1024:
                    lru.popitem(last=False)
            heapq.heappush(heap, (x, i))
            if len(heap) > 64:
                heapq.heappop(heap)
        times.append(time.perf_counter() - t0)
    return median(times)


def run_one(args: argparse.Namespace, work: Path) -> Dict[str, Any]:
    """Set up, measure and check one workload; returns the full record."""
    import layers
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    setup_s: List[float] = []
    for i in range(SETUPS):
        in_dir = work / f"inputs{i}"
        t0 = time.perf_counter()
        generate_inputs(wl.name, args.seed, args.scale, in_dir)
        manifest = json.loads((in_dir / workloads.MANIFEST).read_text())
        inputs = wl.load(in_dir, manifest)
        setup_s.append(time.perf_counter() - t0)
        if i + 1 < SETUPS:
            shutil.rmtree(in_dir)

    calibration()  # the first call pays for cold caches
    cal = calibration()

    tracer = layers.LayerTracer() if args.trace else None
    attempted = failed = 0
    errors: List[str] = []
    digests: List[str] = []
    timed: Dict[bool, List[Dict[str, Any]]] = {False: [], True: []}
    layer_reps: List[Dict[str, float]] = []
    deadline = time.perf_counter() + args.seconds
    kinds = (False, True) if tracer is not None else (False,)
    rep = 0
    while True:
        # Repetition 0 warms up; traced runs then alternate kinds.
        traced = tracer is not None and rep % 2 == 1
        rep_dir = work / f"rep{rep}"
        rep_dir.mkdir()
        ops = workloads.Ops(wl.name, tracer if traced else None)
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.repetition():
                    out = wl.repetition(inputs, rep_dir, ops)
            else:
                out = wl.repetition(inputs, rep_dir, ops)
        except Exception:
            attempted += len(ops.names)
            failed += 1
            op = ops.names[-1] if ops.names else "repetition"
            errors.append(f"{op} raised:\n{traceback.format_exc()}")
            break
        wall = time.perf_counter() - t0
        cal, slow = _slowness(cal)
        attempted += len(ops.names)
        failures = wl.check(inputs, out)
        failed += len({op for op, _ in failures})
        errors.extend(f"{op}: {msg}" for op, msg in failures)
        digests.append(workloads.digest_of(wl.digest_payload(out)))
        if digests[-1] != digests[0]:
            failed += 1
            errors.append(f"repetition {rep}: digest {digests[-1]} != {digests[0]}")
        if rep > 0:
            timed[traced].append(
                {"wall": wall, "slow": slow, "rates": wl.rates(inputs, ops),
                 "ops": dict(ops.seconds)}
            )
        if traced:
            layer_reps.append({**tracer.last, **wl.layer_values(inputs, out)})
        del out
        shutil.rmtree(rep_dir)
        rep += 1
        enough = all(len(timed[k]) >= MIN_REPS for k in kinds)
        if enough and time.perf_counter() >= deadline:
            break
    if tracer is not None and args.out and layer_reps:
        tracer.write_spans(Path(args.out).with_suffix(".spans.jsonl"))

    pinned = _pinned_digest(args)
    if digests and pinned is not None and digests[0] != pinned:
        failed += 1
        errors.append(f"digest {digests[0]} != pinned {pinned} for seed {args.seed}")

    untraced = timed[False]
    slowness = [r["slow"] for r in untraced + timed[True]]
    detail: Dict[str, Any] = {
        "digest": digests[0] if digests else None,
        "setup_wall_s": setup_s,
        "host_slowness": slowness,
    }
    if untraced:
        for name in untraced[0]["rates"]:
            # Rates at the reference host speed; wall-clock rates beside them.
            detail[name] = median([r["rates"][name] * r["slow"] for r in untraced])
            detail[f"wall_{name}"] = median([r["rates"][name] for r in untraced])
        detail["op_wall_s"] = {
            op: median([r["ops"][op] for r in untraced]) for op in untraced[0]["ops"]
        }
    if args.trace:
        overhead = (
            median([r["wall"] / r["slow"] for r in timed[True]])
            / median([r["wall"] / r["slow"] for r in untraced])
            if timed[True] and untraced
            else 0.0
        )
        values = layers.summarize(layer_reps, {"trace.overhead_x": overhead}) if layer_reps else {}
        metrics = {
            name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in layers.LAYER_METRICS.items()
        }
        if layer_reps:
            print(layers.format_table(wl.name, values))
    else:
        values = {
            "primary_per_s": detail.get("primary_per_s", 0.0),
            "secondary_per_s": detail.get("secondary_per_s", 0.0),
            # Process start and file writes track the calibration loop
            # poorly over one second, so setup is corrected by the run's
            # median slowness: that removes the drift between runs.
            "setup_s": median(setup_s) / median(slowness) if slowness else median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {
        "correct": failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": metrics,
        "workload": wl.name,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "repetitions": {"untraced": len(untraced), "traced": len(timed[True])},
        "detail": detail,
        "errors": errors,
    }


def _slowness(before: float) -> Tuple[float, float]:
    """Calibrate after a timed interval that followed calibration
    ``before``: returns the new calibration and the interval's host
    slowness (its mean calibration over the reference; 1 = reference
    speed).  Wall seconds / slowness = seconds at the reference speed.
    """
    after = calibration()
    return after, (before + after) / 2 / CAL_REFERENCE_S


def _pinned_digest(args: argparse.Namespace):
    """The pinned digest for this seed and workload, at scale 1 only."""
    if args.scale != 1.0 or not DIGESTS.exists():
        return None
    pins = json.loads(DIGESTS.read_text())
    return pins.get(str(args.seed), {}).get(args.workload)


def single(args: argparse.Namespace) -> int:
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.environ["TMPDIR"] = str(work)
    sys.path.insert(0, str(SRC))
    try:
        record = run_one(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in record["errors"]:
        print(f"error: {line}", file=sys.stderr)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for name, m in record["metrics"].items():
        print(f"{record['workload']}: {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in turn, in a fresh child process."""
    records = []
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--scale", repr(args.scale)]
        out = None
        if args.out:
            out = Path(args.out).with_suffix(f".{name}.json")
            cmd += ["--out", str(out)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        status = status or proc.returncode
        if out is not None and out.exists():
            records.append(json.loads(out.read_text()))
    if args.out:
        Path(args.out).write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    return status


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}/repro; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.scale <= 0 or args.seed < 0:
        print("error: --seconds and --scale must be positive, --seed non-negative",
              file=sys.stderr)
        return 2
    return single(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
