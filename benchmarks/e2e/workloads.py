"""The four end-to-end workloads: inputs, timed calls, checks, digests.

Each workload is one way users reach the paper's policy comparisons:

* ``campaign`` — run, resume and export a policy x capacity campaign
  over one mmap ``.rtc`` trace and one generator-spec trace;
* ``ingest`` — convert a gzip text trace to ``.rtc``, then exact and
  SHARDS-sampled miss-ratio curves over the mmap file;
* ``serve`` — open-loop FIFO serving of IBLP and item-LRU, then an
  observed (recorder-attached) replay of the same trace;
* ``cluster`` — 4-shard cluster replays under both hash schemes, then
  SJF cluster serving with drops under bursty arrivals.

A workload's inputs are made from the seed by :meth:`Workload.generate`,
which runs in a setup child process (``python workloads.py generate
...``) so generation never counts toward the timed process's memory.
One *repetition* calls the public API in a fixed order; every call is
an *op*, timed through :class:`Ops`.  The simulated outputs of a
repetition are hashed into a digest that must repeat exactly.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.analysis import mrc
from repro.campaign import CampaignRunner, CampaignSpec, TraceSpec
from repro.campaign import cli as campaign_cli
from repro.campaign.runner import result_fields
from repro.cluster import ClusterSpec
from repro.cluster import replay as cluster_replay
from repro.cluster import serving_bridge
from repro.core import engine, fast, rtc
from repro.core.trace import Trace
from repro.policies import make_policy
from repro.serving import ArrivalSpec, ServiceModel, ServingConfig
from repro.serving import service
from repro.telemetry import Recorder
from repro.workloads import markov_spatial, stream

MANIFEST = "manifest.json"

# Service model shared by both serving workloads (simulated time units).
T_HIT, T_MISS, T_ITEM = 1.0, 100.0, 1.0
CONCURRENCY = 4


def scaled(n: int, scale: float) -> int:
    """``n`` accesses at ``scale``, floored so tiny smoke runs stay valid."""
    return max(256, int(round(n * scale)))


def digest_of(payload: Any) -> str:
    """SHA-256 over canonical JSON (sorted keys, no whitespace)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def counters(sim) -> Dict[str, int]:
    """The taxonomy counters of a ``SimResult`` (no metadata)."""
    fields = result_fields(sim)
    return {
        k: fields[k]
        for k in (
            "accesses",
            "misses",
            "temporal_hits",
            "spatial_hits",
            "loaded_items",
            "evicted_items",
        )
    }


def save_trace(trace: Trace, out_dir: Path) -> Dict[str, Any]:
    trace.save(out_dir / "trace.npz")
    return {"fingerprint": trace.fingerprint(), "accesses": len(trace)}


def load_trace(in_dir: Path, manifest: Dict[str, Any]) -> Trace:
    trace = Trace.load(in_dir / "trace.npz")
    if trace.fingerprint() != manifest["fingerprint"]:
        raise RuntimeError(f"{in_dir}: generated trace does not match its manifest")
    return trace


class Ops:
    """Times each op of one repetition, in the order the ops started.

    ``layers`` (a :class:`layers.LayerTracer`, traced runs only) opens
    an ``op.<workload>.<name>`` span around every op so program and
    layer spans nest under it.
    """

    def __init__(self, workload: str, layers=None) -> None:
        self.workload = workload
        self.layers = layers
        self.seconds: Dict[str, float] = {}
        self.names: List[str] = []

    @contextmanager
    def op(self, name: str):
        self.names.append(name)
        span = (
            self.layers.op(f"{self.workload}.{name}")
            if self.layers is not None
            else nullcontext()
        )
        with span:
            t0 = time.perf_counter()
            yield
            self.seconds[name] = self.seconds.get(name, 0.0) + (
                time.perf_counter() - t0
            )

    def total(self, prefix: str) -> float:
        return sum(s for name, s in self.seconds.items() if name.startswith(prefix))


class Workload:
    """Interface of one workload (see the module docstring)."""

    name = ""

    def generate(self, seed: int, scale: float, out_dir: Path) -> Dict[str, Any]:
        """Write the inputs for ``seed`` into ``out_dir``; return the manifest."""
        raise NotImplementedError

    def load(self, in_dir: Path, manifest: Dict[str, Any]) -> Any:
        """Open generated inputs in the timed process."""
        raise NotImplementedError

    def repetition(self, inputs: Any, rep_dir: Path, ops: Ops) -> Dict[str, Any]:
        """Run every op once; return the simulated outputs."""
        raise NotImplementedError

    def check(self, inputs: Any, out: Dict[str, Any]) -> List[Tuple[str, str]]:
        """Cross-path correctness checks: ``(op, message)`` per failure."""
        raise NotImplementedError

    def digest_payload(self, out: Dict[str, Any]) -> Any:
        """Every simulated output of a repetition, JSON-safe."""
        raise NotImplementedError

    def rates(self, inputs: Any, ops: Ops) -> Dict[str, float]:
        """``primary_per_s``/``secondary_per_s`` plus the named detail rates."""
        raise NotImplementedError

    def layer_values(self, inputs: Any, out: Dict[str, Any]) -> Dict[str, float]:
        """Deterministic per-layer values read from the outputs."""
        return {}


# -- campaign -----------------------------------------------------------------


class CampaignWorkload(Workload):
    name = "campaign"
    CAPACITIES = (256, 2048)

    def generate(self, seed, scale, out_dir):
        trace = markov_spatial(
            scaled(8_000, scale), universe=32_768, block_size=8, stay=0.8, seed=seed
        )
        rtc.trace_to_rtc(trace, out_dir / "markov.rtc")
        return {
            "fingerprint": trace.fingerprint(),
            "zipf_length": scaled(5_000, scale),
            "seed": seed,
        }

    def load(self, in_dir, manifest):
        mm = rtc.open_rtc(in_dir / "markov.rtc")
        if mm.fingerprint() != manifest["fingerprint"]:
            raise RuntimeError(f"{in_dir}: .rtc trace does not match its manifest")
        traces = {
            "markov": TraceSpec(kind="rtc", path=str(in_dir / "markov.rtc")),
            "zipf": TraceSpec(
                kind="workload",
                name="block_zipf",
                params={
                    "length": manifest["zipf_length"],
                    "universe": 32_768,
                    "block_size": 8,
                    "seed": manifest["seed"],
                },
            ),
        }
        return CampaignSpec.from_grid(
            name="e2e",
            policies=list(fast.FAST_POLICY_NAMES),
            capacities=list(self.CAPACITIES),
            traces=traces,
        )

    def repetition(self, spec, rep_dir, ops):
        # Each repetition is a cold `campaign run` as a fresh process
        # sees it: an empty directory and an empty compile memo.
        fast._COMPILED.clear()
        with ops.op("run"):
            with CampaignRunner(rep_dir, spec, parallel=False) as runner:
                cold = runner.run()
        with ops.op("resume"):
            with CampaignRunner(rep_dir, parallel=False) as runner:
                warm = runner.run()
        with ops.op("export"):
            rows = campaign_cli.collect_rows(rep_dir)
        return {"cold": cold, "warm": warm, "rows": rows}

    def check(self, spec, out):
        cells = len(spec.cells)
        failures = []
        cold, warm = out["cold"], out["warm"]
        if cold.computed != cells or not cold.complete:
            failures.append(("run", f"computed {cold.computed}/{cells} cells"))
        if warm.computed != 0 or warm.memo_hits != cells:
            failures.append(
                ("resume", f"resume recomputed {warm.computed}, memo {warm.memo_hits}")
            )
        if out["rows"] != cold.rows():
            failures.append(("export", "exported rows differ from the cold run"))
        return failures

    def digest_payload(self, out):
        return out["cold"].rows()

    def rates(self, spec, ops):
        cells = len(spec.cells)
        run = ops.seconds["run"]
        reads = ops.seconds["resume"] + ops.seconds["export"]
        return {
            "primary_per_s": cells / run,
            "secondary_per_s": cells / reads,
            "campaign_cells_per_s": cells / (run + reads),
        }


# -- ingest -------------------------------------------------------------------


class IngestWorkload(Workload):
    name = "ingest"
    UNIVERSE = 131_072
    CAPACITIES = (1024, 4096, 16_384, 65_536)
    RATE = 0.05
    #: Worst allowed |sampled - exact| miss ratio on the grid: the
    #: conservative bound docs/traces.md states for rates >= 0.05, or
    #: three binomial standard errors when few accesses are sampled.
    SHARDS_ERROR_GATE = 0.05

    def generate(self, seed, scale, out_dir):
        trace = markov_spatial(
            scaled(200_000, scale),
            universe=self.UNIVERSE,
            block_size=8,
            stay=0.8,
            seed=seed,
        )
        items = trace.items
        with gzip.open(out_dir / "trace.txt.gz", "wt", compresslevel=1) as fh:
            fh.write(f"# universe: {self.UNIVERSE}\n# block_size: 8\n")
            for lo in range(0, items.size, 65_536):
                fh.write("\n".join(map(str, items[lo : lo + 65_536].tolist())))
                fh.write("\n")
        return {"fingerprint": trace.fingerprint(), "accesses": len(trace)}

    def load(self, in_dir, manifest):
        return {"source": in_dir / "trace.txt.gz", **manifest}

    def repetition(self, inputs, rep_dir, ops):
        out_path = rep_dir / "trace.rtc"
        caps = list(self.CAPACITIES)
        with ops.op("convert"):
            stream.convert_to_rtc(inputs["source"], out_path)
        with ops.op("mrc.open"):
            mm = rtc.open_rtc(out_path)
        with ops.op("mrc.item"):
            item = fast.multi_capacity_replay("item-lru", mm, caps)
        with ops.op("mrc.block"):
            block = fast.multi_capacity_replay("block-lru", mm, caps)
        with ops.op("mrc.sampled"):
            sampled = mrc.sampled_miss_ratio_curve(mm, caps, self.RATE, seed=0)
        return {
            "fingerprint": mm.fingerprint(),
            "accesses": len(mm),
            "trace": mm,
            "bytes": out_path.stat().st_size,
            "item": {k: counters(r) for k, r in item.items()},
            "block": {k: counters(r) for k, r in block.items()},
            "sampled": [[k, ratio] for k, ratio in sampled],
        }

    def shards_error(self, out) -> float:
        return max(
            abs(ratio - out["item"][k]["misses"] / out["item"][k]["accesses"])
            for k, ratio in out["sampled"]
        )

    def check(self, inputs, out):
        failures = []
        if out["fingerprint"] != inputs["fingerprint"]:
            failures.append(("convert", "converted .rtc fingerprint differs"))
        if out["accesses"] != inputs["accesses"]:
            failures.append(("mrc.open", f"{out['accesses']} accesses in .rtc"))
        for op in ("item", "block"):
            if any(c["accesses"] != inputs["accesses"] for c in out[op].values()):
                failures.append((f"mrc.{op}", "curve does not cover the trace"))
        error = self.shards_error(out)
        kept = stream.shards(self.RATE, seed=0).sampled_items(out["trace"]).size
        gate = max(self.SHARDS_ERROR_GATE, 3.0 / max(1, kept) ** 0.5)
        if error > gate:
            failures.append(("mrc.sampled", f"SHARDS error {error:.4f} > {gate:.4f}"))
        return failures

    def digest_payload(self, out):
        return {k: v for k, v in out.items() if k not in ("trace", "bytes")}

    def rates(self, inputs, ops):
        convert = inputs["accesses"] / ops.seconds["convert"]
        curves = inputs["accesses"] / ops.total("mrc.")
        return {
            "primary_per_s": convert,
            "secondary_per_s": curves,
            "convert_accesses_per_s": convert,
            "mrc_accesses_per_s": curves,
        }

    def layer_values(self, inputs, out):
        return {
            "core.rtc.bytes_per_access": out["bytes"] / out["accesses"],
            "analysis.mrc.sampled.max_abs_error": self.shards_error(out),
        }


# -- serve --------------------------------------------------------------------


class ServeWorkload(Workload):
    name = "serve"
    CAPACITY = 256
    LOAD = 0.8

    def generate(self, seed, scale, out_dir):
        trace = markov_spatial(
            scaled(40_000, scale), universe=4096, block_size=8, stay=0.85, seed=seed
        )
        return {**save_trace(trace, out_dir), "seed": seed}

    def load(self, in_dir, manifest):
        config = ServingConfig(
            arrival=ArrivalSpec(
                process="poisson",
                rate=self.LOAD * CONCURRENCY / (T_HIT + T_MISS),
                seed=manifest["seed"],
            ),
            service=ServiceModel(t_hit=T_HIT, t_miss=T_MISS, t_item=T_ITEM),
            concurrency=CONCURRENCY,
        )
        return {"trace": load_trace(in_dir, manifest), "config": config}

    def repetition(self, inputs, rep_dir, ops):
        trace, config = inputs["trace"], inputs["config"]
        served = {}
        for policy in ("iblp", "item-lru"):
            with ops.op(f"serve.{policy}"):
                served[policy] = service.serve(
                    make_policy(policy, self.CAPACITY, trace.mapping), trace, config
                )
        with ops.op("observed"):
            recorder = Recorder(window=10_000)
            observed = engine.simulate(
                make_policy("iblp", self.CAPACITY, trace.mapping),
                trace,
                fast=True,
                recorder=recorder,
            )
        return {"served": served, "observed": observed, "recorder": recorder}

    def reference(self, inputs):
        """Offline kernel replay of the served cells, computed once."""
        if "reference" not in inputs:
            inputs["reference"] = fast.multi_policy_replay(
                [("iblp", self.CAPACITY), ("item-lru", self.CAPACITY)], inputs["trace"]
            )
        return inputs["reference"]

    def check(self, inputs, out):
        failures = []
        n = len(inputs["trace"])
        for policy, offline in zip(("iblp", "item-lru"), self.reference(inputs)):
            res = out["served"][policy]
            op = f"serve.{policy}"
            if result_fields(res.sim) != result_fields(offline):
                failures.append((op, "FIFO serving differs from offline replay"))
            if res.arrivals != n or res.completions != n or res.dropped:
                failures.append((op, f"{res.completions}/{n} requests completed"))
        observed = out["observed"]
        if observed.fallback_reason != "observed" or counters(observed) != counters(
            out["served"]["iblp"].sim
        ):
            failures.append(("observed", "observed replay differs from serving"))
        if out["recorder"].summary()["misses"] != observed.misses:
            failures.append(("observed", "recorder windows lost misses"))
        return failures

    def digest_payload(self, out):
        return {
            "served": {p: r.fields() for p, r in out["served"].items()},
            "observed": counters(out["observed"]),
            "windows": [row.as_record() for row in out["recorder"].window_rows],
        }

    def rates(self, inputs, ops):
        n = len(inputs["trace"])
        served = 2 * n / ops.total("serve.")
        observed = n / ops.seconds["observed"]
        return {
            "primary_per_s": served,
            "secondary_per_s": observed,
            "serve_requests_per_s": served,
            "observed_accesses_per_s": observed,
        }


# -- cluster ------------------------------------------------------------------


class ClusterWorkload(Workload):
    name = "cluster"
    CAPACITY = 1024
    SHARDS = 4
    SCHEMES = ("block", "item")
    POLICIES = ("iblp", "item-lru", "gcm")
    LOAD = 0.9

    def generate(self, seed, scale, out_dir):
        trace = markov_spatial(
            scaled(25_000, scale), universe=16_384, block_size=8, stay=0.85, seed=seed
        )
        return {**save_trace(trace, out_dir), "seed": seed}

    def load(self, in_dir, manifest):
        return {"trace": load_trace(in_dir, manifest), "seed": manifest["seed"]}

    def serving_config(self, offline, seed: int) -> ServingConfig:
        """MMPP at 0.9 load, the rate set from the offline mean service."""
        sim = offline.sim
        mean_service = (
            T_HIT
            + T_MISS * sim.misses / sim.accesses
            + T_ITEM * (sim.loaded_items - sim.misses) / sim.accesses
        )
        return ServingConfig(
            arrival=ArrivalSpec(
                process="mmpp", rate=self.LOAD * CONCURRENCY / mean_service, seed=seed
            ),
            service=ServiceModel(t_hit=T_HIT, t_miss=T_MISS, t_item=T_ITEM),
            concurrency=CONCURRENCY,
            queue="sjf",
            queue_limit=8,
        )

    def repetition(self, inputs, rep_dir, ops):
        trace = inputs["trace"]
        replays = {}
        for scheme in self.SCHEMES:
            spec = ClusterSpec(n_shards=self.SHARDS, scheme=scheme)
            for policy in self.POLICIES:
                with ops.op(f"replay.{scheme}.{policy}"):
                    replays[scheme, policy] = cluster_replay.replay_cluster(
                        policy, self.CAPACITY, trace, spec
                    )
        config = self.serving_config(replays["block", "iblp"], inputs["seed"])
        with ops.op("serve_cluster"):
            served = serving_bridge.serve_cluster(
                "iblp",
                self.CAPACITY,
                trace,
                ClusterSpec(n_shards=self.SHARDS, scheme="block"),
                config,
            )
        return {"replays": replays, "served": served}

    def check(self, inputs, out):
        failures = []
        n = len(inputs["trace"])
        for (scheme, policy), res in out["replays"].items():
            total = {k: sum(counters(s)[k] for s in res.shards) for k in counters(res.sim)}
            if total != counters(res.sim) or res.sim.accesses != n:
                failures.append(
                    (f"replay.{scheme}.{policy}", "merged taxonomy != sum of shards")
                )
        served = out["served"]
        if (
            served.arrivals != n
            or served.arrivals != served.completions + served.dropped
            or served.sim.accesses != n - served.dropped_admission
        ):
            failures.append(("serve_cluster", "request conservation broken"))
        return failures

    def digest_payload(self, out):
        return {
            "replays": {
                f"{scheme}.{policy}": res.fields()
                for (scheme, policy), res in sorted(out["replays"].items())
            },
            "served": out["served"].fields(),
        }

    def rates(self, inputs, ops):
        n = len(inputs["trace"])
        replayed = len(self.SCHEMES) * len(self.POLICIES) * n / ops.total("replay.")
        served = n / ops.seconds["serve_cluster"]
        return {
            "primary_per_s": replayed,
            "secondary_per_s": served,
            "cluster_accesses_per_s": replayed,
            "cluster_serve_requests_per_s": served,
        }

    def layer_values(self, inputs, out):
        replays = list(out["replays"].values())
        return {
            "cluster.load_imbalance": statistics.fmean(r.load_imbalance for r in replays),
            "cluster.block_splits": float(sum(r.blocks_split for r in replays)),
        }


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (CampaignWorkload(), IngestWorkload(), ServeWorkload(), ClusterWorkload())
}


def main(argv: List[str]) -> int:
    """Setup child: ``workloads.py generate WORKLOAD SEED SCALE OUT_DIR``."""
    if len(argv) != 5 or argv[0] != "generate" or argv[1] not in WORKLOADS:
        print(
            "usage: workloads.py generate {%s} SEED SCALE OUT_DIR"
            % ",".join(WORKLOADS),
            file=sys.stderr,
        )
        return 2
    out_dir = Path(argv[4])
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = WORKLOADS[argv[1]].generate(int(argv[2]), float(argv[3]), out_dir)
    (out_dir / MANIFEST).write_text(json.dumps(manifest, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
