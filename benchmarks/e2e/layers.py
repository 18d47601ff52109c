"""Traced mode: per-layer time and counts, measured from outside the program.

:class:`LayerTracer` wraps public functions and methods of ``repro``
modules in place — no program source is edited, and the wrapped calls
behave exactly as before.  Coarse calls become spans recorded by the
program's own :class:`~repro.telemetry.SpanTracer` into a
:class:`~repro.telemetry.RingBufferSink`, installed as the ambient
tracer, so the program's spans (``campaign.plan``, ``fast.compile``,
``serve.loop``, ``cluster.route``, ...) nest inside them.  Per-access
methods are too hot for spans: they feed in-memory ``(calls,
seconds)`` counters instead.

A layer's self time is its span's duration minus the time its nearest
wrapped descendants cover.  ``trace.unaccounted_share`` is the share
of op time (the benchmark's own ``op.*`` spans) that no program or
layer span covers.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.telemetry import RingBufferSink, SpanTracer, spans

#: Spans kept per repetition; a repetition records a few thousand.
RING_SPANS = 1_000_000

#: Coarse calls recorded as spans: layer name -> wrapped ``module:attr``
#: binding sites.  A function imported by name into another module is
#: wrapped at each site that the workloads reach.
SPAN_LAYERS: Dict[str, Tuple[str, ...]] = {
    "core.fast.replay": ("repro.core.fast:fast_simulate",),
    "core.fast.compile": ("repro.core.fast:compile_trace",),
    "core.fast.mattson": (
        "repro.core.fast:stack_distances",
        "repro.analysis.mrc:stack_distances",
    ),
    "core.fast.multi_capacity": ("repro.core.fast:multi_capacity_replay",),
    "core.engine.simulate": (
        "repro.core.engine:simulate",
        "repro.cluster.replay:simulate",
    ),
    "core.rtc.open": ("repro.core.rtc:open_rtc",),
    "core.rtc.append": ("repro.core.rtc:RtcWriter.append",),
    "core.rtc.finalize": ("repro.core.rtc:RtcWriter.finalize",),
    "workloads.stream.convert": ("repro.workloads.stream:convert_to_rtc",),
    "workloads.stream.shards": ("repro.workloads.stream:ShardsSampler.sampled_items",),
    "analysis.mrc.sampled": ("repro.analysis.mrc:sampled_miss_ratio_curve",),
    "campaign.open": ("repro.campaign.runner:CampaignRunner.__init__",),
    "campaign.run": ("repro.campaign.runner:CampaignRunner.run",),
    "campaign.execute_cell": ("repro.campaign.runner:execute_cell",),
    "campaign.store.put": ("repro.campaign.store:ResultStore.put",),
    "campaign.store.get": ("repro.campaign.store:ResultStore.get",),
    "campaign.journal.append": ("repro.campaign.journal:Journal.append",),
    "campaign.export": ("repro.campaign.cli:collect_rows",),
    "serving.serve": (
        "repro.serving.service:serve",
        "repro.cluster.serving_bridge:serve",
    ),
    "serving.arrivals": ("repro.serving.service:generate_arrivals",),
    "cluster.replay_cluster": ("repro.cluster.replay:replay_cluster",),
    "cluster.router.split": ("repro.cluster.router:ShardRouter.split",),
    "cluster.replay.shard": ("repro.cluster.replay:_replay_shard",),
    "cluster.serve_cluster": ("repro.cluster.serving_bridge:serve_cluster",),
}

#: Per-access (or per-lookup) methods: in-memory counters, not spans.
COUNTER_LAYERS: Dict[str, Tuple[str, ...]] = {
    "core.engine.access": ("repro.core.engine:Engine.access",),
    "cluster.engine.access": ("repro.cluster.serving_bridge:ClusterEngine.access",),
    "serving.histogram.record": (
        "repro.serving.histograms:LatencyHistogram.record",
    ),
    "telemetry.recorder": ("repro.telemetry.recorder:Recorder.on_access",),
    "core.trace.fingerprint": ("repro.core.trace:Trace.fingerprint",),
}

#: Counters whose time inside ``serve.loop`` is not the loop's own.
_LOOP_CHILDREN = ("core.engine.access", "cluster.engine.access", "serving.histogram.record")

#: Every per-layer metric with its unit, in report order.  These are
#: the names BENCHMARK.json lists under ``per_layer``.
LAYER_METRICS: Dict[str, str] = {
    "core.fast.replay.calls": "count",
    "core.fast.replay.s": "s",
    "core.fast.compile.calls": "count",
    "core.fast.compile.s": "s",
    "core.fast.kernel_ratio": "ratio",
    "core.fast.mattson.calls": "count",
    "core.fast.mattson.s": "s",
    "core.fast.multi_capacity.s": "s",
    "workloads.stream.parse.s": "s",
    "core.rtc.append.calls": "count",
    "core.rtc.append.s": "s",
    "core.rtc.finalize.s": "s",
    "core.rtc.bytes_per_access": "B/access",
    "core.rtc.open.calls": "count",
    "core.rtc.open.s": "s",
    "analysis.mrc.sampled.s": "s",
    "analysis.mrc.sampled.max_abs_error": "miss_ratio",
    "workloads.stream.shards.kept_ratio": "ratio",
    "campaign.execute_cell.calls": "count",
    "campaign.execute_cell.s": "s",
    "campaign.execute_cell.p50_s": "s",
    "campaign.execute_cell.p95_s": "s",
    "campaign.store.put.calls": "count",
    "campaign.store.put.s": "s",
    "campaign.store.get.calls": "count",
    "campaign.store.get.s": "s",
    "campaign.store.hit_ratio": "ratio",
    "campaign.journal.append.calls": "count",
    "campaign.journal.append.s": "s",
    "core.trace.fingerprint.calls": "count",
    "core.trace.fingerprint.s": "s",
    "campaign.resume.s": "s",
    "campaign.export.s": "s",
    "core.engine.access.calls": "count",
    "core.engine.access.s": "s",
    "core.engine.fallback.observed": "count",
    "serving.arrivals.s": "s",
    "serving.histogram.record.calls": "count",
    "serving.histogram.record.s": "s",
    "serving.loop.self_s": "s",
    "telemetry.recorder.s": "s",
    "cluster.router.split.calls": "count",
    "cluster.router.split.s": "s",
    "cluster.replay.shard.s": "s",
    "cluster.replay.self_s": "s",
    "cluster.engine.access.calls": "count",
    "cluster.engine.access.s": "s",
    "cluster.load_imbalance": "ratio",
    "cluster.block_splits": "count",
    "trace.overhead_x": "x",
    "trace.unaccounted_share": "ratio",
}


def _resolve(site: str) -> Tuple[Any, str]:
    """``"pkg.mod:Class.attr"`` -> (owner object, attribute name)."""
    module_name, _, path = site.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class _Counter:
    __slots__ = ("calls", "seconds", "outer")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        #: Time in calls not nested inside another counted call.
        self.outer = 0.0


class LayerTracer:
    """Turns each traced repetition into per-layer metrics.  The layer
    wrappers are installed for the repetition only, so untraced
    repetitions of the same run time the unwrapped program."""

    def __init__(self) -> None:
        self._patched: List[Tuple[Any, str, Any]] = []
        self.counters: Dict[str, _Counter] = {n: _Counter() for n in COUNTER_LAYERS}
        self._depth = 0
        # Result-derived counts, filled by the span wrappers' hooks.
        self.events: Dict[str, float] = {}
        self._ops: List[Dict[str, Any]] = []
        self._tracer: Optional[SpanTracer] = None
        self._sink: Optional[RingBufferSink] = None
        #: Span records of every traced repetition, written out by
        #: :meth:`write_spans` when the run ends.
        self.records: List[Dict[str, Any]] = []
        #: Metrics of the latest traced repetition.
        self.last: Dict[str, float] = {}

    # -- installation ------------------------------------------------------
    def _install(self) -> None:
        hooks = {
            "core.engine.simulate": self._on_simulate,
            "campaign.store.get": self._on_store_get,
            "workloads.stream.shards": self._on_shards,
        }
        for layer, sites in SPAN_LAYERS.items():
            for site in sites:
                self._patch(site, lambda fn, layer=layer: self._span_wrapper(layer, fn, hooks.get(layer)))
        for layer, sites in COUNTER_LAYERS.items():
            for site in sites:
                self._patch(site, lambda fn, layer=layer: self._counter_wrapper(layer, fn))

    def _uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _patch(self, site: str, make: Callable[[Callable], Callable]) -> None:
        owner, attr = _resolve(site)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._patched.append((owner, attr, original))

    def _span_wrapper(self, layer: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        def wrapper(*args, **kwargs):
            with self._tracer.span(layer, layer=1):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(result, args, kwargs)
            return result

        return wrapper

    def _counter_wrapper(self, layer: str, fn: Callable) -> Callable:
        counter = self.counters[layer]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            self._depth += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self._depth -= 1
                counter.calls += 1
                counter.seconds += dt
                if not self._depth:
                    counter.outer += dt

        return wrapper

    # -- result hooks --------------------------------------------------------
    def _count(self, key: str, value: float = 1.0) -> None:
        self.events[key] = self.events.get(key, 0.0) + value

    def _on_simulate(self, result, args, kwargs) -> None:
        if kwargs.get("fast"):
            self._count("simulate.fast")
            self._count("simulate.kernel", result.fallback_reason is None)
        self._count("simulate.observed", result.fallback_reason == "observed")

    def _on_store_get(self, result, args, kwargs) -> None:
        self._count("store.hits", result is not None)

    def _on_shards(self, kept, args, kwargs) -> None:
        self._count("shards.kept", len(kept))
        self._count("shards.seen", len(args[1]))

    # -- one traced repetition ---------------------------------------------
    @contextmanager
    def repetition(self):
        """Record one repetition; yields, then leaves its metrics in
        :attr:`last`."""
        for counter in self.counters.values():
            counter.calls, counter.seconds, counter.outer = 0, 0.0, 0.0
        self.events = {}
        self._ops = []
        self._sink = RingBufferSink(maxlen=RING_SPANS)
        self._tracer = SpanTracer(sinks=[self._sink])
        spans.enable(self._tracer)
        self._install()
        try:
            yield
        finally:
            self._uninstall()
            spans.disable()
        records = self._sink.records
        if len(records) >= RING_SPANS:
            raise RuntimeError("span ring buffer overflowed; raise RING_SPANS")
        self.records.extend(records)
        self.last = self._metrics(records)

    @contextmanager
    def op(self, name: str):
        """The benchmark's own span around one timed public call."""
        before = {n: c.outer for n, c in self.counters.items()}
        with self._tracer.span(f"op.{name}") as sp:
            yield
        self._ops.append(
            {
                "span_id": sp.span_id,
                "name": name,
                "outer": {n: c.outer - before[n] for n, c in self.counters.items()},
            }
        )

    def _metrics(self, records: List[Dict[str, Any]]) -> Dict[str, float]:
        by_id = {r["span_id"]: r for r in records}
        children: Dict[str, List[Dict[str, Any]]] = {}
        for r in records:
            children.setdefault(r["parent_id"], []).append(r)

        def is_layer(r) -> bool:
            return bool(r.get("attrs", {}).get("layer"))

        def layer_cover(span_id: str) -> float:
            """Time under ``span_id`` covered by its nearest layer spans."""
            total = 0.0
            for child in children.get(span_id, ()):
                total += child["seconds"] if is_layer(child) else layer_cover(child["span_id"])
            return total

        def ancestor_op(r) -> Optional[str]:
            while r is not None:
                if r["name"].startswith("op."):
                    return r["name"][3:]
                r = by_id.get(r["parent_id"])
            return None

        calls: Dict[str, int] = {}
        seconds: Dict[str, float] = {}
        self_s: Dict[str, float] = {}
        durations: Dict[str, List[float]] = {}
        loop_s: Dict[str, float] = {}
        for r in records:
            name = r["name"]
            if is_layer(r):
                calls[name] = calls.get(name, 0) + 1
                seconds[name] = seconds.get(name, 0.0) + r["seconds"]
                self_s[name] = self_s.get(name, 0.0) + r["seconds"] - layer_cover(r["span_id"])
                durations.setdefault(name, []).append(r["seconds"])
            elif name == "serve.loop":
                op = ancestor_op(r)
                loop_s[op] = loop_s.get(op, 0.0) + r["seconds"]

        op_time = covered = 0.0
        op_seconds: Dict[str, float] = {}
        loop_self = 0.0
        for op in self._ops:
            rec = by_id[op["span_id"]]
            op_time += rec["seconds"]
            covered += sum(c["seconds"] for c in children.get(op["span_id"], ()))
            op_seconds[op["name"]] = op_seconds.get(op["name"], 0.0) + rec["seconds"]
            if op["name"] in loop_s:
                loop_self += loop_s[op["name"]] - sum(op["outer"][n] for n in _LOOP_CHILDREN)

        def quantile(name: str, q: float) -> float:
            values = sorted(durations.get(name, ()))
            return values[min(len(values) - 1, int(q * len(values)))] if values else 0.0

        def ratio(num: str, den: str) -> float:
            d = self.events.get(den, 0.0)
            return self.events.get(num, 0.0) / d if d else 0.0

        c = self.counters
        m: Dict[str, float] = {
            "core.fast.replay.calls": calls.get("core.fast.replay", 0),
            "core.fast.replay.s": seconds.get("core.fast.replay", 0.0),
            "core.fast.compile.calls": calls.get("core.fast.compile", 0),
            "core.fast.compile.s": seconds.get("core.fast.compile", 0.0),
            "core.fast.kernel_ratio": ratio("simulate.kernel", "simulate.fast"),
            "core.fast.mattson.calls": calls.get("core.fast.mattson", 0),
            "core.fast.mattson.s": seconds.get("core.fast.mattson", 0.0),
            "core.fast.multi_capacity.s": seconds.get("core.fast.multi_capacity", 0.0),
            "workloads.stream.parse.s": self_s.get("workloads.stream.convert", 0.0),
            "core.rtc.append.calls": calls.get("core.rtc.append", 0),
            "core.rtc.append.s": seconds.get("core.rtc.append", 0.0),
            "core.rtc.finalize.s": seconds.get("core.rtc.finalize", 0.0),
            "core.rtc.open.calls": calls.get("core.rtc.open", 0),
            "core.rtc.open.s": seconds.get("core.rtc.open", 0.0),
            "analysis.mrc.sampled.s": seconds.get("analysis.mrc.sampled", 0.0),
            "workloads.stream.shards.kept_ratio": ratio("shards.kept", "shards.seen"),
            "campaign.execute_cell.calls": calls.get("campaign.execute_cell", 0),
            "campaign.execute_cell.s": seconds.get("campaign.execute_cell", 0.0),
            "campaign.execute_cell.p50_s": quantile("campaign.execute_cell", 0.50),
            "campaign.execute_cell.p95_s": quantile("campaign.execute_cell", 0.95),
            "campaign.store.put.calls": calls.get("campaign.store.put", 0),
            "campaign.store.put.s": seconds.get("campaign.store.put", 0.0),
            "campaign.store.get.calls": calls.get("campaign.store.get", 0),
            "campaign.store.get.s": seconds.get("campaign.store.get", 0.0),
            "campaign.store.hit_ratio": (
                self.events.get("store.hits", 0.0) / calls["campaign.store.get"]
                if calls.get("campaign.store.get")
                else 0.0
            ),
            "campaign.journal.append.calls": calls.get("campaign.journal.append", 0),
            "campaign.journal.append.s": seconds.get("campaign.journal.append", 0.0),
            "core.trace.fingerprint.calls": c["core.trace.fingerprint"].calls,
            "core.trace.fingerprint.s": c["core.trace.fingerprint"].seconds,
            "campaign.resume.s": op_seconds.get("campaign.resume", 0.0),
            "campaign.export.s": op_seconds.get("campaign.export", 0.0),
            "core.engine.access.calls": c["core.engine.access"].calls,
            "core.engine.access.s": c["core.engine.access"].seconds,
            "core.engine.fallback.observed": self.events.get("simulate.observed", 0.0),
            "serving.arrivals.s": seconds.get("serving.arrivals", 0.0),
            "serving.histogram.record.calls": c["serving.histogram.record"].calls,
            "serving.histogram.record.s": c["serving.histogram.record"].seconds,
            "serving.loop.self_s": loop_self,
            "telemetry.recorder.s": c["telemetry.recorder"].seconds,
            "cluster.router.split.calls": calls.get("cluster.router.split", 0),
            "cluster.router.split.s": seconds.get("cluster.router.split", 0.0),
            "cluster.replay.shard.s": seconds.get("cluster.replay.shard", 0.0),
            "cluster.replay.self_s": self_s.get("cluster.replay_cluster", 0.0),
            "cluster.engine.access.calls": c["cluster.engine.access"].calls,
            "cluster.engine.access.s": c["cluster.engine.access"].seconds,
            "trace.unaccounted_share": (op_time - covered) / op_time if op_time else 0.0,
        }
        return {k: float(v) for k, v in m.items()}

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            for record in self.records:
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def summarize(per_rep: List[Dict[str, float]], extra: Dict[str, float]) -> Dict[str, float]:
    """Median of each layer metric over the traced repetitions, plus
    the run-level values in ``extra``; every name in LAYER_METRICS."""
    out: Dict[str, float] = {}
    for name in LAYER_METRICS:
        if name in extra:
            out[name] = float(extra[name])
        else:
            out[name] = float(statistics.median(rep.get(name, 0.0) for rep in per_rep))
    return out


def format_table(workload: str, metrics: Dict[str, float]) -> str:
    """The per-layer table as aligned text."""
    width = max(len(name) for name in LAYER_METRICS)
    lines = [f"per-layer metrics, workload {workload} (median per traced repetition)"]
    for name, unit in LAYER_METRICS.items():
        lines.append(f"  {name:<{width}}  {metrics[name]:>14.6g}  {unit}")
    return "\n".join(lines)
