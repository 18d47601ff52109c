"""Request-level serving: from cache decisions to request latency.

The offline simulator answers *"what is the miss ratio"*;
:func:`serve` answers *"what does a user feel at this offered load"*.
Every policy plugs in unchanged.  When a :mod:`repro.core.fast`
kernel covers the policy (and neither ETC sizes nor a caller engine
ask for the referee), the cache runs on the kernel: with the cache
stream fixed before the loop starts (FIFO queue, no drops) one kernel
pass precomputes every request's hit kind and service time, and under
SJF or drops the loop steps the kernel once per started request
(:func:`repro.core.fast.stepper`).  Otherwise the loop steps the
referee :class:`~repro.core.engine.Engine` once per started request.
With open-loop arrivals on the precomputed path, a FIFO recurrence over
arrays replaces the event loop too.  Every path gives the same result
(the fast ones are bit-identical to the slow ones); the cache decision
stream is exactly the offline one, and serving only adds *time*:

* **Arrivals** (open-loop Poisson / bursty MMPP / constant, or a
  closed-loop client population) timestamp each trace request.
* **Service**: a hit costs ``t_hit``; a miss additionally pays the
  backing-store delay ``t_miss`` **once** plus ``t_item`` per *extra*
  loaded item — a spatial load amortizes one backing fetch across the
  loaded subset, which is precisely the paper's granularity-change
  payoff translated into latency.  Spatial hits then cost only
  ``t_hit``: the fetch they would have needed was already paid for.
* **Queueing**: bounded server ``concurrency`` with a FIFO (default)
  or shortest-expected-job-first queue, optional admission bound
  (``queue_limit``) and queue-wait ``timeout``.

Determinism: simulated time comes from the event heap in
:func:`_run_loop` (same-time events pop in schedule order) or its
array form, and seeded NumPy
generators only — no wall clock anywhere — so a (policy, trace,
config) triple maps to a bit-identical :class:`ServingResult`,
including histogram payloads, which is what lets the campaign layer
content-address serving cells.

Conformance invariant (pinned by ``tests/test_serving_conformance.py``):
with the FIFO queue and no drops (the defaults), requests start
service in arrival order, so the hit/miss/spatial stream — and the
embedded :class:`~repro.types.SimResult` — is bit-identical to
``simulate()`` on the same policy and trace.  The SJF queue and drop
knobs deliberately trade that equivalence for scheduling realism.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.conformance import KIND_CODE
from repro.core.engine import Engine, check_same_mapping
from repro.core.fast import KIND_MISS, fast_fallback_reason, fast_simulate, stepper
from repro.core.trace import Trace
from repro.errors import ConfigurationError
from repro.serving.arrivals import ArrivalSpec, exponential_draws, generate_arrivals
from repro.serving.histograms import LatencyHistogram, ordered_sum
from repro.telemetry import spans
from repro.types import HitKind, SimResult

__all__ = [
    "ServiceModel",
    "ServingConfig",
    "ServingResult",
    "serve",
    "serve_policy",
]

#: HitKind → per-class histogram key (stable across payloads).
KIND_KEYS: Dict[HitKind, str] = {
    HitKind.MISS: "miss",
    HitKind.TEMPORAL_HIT: "temporal",
    HitKind.SPATIAL_HIT: "spatial",
}


@dataclass(frozen=True)
class ServiceModel:
    """Per-request service-time model (simulated time units).

    ``t_hit`` is the base cost every request pays (lookup + response).
    A miss adds ``t_miss`` — one backing-store round trip regardless of
    how many items the policy chose to load — plus ``t_item`` per
    loaded item beyond the requested one (transfer cost of the spatial
    subset).  ``dist="exponential"`` replaces the deterministic time
    with an exponential draw of that mean (the M/M/1-testable mode);
    ``"deterministic"`` is the default.

    ``size_dist="etc"`` makes the per-item transfer cost *variable*:
    every item gets a deterministic value size from the Facebook-ETC
    Generalized Pareto fit (:func:`repro.workloads.etc_item_sizes`,
    seeded by ``size_seed``, parameters ``size_scale``/``size_shape``),
    normalized to mean 1.0 so ``t_item`` keeps its meaning as the
    *average* per-item transfer time — a miss that side-loads
    heavy-tailed values pays proportionally more.  The default
    ``"none"`` preserves the fixed-cost model bit-for-bit *and* its
    :meth:`as_dict` payload (size fields are omitted), so existing
    serving cell hashes are untouched.
    """

    t_hit: float = 1.0
    t_miss: float = 100.0
    t_item: float = 0.0
    dist: str = "deterministic"
    seed: int = 0
    size_dist: str = "none"
    size_seed: int = 0
    size_scale: float = 214.476
    size_shape: float = 0.348238

    def __post_init__(self) -> None:
        if self.t_hit < 0 or self.t_miss < 0 or self.t_item < 0:
            raise ConfigurationError("service times must be >= 0")
        if self.t_hit + self.t_miss <= 0:
            raise ConfigurationError("t_hit + t_miss must be > 0")
        if self.dist not in ("deterministic", "exponential"):
            raise ConfigurationError(
                f"service dist must be 'deterministic' or 'exponential', "
                f"got {self.dist!r}"
            )
        if self.size_dist not in ("none", "etc"):
            raise ConfigurationError(
                f"size_dist must be 'none' or 'etc', got {self.size_dist!r}"
            )
        if self.size_scale <= 0 or self.size_shape <= 0:
            raise ConfigurationError("size_scale and size_shape must be > 0")

    def item_weights(self, universe: int) -> Optional[np.ndarray]:
        """Per-item transfer weights (mean 1.0), or ``None`` for fixed.

        With ``size_dist="etc"`` the weight of item ``i`` is its ETC
        value size divided by the universe's mean size, so
        ``t_item * weight`` is that item's transfer time and the
        *expected* extra-item cost matches the fixed model's.
        """
        if self.size_dist == "none":
            return None
        from repro.workloads.etc import etc_item_sizes

        sizes = etc_item_sizes(
            universe,
            seed=self.size_seed,
            scale=self.size_scale,
            shape=self.size_shape,
        )
        return sizes / sizes.mean()

    def as_dict(self) -> Dict[str, Any]:
        out = {
            "t_hit": self.t_hit,
            "t_miss": self.t_miss,
            "t_item": self.t_item,
            "dist": self.dist,
            "seed": self.seed,
        }
        # Size-distribution keys only appear when active: legacy
        # fixed-cost payloads (and their campaign cell hashes) must
        # stay byte-identical to the pre-size-model era.
        if self.size_dist != "none":
            out["size_dist"] = self.size_dist
            out["size_seed"] = self.size_seed
            out["size_scale"] = self.size_scale
            out["size_shape"] = self.size_shape
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServiceModel":
        known = set(cls.__dataclass_fields__)  # type: ignore[attr-defined]
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown service model fields: {sorted(unknown)}"
            )
        return cls(**dict(data))


@dataclass(frozen=True)
class ServingConfig:
    """Everything that shapes request latency besides the policy/trace.

    The dict form (:meth:`as_dict`) is JSON-scalar and canonical — the
    campaign layer hashes it into the cell's content address, so any
    arrival/service/queue change recomputes cells instead of reusing
    stale ones.
    """

    arrival: ArrivalSpec = field(default_factory=ArrivalSpec)
    service: ServiceModel = field(default_factory=ServiceModel)
    concurrency: int = 1
    queue: str = "fifo"
    queue_limit: Optional[int] = None
    timeout: Optional[float] = None
    hist_lo: float = 1e-3
    hist_per_decade: int = 20
    hist_decades: int = 12

    def __post_init__(self) -> None:
        if self.concurrency < 1:
            raise ConfigurationError(
                f"concurrency must be >= 1, got {self.concurrency}"
            )
        if self.queue not in ("fifo", "sjf"):
            raise ConfigurationError(
                f"queue must be 'fifo' or 'sjf', got {self.queue!r}"
            )
        if self.queue_limit is not None and self.queue_limit < 0:
            raise ConfigurationError(
                f"queue_limit must be >= 0, got {self.queue_limit}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigurationError(f"timeout must be > 0, got {self.timeout}")

    def new_histogram(self) -> LatencyHistogram:
        return LatencyHistogram(
            lo=self.hist_lo,
            per_decade=self.hist_per_decade,
            decades=self.hist_decades,
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "arrival": self.arrival.as_dict(),
            "service": self.service.as_dict(),
            "concurrency": self.concurrency,
            "queue": self.queue,
            "queue_limit": self.queue_limit,
            "timeout": self.timeout,
            "hist_lo": self.hist_lo,
            "hist_per_decade": self.hist_per_decade,
            "hist_decades": self.hist_decades,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServingConfig":
        known = set(cls.__dataclass_fields__)  # type: ignore[attr-defined]
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown serving config fields: {sorted(unknown)}"
            )
        payload = dict(data)
        if "arrival" in payload:
            payload["arrival"] = ArrivalSpec.from_dict(payload["arrival"])
        if "service" in payload:
            payload["service"] = ServiceModel.from_dict(payload["service"])
        return cls(**payload)


@dataclass
class ServingResult:
    """One serving run: cache statistics plus the latency story.

    ``sim`` is the referee's :class:`~repro.types.SimResult` — with the
    default FIFO/no-drop config it is bit-identical to what
    ``simulate()`` returns for the same policy/trace.  Everything else
    is time: conservation counters (``arrivals = completions +
    dropped_admission + dropped_timeout`` once the loop drains),
    latency/wait histograms with per-class breakdowns, and the
    Little's-law integrals (``area_in_system`` is ∫N(t)dt, so
    ``little_l == little_lambda * little_w`` exactly on no-drop runs).
    """

    sim: SimResult
    serving: Dict[str, Any]
    arrivals: int = 0
    completions: int = 0
    dropped_admission: int = 0
    dropped_timeout: int = 0
    duration: float = 0.0
    sojourn_sum: float = 0.0
    wait_sum: float = 0.0
    service_sum: float = 0.0
    area_in_system: float = 0.0
    area_busy: float = 0.0
    queue_peak: int = 0
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    latency_by_kind: Dict[str, LatencyHistogram] = field(default_factory=dict)
    wait: LatencyHistogram = field(default_factory=LatencyHistogram)

    # -- headline latency --------------------------------------------------
    @property
    def p50(self) -> float:
        return self.latency.p50

    @property
    def p99(self) -> float:
        return self.latency.p99

    @property
    def p999(self) -> float:
        return self.latency.p999

    @property
    def mean_latency(self) -> float:
        return self.sojourn_sum / self.completions if self.completions else 0.0

    @property
    def mean_wait(self) -> float:
        return self.wait_sum / self.completions if self.completions else 0.0

    @property
    def mean_service(self) -> float:
        return self.service_sum / self.completions if self.completions else 0.0

    # -- load / conservation ----------------------------------------------
    @property
    def dropped(self) -> int:
        return self.dropped_admission + self.dropped_timeout

    @property
    def drop_ratio(self) -> float:
        return self.dropped / self.arrivals if self.arrivals else 0.0

    @property
    def offered_rate(self) -> Optional[float]:
        """Configured open-loop rate (``None`` for closed loop)."""
        return self.serving.get("arrival", {}).get("rate")

    @property
    def throughput(self) -> float:
        """Achieved completions per simulated time unit."""
        return self.completions / self.duration if self.duration > 0 else 0.0

    @property
    def utilization(self) -> float:
        """Busy-server time over total server time."""
        denom = self.duration * int(self.serving.get("concurrency", 1))
        return self.area_busy / denom if denom > 0 else 0.0

    # -- Little's law -------------------------------------------------------
    @property
    def little_l(self) -> float:
        """Time-average number of requests in the system (∫N dt / T)."""
        return self.area_in_system / self.duration if self.duration > 0 else 0.0

    @property
    def little_lambda(self) -> float:
        return self.throughput

    @property
    def little_w(self) -> float:
        return self.mean_latency

    # -- interchange -------------------------------------------------------
    def as_row(self) -> Dict[str, Any]:
        """Flat row for tables/sweeps: cache columns + latency columns."""
        row = self.sim.as_row()
        arrival = self.serving.get("arrival", {})
        row.update(
            {
                "arrival_process": arrival.get("process", ""),
                "offered_rate": self.offered_rate,
                "concurrency": self.serving.get("concurrency", 1),
                "arrivals": self.arrivals,
                "completions": self.completions,
                "dropped_admission": self.dropped_admission,
                "dropped_timeout": self.dropped_timeout,
                "duration": self.duration,
                "throughput": self.throughput,
                "utilization": self.utilization,
                "mean_latency": self.mean_latency,
                "mean_wait": self.mean_wait,
                "p50": self.p50,
                "p99": self.p99,
                "p999": self.p999,
            }
        )
        for key, hist in sorted(self.latency_by_kind.items()):
            row[f"p99_{key}"] = hist.p99
            row[f"mean_{key}"] = hist.mean
        return row

    def fields(self) -> Dict[str, Any]:
        """Lossless JSON-safe payload (campaign-store interchange).

        The ``"kind": "serving"`` marker is what
        :func:`repro.campaign.runner.result_from_fields` dispatches on;
        top-level ``accesses`` feeds the executor's progress counters.
        """
        from repro.campaign.runner import result_fields

        return {
            "kind": "serving",
            "accesses": self.sim.accesses,
            "sim": result_fields(self.sim),
            "serving": dict(self.serving),
            "arrivals": self.arrivals,
            "completions": self.completions,
            "dropped_admission": self.dropped_admission,
            "dropped_timeout": self.dropped_timeout,
            "duration": self.duration,
            "sojourn_sum": self.sojourn_sum,
            "wait_sum": self.wait_sum,
            "service_sum": self.service_sum,
            "area_in_system": self.area_in_system,
            "area_busy": self.area_busy,
            "queue_peak": self.queue_peak,
            "latency": self.latency.as_dict(),
            "latency_by_kind": {
                key: hist.as_dict()
                for key, hist in sorted(self.latency_by_kind.items())
            },
            "wait": self.wait.as_dict(),
        }

    @classmethod
    def from_fields(cls, data: Mapping[str, Any]) -> "ServingResult":
        from repro.campaign.runner import result_from_fields

        return cls(
            sim=result_from_fields(data["sim"]),
            serving=dict(data["serving"]),
            arrivals=int(data["arrivals"]),
            completions=int(data["completions"]),
            dropped_admission=int(data["dropped_admission"]),
            dropped_timeout=int(data["dropped_timeout"]),
            duration=float(data["duration"]),
            sojourn_sum=float(data["sojourn_sum"]),
            wait_sum=float(data["wait_sum"]),
            service_sum=float(data["service_sum"]),
            area_in_system=float(data["area_in_system"]),
            area_busy=float(data["area_busy"]),
            queue_peak=int(data["queue_peak"]),
            latency=LatencyHistogram.from_dict(data["latency"]),
            latency_by_kind={
                key: LatencyHistogram.from_dict(payload)
                for key, payload in data["latency_by_kind"].items()
            },
            wait=LatencyHistogram.from_dict(data["wait"]),
        )


def serve(
    policy,
    trace: Trace,
    config: Optional[ServingConfig] = None,
    *,
    engine=None,
    on_access: Optional[Callable[[int, int, HitKind], None]] = None,
    on_event: Optional[Callable[[str, float, int], None]] = None,
) -> ServingResult:
    """Serve ``trace`` through ``policy`` under a serving config.

    ``on_access(pos, item, kind)`` observes the classified access
    stream (the :func:`~repro.core.engine.simulate` contract; ``pos`` is
    the trace position).  ``on_event(name, time, index)`` additionally
    observes the serving events (``arrival`` / ``start`` / ``done`` /
    ``drop_admission`` / ``drop_timeout``) in simulated-time order —
    the hook the invariant tests use to check monotone time.

    ``engine`` dispatches the cache stream through a pre-built engine
    instead of constructing one: anything exposing the referee
    :class:`~repro.core.engine.Engine` surface the loop touches —
    ``access(item)``, a live ``result`` :class:`SimResult`, and a
    ``resident`` membership view — works; this is how
    :class:`repro.cluster.serving_bridge.ClusterEngine` serves as the
    oracle for :func:`~repro.cluster.serving_bridge.serve_cluster`.
    With ``engine`` given, ``policy`` is ignored (pass ``None``) and
    the caller owns offline preparation.

    Which path runs: when a :mod:`repro.core.fast` kernel covers the
    policy (cold, exact class, equivalent mapping) and neither an
    ``engine`` nor ``size_dist="etc"`` asks for the referee, the run
    is on the kernel.  With the FIFO queue and no ``queue_limit`` or
    ``timeout`` the cache stream is fixed before the loop starts, so
    one kernel pass precomputes every request's hit kind and service
    time; under SJF or drops the kernel is stepped once per started
    request (:func:`repro.core.fast.stepper`), and SJF reads its
    residency probe.  ``sim`` is the kernel's :class:`SimResult`.
    Everything else steps the referee ``Engine``, which validates every
    cache action, once per started request.  The kernel path does not
    mutate ``policy``.  On the precomputed kernel path with open-loop
    arrivals and no ``on_event``, start and finish times come from
    arrays (:func:`_serve_arrays`) instead of the event loop, unless an
    arrival coincides with a completion.  Every path gives the same
    :meth:`ServingResult.fields` (``tests/test_serving_fast.py``,
    ``tests/test_serving_golden.py``).

    An offline policy replays a future prepared in trace order, so it
    needs requests started in trace order: under SJF, a
    ``queue_limit`` or a ``timeout`` it raises
    :class:`~repro.errors.ConfigurationError` before any arrival is
    generated.

    The ``serve`` span records both choices: ``path="kernel"|"referee"``
    with the referee's ``fallback_reason`` (``"engine"``,
    ``"etc-sizes"``, or a
    :func:`~repro.core.fast.fast_fallback_reason` value), and
    ``loop="array"|"events"`` with the event loop's ``loop_reason``
    (``"sjf"``, ``"drops"``, ``"on_event"``, ``"closed-loop"``,
    ``"tie"``, or the referee's reason).  To force the referee and the
    loop, pass ``engine=Engine(policy, trace.mapping)``; to force only
    the loop, pass any ``on_event``.

    Returns a :class:`ServingResult`; the run always drains (every
    admitted request completes or is dropped before the loop ends).
    """
    config = config if config is not None else ServingConfig()
    if engine is None:
        check_same_mapping(policy, trace)
        _check_in_order(policy, config)
    reason = _referee_reason(policy, trace, config, engine)
    if reason is None:
        return _serve(
            trace,
            config,
            None,
            lambda: _kernel_replay(policy, trace),
            lambda: stepper(policy, trace),
            on_access,
            on_event,
        )

    def open_engine():
        if engine is not None:
            return engine
        if policy.is_offline:
            policy.prepare(trace)
        return Engine(policy, trace.mapping)

    return _serve(trace, config, reason, None, open_engine, on_access, on_event)


#: Kernel outcome code → :class:`HitKind` (indexed by ``KIND_*``).
_CODE_KINDS: Tuple[HitKind, ...] = tuple(
    sorted(KIND_CODE, key=KIND_CODE.__getitem__)
)

#: ``step(index) -> (code, service_time)``: the cache access of request
#: ``index`` (a ``KIND_*`` code) and its sampled service time, called
#: once per started request, in start order.
_Step = Callable[[int], Tuple[int, float]]

#: Requests per step of the array form's Python-level passes: bounds
#: the temporaries (lists, masks, merged times) to a few chunks.  The
#: event loop flushes its buffered waits and sojourns at this size too.
_CHUNK = 8192


def _serve(
    trace: Trace,
    config: ServingConfig,
    reason: Optional[str],
    replay: Optional[Callable[[], Tuple[SimResult, List[int], List[int]]]],
    open_cache: Callable[[], Any],
    on_access: Optional[Callable[[int, int, HitKind], None]],
    on_event: Optional[Callable[[str, float, int], None]],
) -> ServingResult:
    """The serving run behind :func:`serve` and ``serve_cluster``.

    ``reason`` is ``None`` on the kernel path, or why the referee runs.
    On the kernel path with a fixed cache stream, ``replay()`` returns
    ``(sim, codes, loads)`` for the whole trace in trace order (one
    ``KIND_*`` code per access, one load-set size per miss); otherwise
    ``open_cache()`` returns what the loop steps: a
    :class:`~repro.core.fast.Stepper`-shaped cache (``step``,
    ``contains``, ``result(trace)``) on the kernel path, or a referee
    engine.
    """
    stream_reason = _stream_reason(config)
    loop_reason = reason or stream_reason or _loop_reason(config, on_event)
    n = len(trace)
    model = config.service
    service_rng = np.random.default_rng(
        np.random.SeedSequence([model.seed, 0x53455256])
    )
    think_rng = np.random.default_rng(
        np.random.SeedSequence([config.arrival.seed, 0x434C4F53])
    )

    def _sample_think() -> float:
        think = config.arrival.think
        if think <= 0:
            return 0.0
        return float(think_rng.exponential(think))

    with spans.span(
        "serve",
        requests=n,
        path="kernel" if reason is None else "referee",
        fallback_reason=reason,
    ) as sp:
        cache = sim = None
        if reason is None and stream_reason is None:
            assert replay is not None
            sim, record, loads = replay()
            codes, service = _price(record, loads, model, service_rng)
            del record, loads
        else:
            cache = open_cache()
            if reason is not None:
                cache.result.metadata.update(trace.scalar_metadata())
                sim = cache.result
        result = ServingResult(
            sim=sim,  # a stepped kernel's is known after the loop
            serving=config.as_dict(),
            latency=config.new_histogram(),
            latency_by_kind={
                key: config.new_histogram() for key in KIND_KEYS.values()
            },
            wait=config.new_histogram(),
        )
        arrivals: Optional[np.ndarray] = None
        with spans.span("serve.arrivals", process=config.arrival.process):
            if config.arrival.open_loop and n:
                arrivals = generate_arrivals(config.arrival, n)
        with spans.span("serve.loop", requests=n):
            if loop_reason is None and not _serve_arrays(
                result, config, arrivals, codes, service, trace.items, on_access
            ):
                loop_reason = "tie"
            if loop_reason is not None:
                items: List[int] = trace.items.tolist()
                contains = None
                if cache is None:
                    code_list: List[int] = codes.tolist()
                    step = _table_step(code_list, service)
                else:
                    code_list = [KIND_MISS] * n
                    if reason is None:
                        step = _kernel_step(cache.step, model, service_rng)
                        contains = cache.contains
                    else:
                        step = _referee_step(
                            cache,
                            items,
                            model,
                            model.item_weights(trace.mapping.universe),
                            service_rng,
                        )
                        contains = cache.resident.__contains__
                _run_loop(
                    result,
                    config,
                    step,
                    contains,
                    items,
                    code_list,
                    _sample_think,
                    None if arrivals is None else arrivals.tolist(),
                    on_access,
                    on_event,
                )
        if result.sim is None:
            result.sim = cache.result(trace)
        if sp is not None:
            sp.set("policy", result.sim.policy)
            sp.set("loop", "events" if loop_reason else "array")
            sp.set("loop_reason", loop_reason)
    return result


def _referee_reason(
    policy, trace: Trace, config: ServingConfig, engine
) -> Optional[str]:
    """Why :func:`serve` steps the referee, or ``None`` for a kernel.

    A caller's engine is the referee itself, and ETC sizes weigh the
    exact load set, which kernels do not emit.
    """
    if engine is not None:
        return "engine"
    if config.service.size_dist != "none":
        return "etc-sizes"
    return fast_fallback_reason(policy, trace)


def _stream_reason(config: ServingConfig) -> Optional[str]:
    """Why the cache stream depends on service times, or ``None``.

    SJF reads live residency and drops skip accesses, so no single pass
    before the loop covers them: the loop steps the cache per start.
    """
    if config.queue == "sjf":
        return "sjf"
    if config.queue_limit is not None or config.timeout is not None:
        return "drops"
    return None


def _check_in_order(policy, config: ServingConfig) -> None:
    """Refuse an offline policy under a config that reorders requests.

    An offline policy replays a future prepared in trace order, so SJF,
    which starts requests out of order, and drops, which skip some,
    would break it mid-run; this raises
    :class:`~repro.errors.ConfigurationError` naming the field instead.
    """
    if not policy.is_offline:
        return
    if config.queue == "sjf":
        field_name, value = "queue", config.queue
    elif config.queue_limit is not None:
        field_name, value = "queue_limit", config.queue_limit
    elif config.timeout is not None:
        field_name, value = "timeout", config.timeout
    else:
        return
    name = getattr(policy, "name", type(policy).__name__)
    raise ConfigurationError(
        f"offline policy {name!r} needs requests served in trace order; "
        f"ServingConfig.{field_name}={value!r} reorders or drops them "
        f"(use queue='fifo' with no queue_limit or timeout)"
    )


def _loop_reason(config: ServingConfig, on_event) -> Optional[str]:
    """Why a fixed-stream kernel run steps the event loop, or ``None``
    for the array form (which can still fall back on a time ``"tie"``).

    The array form needs every arrival time before the run starts and
    emits no events.
    """
    if on_event is not None:
        return "on_event"
    if not config.arrival.open_loop:
        return "closed-loop"
    return None


def _kernel_replay(policy, trace: Trace) -> Tuple[SimResult, List[int], List[int]]:
    """One kernel pass: the run's outcome codes and per-miss load sizes.

    FIFO with no drops starts requests in trace order, so the kernel's
    access stream is the stream the referee would see.
    """
    record: List[int] = []
    loads: List[int] = []
    sim = fast_simulate(policy, trace, record=record, loads=loads)
    assert sim is not None  # _referee_reason vetted the kernel
    return sim, record, loads


def _price(
    record: List[int],
    loads: List[int],
    model: ServiceModel,
    service_rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Every request's outcome code and service time, vectorised.

    Means use :func:`_pricer`'s arithmetic; exponential times scale one
    block of standard-exponential draws, taken in trace (start) order by
    the requests whose mean is positive — the stream
    :func:`~repro.serving.arrivals.exponential_draws` hands the loop.
    """
    codes = np.array(record, dtype=np.int8)
    miss = codes == KIND_MISS
    extra = np.zeros(codes.size, dtype=np.int64)
    extra[miss] = np.maximum(np.array(loads, dtype=np.int64) - 1, 0)
    service = np.where(
        miss, model.t_hit + model.t_miss + model.t_item * extra, model.t_hit
    ).astype(np.float64)
    if model.dist == "exponential":
        drawn = service > 0
        service[drawn] *= service_rng.standard_exponential(int(drawn.sum()))
    return codes, service


def _table_step(codes: List[int], service: np.ndarray) -> _Step:
    """The event loop's view of a precomputed kernel pass."""
    times = memoryview(service)  # indexes to Python floats, no copy

    def step(index: int) -> Tuple[int, float]:
        return codes[index], times[index]

    return step


def _serve_arrays(
    result: ServingResult,
    config: ServingConfig,
    arrivals: Optional[np.ndarray],
    codes: np.ndarray,
    service: np.ndarray,
    items: np.ndarray,
    on_access: Optional[Callable[[int, int, HitKind], None]],
) -> bool:
    """The event loop's result for open-loop FIFO, computed from arrays.

    Request ``i`` starts at ``max(a_i, earliest free server)`` — the
    FIFO G/G/c recurrence over a ``concurrency``-entry heap of server
    free times.  Every fold keeps the loop's order, so float sums are
    bit-identical: waits and service times in start order (trace
    order), sojourns in completion order (finish time, then index —
    the heap's insertion tiebreak, since completions are scheduled in
    start order), Little's-law areas in event-time order.

    The loop orders an arrival and a completion at the same instant by
    heap insertion, which the arrays do not model; on such a tie this
    returns ``False`` with ``result`` untouched, and the caller runs
    the event loop instead.
    """
    n = len(service)
    if not n:
        return True
    assert arrivals is not None
    starts = np.empty(n)
    finishes = np.empty(n)
    free = [0.0] * config.concurrency
    for lo in range(0, n, _CHUNK):
        begun: List[float] = []
        ended: List[float] = []
        for arrive, duration in zip(
            arrivals[lo : lo + _CHUNK].tolist(), service[lo : lo + _CHUNK].tolist()
        ):
            begin = free[0]
            if arrive > begin:
                begin = arrive
            end = begin + duration
            heapq.heapreplace(free, end)
            begun.append(begin)
            ended.append(end)
        starts[lo : lo + _CHUNK] = begun
        finishes[lo : lo + _CHUNK] = ended
    order = np.argsort(finishes, kind="stable")
    ends = finishes[order]
    del finishes
    for lo in range(0, n, _CHUNK):
        arrive = arrivals[lo : lo + _CHUNK]
        at = np.minimum(np.searchsorted(ends, arrive), n - 1)
        if (ends[at] == arrive).any():
            return False

    if on_access is not None:
        for lo in range(0, n, _CHUNK):
            for index, item, code in zip(
                range(lo, lo + _CHUNK),
                items[lo : lo + _CHUNK].tolist(),
                codes[lo : lo + _CHUNK].tolist(),
            ):
                on_access(index, item, _CODE_KINDS[code])
    by_code = [result.latency_by_kind[KIND_KEYS[kind]] for kind in _CODE_KINDS]
    peak = 0
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        # Start (trace) order: waits, service, and the queue length
        # each arrival leaves behind (requests arrived, not started).
        arrive = arrivals[lo:hi]
        wait = starts[lo:hi] - arrive
        result.wait.record_many(wait)
        result.wait_sum = ordered_sum(result.wait_sum, wait)
        result.service_sum = ordered_sum(result.service_sum, service[lo:hi])
        queued = np.arange(lo + 1, hi + 1) - np.searchsorted(
            starts, arrive, side="right"
        )
        peak = max(peak, int(queued.max()))
        # Completion order: sojourns.
        done = order[lo:hi]
        sojourn = ends[lo:hi] - arrivals[done]
        result.sojourn_sum = ordered_sum(result.sojourn_sum, sojourn)
        result.latency.record_many(sojourn)
        done_codes = codes[done]
        for code, hist in enumerate(by_code):
            hist.record_many(sojourn[done_codes == code])
    result.arrivals = result.completions = n
    result.queue_peak = peak
    result.duration = float(ends[-1])
    result.area_in_system, result.area_busy = _areas(arrivals, starts, ends)
    return True


def _areas(
    arrivals: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> Tuple[float, float]:
    """``(∫N dt, ∫busy dt)`` as the loop folds them (all inputs sorted).

    Counts are constant between distinct event times; at each one the
    loop adds ``count * dt`` with the count from just before it, i.e.
    the requests that arrived (started) minus those that finished
    strictly earlier.  Time is walked in windows of at most a chunk of
    arrivals and a chunk of completions, cut at a common time, so
    distinct times never straddle two windows.
    """
    n = len(arrivals)
    area_system = area_busy = 0.0
    last = 0.0
    i = j = 0
    while i < n or j < n:
        cut = min(
            arrivals[min(i + _CHUNK, n) - 1] if i < n else np.inf,
            ends[min(j + _CHUNK, n) - 1] if j < n else np.inf,
        )
        i_next = int(np.searchsorted(arrivals, cut, side="right"))
        j_next = int(np.searchsorted(ends, cut, side="right"))
        times = np.unique(np.concatenate((arrivals[i:i_next], ends[j:j_next])))
        finished = np.searchsorted(ends, times)
        dt = np.diff(times, prepend=last)
        area_system = ordered_sum(
            area_system, (np.searchsorted(arrivals, times) - finished) * dt
        )
        area_busy = ordered_sum(
            area_busy, (np.searchsorted(starts, times) - finished) * dt
        )
        last = times[-1]
        i, j = i_next, j_next
    return area_system, area_busy


def _pricer(
    model: ServiceModel, service_rng: np.random.Generator
) -> Callable[[int, float], float]:
    """``price(code, extra_weight)``: one started request's service time.

    A hit's mean is ``t_hit``; a miss's is ``t_hit + t_miss + t_item *
    extra_weight``, where ``extra_weight`` is the transfer weight of the
    items it loaded beyond the requested one: their count,
    ``max(0, loaded - 1)``, under fixed sizes, or their summed
    :meth:`ServiceModel.item_weights` under ETC sizes.  Exponential
    times scale :func:`~repro.serving.arrivals.exponential_draws`
    block draws — ``mean * draw`` is ``rng.exponential(mean)`` bit for
    bit — and zero-mean requests draw nothing.
    """
    t_hit = model.t_hit
    miss_base = model.t_hit + model.t_miss  # summed left to right, as _price does
    t_item = model.t_item
    draw = (
        exponential_draws(service_rng).__next__
        if model.dist == "exponential"
        else None
    )

    def price(code: int, extra: float) -> float:
        mean = miss_base + t_item * extra if code == KIND_MISS else t_hit
        if draw is None:
            return mean
        return mean * draw() if mean > 0 else 0.0

    return price


def _kernel_step(
    cache_step: Callable[[int], Tuple[int, int]],
    model: ServiceModel,
    service_rng: np.random.Generator,
) -> _Step:
    """Step a kernel once per started request and price the access."""
    price = _pricer(model, service_rng)

    def step(index: int) -> Tuple[int, float]:
        code, load = cache_step(index)
        return code, price(code, load - 1 if load > 1 else 0)

    return step


def _referee_step(
    engine,
    items: List[int],
    model: ServiceModel,
    item_weights: Optional[np.ndarray],
    service_rng: np.random.Generator,
) -> _Step:
    """Step the referee engine once per started request."""
    price = _pricer(model, service_rng)

    def step(index: int) -> Tuple[int, float]:
        loaded_before = engine.result.loaded_items
        code = KIND_CODE[engine.access(items[index])]
        if item_weights is None:
            loaded = engine.result.loaded_items - loaded_before
            return code, price(code, max(0, loaded - 1))
        # Size-aware transfer cost: weigh each side-loaded item by its
        # (normalized) value size instead of counting it as 1.
        extra = 0.0
        outcome = engine.last_outcome
        if code == KIND_MISS and outcome is not None:
            requested = items[index]
            for loaded_item in outcome.loaded:
                if loaded_item != requested:
                    extra += float(item_weights[loaded_item])
        return code, price(code, extra)

    return step


def _run_loop(
    result: ServingResult,
    config: ServingConfig,
    step: _Step,
    contains: Optional[Callable[[int], bool]],
    items: List[int],
    codes: List[int],
    sample_think: Callable[[], float],
    open_times: Optional[List[float]],
    on_access: Optional[Callable[[int, int, HitKind], None]],
    on_event: Optional[Callable[[str, float, int], None]],
) -> None:
    """The event loop: every config, and the oracle for the array form.

    Events are ``(time, seq, payload)`` tuples on one heap, popped in
    ``(time, seq)`` order, so same-time events keep the order they were
    scheduled in and simulated time never decreases; scheduling an
    arrival before the current time raises
    :class:`~repro.errors.ConfigurationError`.  A completion's payload
    is its request index; an arrival's is ``-1 - index`` (``-1`` in the
    closed loop, which assigns the index when the arrival is handled).

    ``contains(item)`` is the cache's live residency test, read only by
    the SJF queue.  Each started request's code lands in ``codes``.
    Waits and sojourns are buffered and flushed to the histograms with
    :meth:`LatencyHistogram.record_many`, whose payload equals one
    ``record`` per value.
    """
    n = len(items)
    concurrency = config.concurrency
    queue_limit = config.queue_limit
    timeout = config.timeout
    closed = not config.arrival.open_loop
    model = config.service
    # SJF's key is (expected service, enqueue time, index), expected
    # service being t_hit for a resident item and t_hit + t_miss
    # otherwise.  The queue is in (enqueue time, index) order, so the
    # minimum is the first resident entry, else the head — or always
    # the head when both expectations are equal.
    by_residency = config.queue == "sjf" and model.t_hit + model.t_miss > model.t_hit
    heap: List[Tuple[float, int, int]] = []
    push, pop = heapq.heappush, heapq.heappop
    queue: deque = deque()
    arrival_time: List[float] = [0.0] * n
    waits: List[float] = []
    sojourns: List[float] = []
    done_codes: List[int] = []
    by_code = [result.latency_by_kind[KIND_KEYS[kind]] for kind in _CODE_KINDS]

    def flush() -> None:
        if waits:
            result.wait.record_many(waits)
            result.wait_sum = ordered_sum(result.wait_sum, waits)
            waits.clear()
        if sojourns:
            values = np.array(sojourns)
            result.latency.record_many(values)
            result.sojourn_sum = ordered_sum(result.sojourn_sum, values)
            kinds = np.array(done_codes, dtype=np.int8)
            for code, hist in enumerate(by_code):
                hist.record_many(values[kinds == code])
            sojourns.clear()
            done_codes.clear()

    seq = 0
    now = last_t = 0.0
    area_system = area_busy = service_sum = 0.0
    busy = n_system = queue_peak = 0
    arrived = completed = dropped_admission = dropped_timeout = 0
    # Closed loop: clients are interchangeable consumers of "the next
    # workload request", so the trace cursor is assigned when an
    # arrival is *handled*, not when it is scheduled — think-time
    # randomness can reorder issue events, and assigning at handling
    # time keeps cache accesses in trace order (the conformance
    # invariant) regardless.  ``issued`` counts scheduled arrivals so
    # exactly ``n`` ever enter the system.
    cursor = issued = 0
    if n:
        if closed:
            for _ in range(min(config.arrival.clients, n)):
                push(heap, (sample_think(), seq, -1))
                seq += 1
                issued += 1
        else:
            assert open_times is not None
            if open_times[0] < now:
                raise _past_arrival(0, open_times[0], now)
            push(heap, (open_times[0], seq, -1))
            seq += 1

    while heap:
        now, _, payload = pop(heap)
        dt = now - last_t
        if dt > 0:  # Little's-law integrals up to now
            area_system += n_system * dt
            area_busy += busy * dt
            last_t = now
        if payload < 0:
            if closed:
                index = cursor
                cursor += 1
            else:
                index = -1 - payload
            arrival_time[index] = now
            arrived += 1
            if on_event is not None:
                on_event("arrival", now, index)
            # Next arrival is scheduled lazily: keeps the heap O(in-flight).
            if not closed and index + 1 < n:
                at = open_times[index + 1]  # type: ignore[index]
                if at < now:
                    raise _past_arrival(index + 1, at, now)
                push(heap, (at, seq, -2 - index))
                seq += 1
            if (
                queue_limit is not None
                and busy >= concurrency
                and len(queue) >= queue_limit
            ):
                dropped_admission += 1
                if on_event is not None:
                    on_event("drop_admission", now, index)
                if closed and issued < n:
                    issued += 1
                    push(heap, (now + sample_think(), seq, -1))
                    seq += 1
                continue
            n_system += 1
            # An idle server takes the request at once (through the
            # queue, which is empty whenever a server is idle).
            queue.append((index, now))
            if busy >= concurrency and len(queue) > queue_peak:
                queue_peak = len(queue)
        else:
            busy -= 1
            n_system -= 1
            completed += 1
            sojourns.append(now - arrival_time[payload])
            done_codes.append(codes[payload])
            if on_event is not None:
                on_event("done", now, payload)
        while queue and busy < concurrency:
            if by_residency and len(queue) > 1:
                for pos, (index, _) in enumerate(queue):
                    if contains(items[index]):  # type: ignore[misc]
                        break
                else:
                    pos = 0
                index, enqueued = queue[pos]
                del queue[pos]
            else:
                index, enqueued = queue.popleft()
            wait = now - enqueued
            if timeout is not None and wait > timeout:
                dropped_timeout += 1
                n_system -= 1
                if on_event is not None:
                    on_event("drop_timeout", now, index)
                continue
            busy += 1
            code, service_time = step(index)
            codes[index] = code
            if on_access is not None:
                on_access(index, items[index], _CODE_KINDS[code])
            waits.append(wait)
            service_sum += service_time
            if on_event is not None:
                on_event("start", now, index)
            push(heap, (now + service_time, seq, index))
            seq += 1
        if payload >= 0:
            if closed and issued < n:
                issued += 1
                push(heap, (now + sample_think(), seq, -1))
                seq += 1
            if len(sojourns) >= _CHUNK:
                flush()
    flush()
    result.arrivals = arrived
    result.completions = completed
    result.dropped_admission = dropped_admission
    result.dropped_timeout = dropped_timeout
    result.service_sum = service_sum
    result.duration = last_t
    result.area_in_system = area_system
    result.area_busy = area_busy
    result.queue_peak = queue_peak


def _past_arrival(index: int, at: float, now: float) -> ConfigurationError:
    """The error for scheduling arrival ``index`` into the simulated past."""
    return ConfigurationError(
        f"cannot schedule arrival {index} at t={at} before now={now}"
    )


def serve_policy(
    policy: str,
    capacity: int,
    trace: Trace,
    config: Optional[ServingConfig] = None,
    **policy_kwargs: Any,
) -> ServingResult:
    """Build a registry policy and :func:`serve` the trace through it."""
    from repro.policies import make_policy

    instance = make_policy(policy, capacity, trace.mapping, **policy_kwargs)
    return serve(instance, trace, config)
