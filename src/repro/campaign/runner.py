"""The checkpointed, fault-tolerant campaign executor.

Execution model
---------------
Each cell runs in its **own worker process** (not a shared pool): a
hung cell can be killed on timeout, a crashed or ``kill -9``'d worker
takes down only its own cell, and the orchestrator observes both as an
ordinary failed attempt.  Failed attempts retry with exponential
backoff (``delay = base * factor**(attempt-1)``); a cell that exhausts
``max_attempts`` is **quarantined** — journaled with its last error
and skipped — so one poison cell cannot stall the rest of the grid.

Checkpointing is a consequence of content addressing, not a separate
mechanism: every completed cell is committed to the
:class:`~repro.campaign.store.ResultStore` under its hash *before* the
executor moves on, so the store **is** the checkpoint.  ``resume``
simply reruns the campaign — cells whose hash is already stored are
served as memo hits and never recomputed, which makes an interrupted
run's final rows bit-identical (row for row) to an uninterrupted one.
Quarantined cells get a fresh attempt budget on resume: quarantine is
a per-run circuit breaker, not a permanent verdict.

Determinism: workers receive fully materialized traces and seeded
policies; retry timing, worker counts, and scheduling order can change
*when* a cell is computed but never *what* it computes.

Trace delivery: a parallel run publishes each materialized trace once
into a shared-memory arena (:mod:`repro.core.arena`) and ships workers
the small handle; a worker attaches zero-copy and, because attachments
carry the publisher's fingerprint, content addressing is unchanged.
When shared memory is unavailable the trace travels by pickle exactly
as before — the arena is an optimization, never a requirement.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing.connection import wait as connection_wait
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis.sweep import default_workers
from repro.campaign.journal import Journal
from repro.campaign.spec import CampaignSpec, CellSpec
from repro.campaign.store import ResultStore
from repro.core.trace import Trace
from repro.errors import ConfigurationError
from repro.obs.watch import WATCH_FILENAME, write_watch_state
from repro.telemetry import spans
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import SpanContext
from repro.types import SimResult

__all__ = [
    "RetryPolicy",
    "CellOutcome",
    "CampaignReport",
    "CampaignRunner",
    "execute_cell",
    "result_fields",
    "result_from_fields",
]


def result_fields(result: SimResult) -> Dict[str, Any]:
    """Full, JSON-safe :class:`SimResult` state (lossless round-trip)."""
    return {
        "accesses": result.accesses,
        "misses": result.misses,
        "temporal_hits": result.temporal_hits,
        "spatial_hits": result.spatial_hits,
        "loaded_items": result.loaded_items,
        "evicted_items": result.evicted_items,
        "policy": result.policy,
        "capacity": result.capacity,
        "metadata": dict(result.metadata),
        # Telemetry-only; stored when set so reports can show which
        # cells the fast path actually covered.
        **(
            {"fallback_reason": result.fallback_reason}
            if result.fallback_reason is not None
            else {}
        ),
    }


def result_from_fields(fields: Dict[str, Any]):
    """Rebuild the exact result object a worker stored.

    Offline cells stored :func:`result_fields` payloads and round-trip
    to :class:`SimResult`; serving cells are tagged ``"kind":
    "serving"`` and round-trip to
    :class:`repro.serving.ServingResult` (which carries its offline
    ``SimResult`` inside); cluster cells are tagged ``"kind":
    "cluster"`` and round-trip to
    :class:`repro.cluster.ClusterResult`.  All three expose
    ``as_row()``, which is all the report/CSV layers rely on.
    """
    if fields.get("kind") == "serving":
        from repro.serving import ServingResult

        return ServingResult.from_fields(fields)
    if fields.get("kind") == "cluster":
        from repro.cluster import ClusterResult

        return ClusterResult.from_fields(fields)
    return SimResult(
        accesses=int(fields["accesses"]),
        misses=int(fields["misses"]),
        temporal_hits=int(fields["temporal_hits"]),
        spatial_hits=int(fields["spatial_hits"]),
        loaded_items=int(fields["loaded_items"]),
        evicted_items=int(fields["evicted_items"]),
        policy=fields["policy"],
        capacity=int(fields["capacity"]),
        metadata=dict(fields.get("metadata", {})),
        fallback_reason=fields.get("fallback_reason"),
    )


def execute_cell(cell: CellSpec, trace: Trace) -> Dict[str, Any]:
    """Run one cell (same replay path as ``sweep``'s ``simulate_cell``).

    A cell with a ``serving`` config runs the request-level simulator
    instead; a cell with a ``cluster`` spec replays (or serves)
    through an N-shard cluster.  Either payload is self-tagged, so
    :func:`result_from_fields` rebuilds the right type.
    """
    from repro.core.engine import simulate
    from repro.policies import make_policy

    if cell.cluster is not None:
        from repro.cluster import ClusterSpec, replay_cluster

        cluster = ClusterSpec.from_dict(cell.cluster)
        if cell.serving is not None:
            from repro.cluster.serving_bridge import serve_cluster
            from repro.serving import ServingConfig

            return serve_cluster(
                cell.policy,
                cell.capacity,
                trace,
                cluster,
                ServingConfig.from_dict(cell.serving),
                policy_kwargs=cell.policy_kwargs,
            ).fields()
        return replay_cluster(
            cell.policy,
            cell.capacity,
            trace,
            cluster,
            policy_kwargs=cell.policy_kwargs,
            fast=cell.fast,
        ).fields()
    instance = make_policy(
        cell.policy, cell.capacity, trace.mapping, **dict(cell.policy_kwargs)
    )
    if cell.serving is not None:
        from repro.serving import ServingConfig, serve

        return serve(instance, trace, ServingConfig.from_dict(cell.serving)).fields()
    return result_fields(simulate(instance, trace, fast=cell.fast))


def _worker_main(
    conn, cell_dict: Dict[str, Any], trace, span_payload=None
) -> None:
    """Child-process entry: compute one cell, ship outcome over the pipe.

    ``trace`` is either a materialized :class:`Trace` (pickle fallback)
    or an :class:`repro.core.arena.ArenaHandle` to attach zero-copy; a
    failed attach reports like any other cell error and retries.

    ``span_payload`` carries the parent's span tracing across the
    process boundary: the spans file path plus the ids agreed with the
    orchestrator (``span_id`` names this attempt's ``cell`` span, so
    the parent can hang its ``store.put`` under it; ``parent_id`` is
    the orchestrator's ``campaign.execute`` span).  The worker appends
    to the shared file — per-record flushed single writes, so lines
    from concurrent workers interleave whole — and everything the cell
    touches (arena attach, compile memo, replay kernels) nests under
    the ``cell`` span via the ambient tracer.  With fork start the
    child *inherits* the parent's tracer object; :func:`spans.enable`
    replaces it without closing, so the parent's file handle is never
    flushed or closed from the child.
    """
    try:
        from repro.core.arena import resolve

        cell = CellSpec.from_dict(cell_dict)
        if span_payload is not None:
            tracer = spans.enable(
                span_payload["path"],
                root=SpanContext(
                    trace_id=span_payload["trace_id"],
                    span_id=span_payload["parent_id"],
                ),
                append=True,
            )
            cell_cm = tracer.span(
                "cell",
                span_id=span_payload["span_id"],
                **span_payload.get("attrs", {}),
            )
        else:
            from contextlib import nullcontext

            cell_cm = nullcontext()
        with cell_cm:
            fields = execute_cell(cell, resolve(trace))
        conn.send(("ok", fields))
    except BaseException as exc:  # report, never hang the pipe
        try:
            conn.send(
                (
                    "error",
                    f"{type(exc).__name__}: {exc}",
                    traceback.format_exc(),
                )
            )
        except Exception:
            pass
    finally:
        if span_payload is not None:
            spans.disable()
        conn.close()


@dataclass(frozen=True)
class RetryPolicy:
    """Per-cell fault-tolerance knobs.

    ``timeout`` is enforced only for process-isolated execution
    (``parallel=True``), where a stuck worker can be killed; inline
    execution cannot preempt a running cell.
    """

    max_attempts: int = 3
    backoff_base: float = 0.5
    backoff_factor: float = 2.0
    timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base < 0 or self.backoff_factor < 1:
            raise ConfigurationError(
                "backoff_base must be >= 0 and backoff_factor >= 1"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigurationError(f"timeout must be > 0, got {self.timeout}")

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt + 1`` (0-based attempts)."""
        return self.backoff_base * self.backoff_factor ** max(0, attempt - 1)


@dataclass
class CellOutcome:
    """Terminal state of one grid cell after a run."""

    index: int
    cell: CellSpec
    hash: str
    status: str  # "done" | "quarantined"
    attempts: int = 0
    memo: bool = False
    error: Optional[str] = None
    #: ``SimResult`` (offline cell) or ``repro.serving.ServingResult``
    #: (serving cell); both expose ``as_row()``.
    result: Optional[Any] = None


@dataclass
class CampaignReport:
    """What :meth:`CampaignRunner.run` hands back."""

    spec: CampaignSpec
    outcomes: List[CellOutcome]
    computed: int = 0
    memo_hits: int = 0
    attempts: int = 0
    failures: int = 0
    seconds: float = 0.0

    @property
    def done(self) -> List[CellOutcome]:
        return [o for o in self.outcomes if o.status == "done"]

    @property
    def quarantined(self) -> List[CellOutcome]:
        return [o for o in self.outcomes if o.status == "quarantined"]

    @property
    def complete(self) -> bool:
        return not self.quarantined

    @property
    def memo_hit_ratio(self) -> float:
        """Fraction of completed cells served from the result store."""
        done = len(self.done)
        return self.memo_hits / done if done else 0.0

    def rows(self) -> List[Dict[str, Any]]:
        """Result rows in grid order (sweep-compatible: ``as_row()`` +
        echoed cell parameters, worker values winning on collision)."""
        out = []
        for outcome in self.done:
            assert outcome.result is not None
            row = outcome.result.as_row()
            for key, value in outcome.cell.params_row().items():
                row.setdefault(key, value)
            out.append(row)
        return out

    def summary(self) -> Dict[str, Any]:
        return {
            "name": self.spec.name,
            "cells": len(self.outcomes),
            "done": len(self.done),
            "quarantined": len(self.quarantined),
            "memo_hits": self.memo_hits,
            "computed": self.computed,
            "attempts": self.attempts,
            "failures": self.failures,
            "memo_hit_ratio": self.memo_hit_ratio,
            "seconds": self.seconds,
        }


class _CellState:
    __slots__ = ("index", "cell", "hash", "attempts", "not_before", "span_id")

    def __init__(self, index: int, cell: CellSpec, digest: str) -> None:
        self.index = index
        self.cell = cell
        self.hash = digest
        self.attempts = 0
        self.not_before = 0.0
        # Span id of the latest attempt's "cell" span (pre-agreed with
        # the worker so the orchestrator's store.put can parent to it).
        self.span_id: Optional[str] = None


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class CampaignRunner:
    """Drive one campaign directory to completion (run or resume).

    Parameters
    ----------
    directory:
        The campaign directory.  If ``spec`` is given it is saved
        there (a differing existing spec is a configuration error —
        one directory, one campaign); if omitted, the directory's
        ``spec.json`` is loaded, which is exactly what ``resume`` does.
    parallel / max_workers:
        Fan cells out over per-cell worker processes.  Serial mode
        runs cells inline (no timeout enforcement, but identical
        retry/quarantine/memo semantics).
    retry:
        :class:`RetryPolicy` for timeouts/backoff/quarantine.
    recorder:
        Optional :class:`repro.telemetry.Recorder`; the runner times
        ``plan``/``execute`` phases and publishes campaign counters
        into its registry.  The recorder is *not* finalized here so a
        caller can keep composing phases.
    sleep:
        Injectable sleep (tests use a no-op to make backoff instant).
    trace_spans:
        Record hierarchical spans (campaign → plan/execute → cell →
        compile/attach/replay/store) to this JSONL file; workers join
        the same file across the process boundary.  Export with
        ``gc-caching obs trace-export``.
    metrics_out:
        Refresh a Prometheus-textfile snapshot of the live campaign
        gauges here on every heartbeat (and once more at the end).
    heartbeat:
        Seconds between ``watch.json`` progress snapshots in the
        campaign directory (what ``gc-caching campaign watch`` polls);
        ``0`` disables heartbeats entirely.
    """

    def __init__(
        self,
        directory: str | Path,
        spec: Optional[CampaignSpec] = None,
        *,
        parallel: bool = False,
        max_workers: Optional[int] = None,
        retry: RetryPolicy = RetryPolicy(),
        recorder=None,
        sleep: Callable[[float], None] = time.sleep,
        store_sync: bool = True,
        tick: float = 0.05,
        trace_spans: Optional[str | Path] = None,
        metrics_out: Optional[str | Path] = None,
        heartbeat: float = 1.0,
    ) -> None:
        self.directory = Path(directory)
        self._respec_from: Optional[str] = None
        if spec is not None:
            # A directory may be re-pointed at an evolved spec (wider
            # grid, new fast flag, ...): the store is content-addressed,
            # so every previously computed overlapping cell stays a
            # valid memo entry and only changed cells recompute.  The
            # replacement is journaled below for auditability.
            spec_path = self.directory / "spec.json"
            if spec_path.exists():
                existing = CampaignSpec.load(self.directory)
                if existing.as_dict() != spec.as_dict():
                    self._respec_from = existing.name
            spec.save(self.directory)
            self.spec = spec
        else:
            self.spec = CampaignSpec.load(self.directory)
        self.parallel = parallel
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        self.max_workers = max_workers or default_workers()
        self.retry = retry
        self._arenas: List[Any] = []
        self.recorder = recorder
        self._sleep = sleep
        self._tick = tick
        self.store = ResultStore(self.directory, sync=store_sync)
        self.journal = Journal(self.directory)
        self._spans_path = Path(trace_spans) if trace_spans else None
        self._metrics_path = Path(metrics_out) if metrics_out else None
        if heartbeat < 0:
            raise ConfigurationError(f"heartbeat must be >= 0, got {heartbeat}")
        self.heartbeat = heartbeat
        self._watch_path = self.directory / WATCH_FILENAME
        # Live gauges for --metrics-out, deliberately separate from the
        # recorder's registry: that one accumulates end-of-run counters
        # (campaign_cells etc.) and mixing gauge/counter kinds under
        # one name is a registry error.
        self._live = MetricsRegistry()
        self._last_heartbeat = 0.0

    # -- planning ----------------------------------------------------------
    def _plan(self) -> Tuple[List[CellOutcome], List[_CellState]]:
        """Materialize traces, hash cells, split memo hits from work."""
        traces: Dict[str, Trace] = {}
        fingerprints: Dict[str, str] = {}
        for key, tspec in self.spec.traces.items():
            trace = tspec.materialize()
            traces[key] = trace
            fingerprints[key] = trace.fingerprint()
        self._traces = traces
        # Parallel runs ship workers arena handles where possible;
        # traces that fail to publish fall back to pickling.
        self._close_arenas()
        self._trace_payloads: Dict[str, Any] = dict(traces)
        if self.parallel:
            from repro.core import arena

            for key, trace in traces.items():
                # mmap-backed .rtc traces need no shm publication: the
                # file is the arena, workers map it themselves.
                handle = arena.mmap_handle(trace)
                if handle is not None:
                    self._trace_payloads[key] = handle
                    continue
                published = arena.publish(trace)
                if published is not None:
                    self._arenas.append(published)
                    self._trace_payloads[key] = published.handle
        outcomes: List[CellOutcome] = []
        todo: List[_CellState] = []
        digests = self.spec.digests(fingerprints)
        for index, (cell, digest) in enumerate(zip(self.spec.cells, digests)):
            stored = self.store.get(digest)
            if stored is not None:
                outcomes.append(
                    CellOutcome(
                        index=index,
                        cell=cell,
                        hash=digest,
                        status="done",
                        memo=True,
                        result=result_from_fields(stored),
                    )
                )
            else:
                todo.append(_CellState(index, cell, digest))
        return outcomes, todo

    # -- shared bookkeeping ------------------------------------------------
    def _commit(
        self, state: _CellState, fields: Dict[str, Any], seconds: float
    ) -> CellOutcome:
        tracer = spans.get_tracer()
        if tracer is not None:
            # Parent the durable-commit span to this cell's span even
            # though the put runs in the orchestrator: the cell span id
            # was pre-agreed with the worker at launch (and recorded by
            # the inline path), so the exported tree shows the commit
            # as the cell's final child.
            parent = (
                SpanContext(trace_id=tracer.trace_id, span_id=state.span_id)
                if state.span_id is not None
                else None
            )
            with tracer.span(
                "store.put", parent=parent, index=state.index, hash=state.hash[:12]
            ):
                self.store.put(state.hash, fields)
        else:
            self.store.put(state.hash, fields)
        self._accesses_done += int(fields.get("accesses", 0))
        self._cell_seconds += seconds
        self.journal.append(
            "done",
            index=state.index,
            hash=state.hash,
            attempt=state.attempts,
            seconds=seconds,
            memo=False,
        )
        return CellOutcome(
            index=state.index,
            cell=state.cell,
            hash=state.hash,
            status="done",
            attempts=state.attempts,
            result=result_from_fields(fields),
        )

    def _fail(
        self, state: _CellState, error: str, now: float
    ) -> Optional[CellOutcome]:
        """Journal a failed attempt; quarantine or schedule the retry.

        Returns the terminal outcome when the cell is quarantined,
        else ``None`` (the cell stays in flight).
        """
        self._failures += 1
        self.journal.append(
            "failed",
            index=state.index,
            hash=state.hash,
            attempt=state.attempts,
            error=error,
        )
        if state.attempts >= self.retry.max_attempts:
            self.journal.append(
                "quarantined",
                index=state.index,
                hash=state.hash,
                attempts=state.attempts,
                error=error,
            )
            self._quarantined += 1
            return CellOutcome(
                index=state.index,
                cell=state.cell,
                hash=state.hash,
                status="quarantined",
                attempts=state.attempts,
                error=error,
            )
        state.not_before = now + self.retry.delay(state.attempts)
        return None

    # -- serial execution --------------------------------------------------
    def _run_inline(self, todo: List[_CellState]) -> List[CellOutcome]:
        outcomes: List[CellOutcome] = []
        ready = list(todo)
        while ready:
            state = ready.pop(0)
            wait_s = state.not_before - time.monotonic()
            if wait_s > 0:
                self._sleep(wait_s)
            state.attempts += 1
            self._attempts += 1
            self.journal.append(
                "attempt",
                index=state.index,
                hash=state.hash,
                attempt=state.attempts,
            )
            t0 = time.perf_counter()
            try:
                # The cell span brackets the cell body alone (commit is
                # its own span, explicitly parented below), mirroring
                # the parallel path where the worker owns the cell span
                # and the orchestrator owns store.put.
                with spans.span(
                    "cell",
                    index=state.index,
                    policy=state.cell.policy,
                    capacity=state.cell.capacity,
                    trace=state.cell.trace,
                    attempt=state.attempts,
                ) as sp:
                    if sp is not None:
                        state.span_id = sp.span_id
                    fields = execute_cell(
                        state.cell, self._traces[state.cell.trace]
                    )
            except Exception as exc:
                terminal = self._fail(
                    state, f"{type(exc).__name__}: {exc}", time.monotonic()
                )
                if terminal is not None:
                    outcomes.append(terminal)
                else:
                    ready.append(state)
                self._heartbeat_tick()
                continue
            self._computed += 1
            outcomes.append(
                self._commit(state, fields, time.perf_counter() - t0)
            )
            self._heartbeat_tick()
        return outcomes

    # -- parallel execution ------------------------------------------------
    def _span_payload(self, state: _CellState) -> Optional[Dict[str, Any]]:
        """Cross-process span continuation for one worker attempt.

        Pre-generates the worker's ``cell`` span id so the orchestrator
        can parent its later ``store.put`` span to a span recorded in
        another process.  Requires a runner-owned spans file: without a
        path the worker has nowhere to append.
        """
        tracer = spans.get_tracer()
        if tracer is None or self._spans_path is None:
            return None
        parent = tracer.current_context()
        if parent is None:
            return None
        state.span_id = spans.new_span_id()
        return {
            "path": str(self._spans_path),
            "trace_id": tracer.trace_id,
            "parent_id": parent.span_id,
            "span_id": state.span_id,
            "attrs": {
                "index": state.index,
                "policy": state.cell.policy,
                "capacity": state.cell.capacity,
                "trace": state.cell.trace,
                "attempt": state.attempts,
            },
        }

    def _launch(self, ctx, state: _CellState):
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        state.attempts += 1
        self._attempts += 1
        proc = ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                state.cell.as_dict(),
                self._trace_payloads[state.cell.trace],
                self._span_payload(state),
            ),
            daemon=True,
        )
        self.journal.append(
            "attempt",
            index=state.index,
            hash=state.hash,
            attempt=state.attempts,
        )
        proc.start()
        child_conn.close()
        deadline = (
            time.monotonic() + self.retry.timeout
            if self.retry.timeout is not None
            else None
        )
        return parent_conn, proc, deadline, time.perf_counter()

    def _run_processes(self, todo: List[_CellState]) -> List[CellOutcome]:
        ctx = _mp_context()
        outcomes: List[CellOutcome] = []
        ready: List[Tuple[float, int, _CellState]] = []  # (not_before, idx, s)
        for state in todo:
            heapq.heappush(ready, (state.not_before, state.index, state))
        running: Dict[Any, Tuple[_CellState, Any, Optional[float], float]] = {}
        try:
            while ready or running:
                self._heartbeat_tick(running)
                now = time.monotonic()
                # Launch every ripe cell a free worker slot can take.
                while (
                    ready
                    and len(running) < self.max_workers
                    and ready[0][0] <= now
                ):
                    _, _, state = heapq.heappop(ready)
                    conn, proc, deadline, t0 = self._launch(ctx, state)
                    running[conn] = (state, proc, deadline, t0)
                if not running:
                    # Only backoff-delayed work left: sleep to ripeness.
                    self._sleep(max(0.0, ready[0][0] - time.monotonic()))
                    # A no-op test sleep must not spin: treat the wait
                    # as elapsed by releasing the ripest cell.
                    not_before, index, state = heapq.heappop(ready)
                    state.not_before = 0.0
                    heapq.heappush(ready, (0.0, index, state))
                    continue
                timeout = self._tick
                deadlines = [d for (_, _, d, _) in running.values() if d]
                if deadlines:
                    timeout = min(
                        timeout, max(0.0, min(deadlines) - time.monotonic())
                    )
                for conn in connection_wait(list(running), timeout=timeout):
                    state, proc, _, t0 = running.pop(conn)
                    terminal = self._reap(
                        conn, proc, state, time.perf_counter() - t0
                    )
                    if terminal is not None:
                        outcomes.append(terminal)
                    else:
                        heapq.heappush(
                            ready, (state.not_before, state.index, state)
                        )
                # Enforce per-cell deadlines on whatever is still running.
                now = time.monotonic()
                for conn in [
                    c
                    for c, (_, _, d, _) in running.items()
                    if d is not None and d <= now
                ]:
                    state, proc, _, t0 = running.pop(conn)
                    proc.kill()
                    proc.join()
                    conn.close()
                    terminal = self._fail(
                        state,
                        f"TimeoutError: cell exceeded {self.retry.timeout}s",
                        now,
                    )
                    if terminal is not None:
                        outcomes.append(terminal)
                    else:
                        heapq.heappush(
                            ready, (state.not_before, state.index, state)
                        )
        finally:
            for state, proc, _, _ in running.values():
                proc.kill()
                proc.join()
        return outcomes

    def _reap(
        self, conn, proc, state: _CellState, seconds: float
    ) -> Optional[CellOutcome]:
        """Handle a worker whose pipe became readable (result or death)."""
        try:
            message = conn.recv()
        except (EOFError, OSError):
            message = None
        finally:
            conn.close()
        proc.join()
        if message is None:
            # Pipe closed with nothing sent: the worker died (OOM kill,
            # SIGKILL crash injection, interpreter abort, ...).
            return self._fail(
                state,
                f"WorkerDied: exitcode={proc.exitcode}",
                time.monotonic(),
            )
        if message[0] == "ok":
            self._computed += 1
            return self._commit(state, message[1], seconds)
        return self._fail(state, message[1], time.monotonic())

    # -- entry point -------------------------------------------------------
    def run(self) -> CampaignReport:
        """Execute (or resume) the campaign; always returns a report.

        Never raises for cell-level failures — those end up
        quarantined in the report — only for campaign-level
        misconfiguration.
        """
        # A runner-owned spans file installs the ambient tracer for the
        # duration of the run (workers join it by path); an ambient
        # tracer the *caller* enabled is respected and left installed.
        owned_tracer = (
            spans.enable(self._spans_path)
            if self._spans_path is not None
            else None
        )
        try:
            with spans.span(
                "campaign",
                campaign=self.spec.name,
                cells=len(self.spec.cells),
                parallel=self.parallel,
            ):
                return self._execute_run()
        finally:
            if owned_tracer is not None and spans.get_tracer() is owned_tracer:
                spans.disable()

    def _execute_run(self) -> CampaignReport:
        t_start = time.perf_counter()
        run_number = self.journal.run_count() + 1
        if self._respec_from is not None:
            self.journal.append(
                "respec", previous=self._respec_from, name=self.spec.name
            )
            self._respec_from = None
        self.journal.append(
            "start",
            run=run_number,
            cells=len(self.spec.cells),
            name=self.spec.name,
            version=self.spec.version,
            parallel=self.parallel,
        )
        phase = (
            self.recorder.phase
            if self.recorder is not None
            else _null_phase
        )
        self._attempts = 0
        self._failures = 0
        self._computed = 0
        self._quarantined = 0
        self._memo_hits = 0
        self._accesses_done = 0
        self._cell_seconds = 0.0
        self._run_number = run_number
        self._t0_mono = time.monotonic()
        self._last_heartbeat = 0.0
        with phase("plan"), spans.span("campaign.plan"):
            memo_outcomes, todo = self._plan()
        self._memo_hits = len(memo_outcomes)
        for outcome in memo_outcomes:
            self.journal.append(
                "done",
                index=outcome.index,
                hash=outcome.hash,
                attempt=0,
                seconds=0.0,
                memo=True,
            )
        self._heartbeat_tick(force=True)
        try:
            with phase("execute"), spans.span("campaign.execute", todo=len(todo)):
                if self.parallel and todo:
                    executed = self._run_processes(todo)
                else:
                    executed = self._run_inline(todo)
        finally:
            self._close_arenas()
        outcomes = sorted(memo_outcomes + executed, key=lambda o: o.index)
        report = CampaignReport(
            spec=self.spec,
            outcomes=outcomes,
            computed=self._computed,
            memo_hits=len(memo_outcomes),
            attempts=self._attempts,
            failures=self._failures,
            seconds=time.perf_counter() - t_start,
        )
        self.journal.append("finish", run=run_number, **report.summary())
        self._heartbeat_tick(force=True, finished=True)
        if self.recorder is not None:
            self._publish_metrics(report)
        return report

    # -- live heartbeat ----------------------------------------------------
    def _heartbeat_tick(
        self,
        running: Optional[Dict[Any, Any]] = None,
        force: bool = False,
        finished: bool = False,
    ) -> None:
        """Throttled snapshot of run progress into ``watch.json`` (and,
        when configured, the Prometheus textfile).

        Heartbeat failures are swallowed: observability must never take
        down a campaign that is otherwise making progress.
        """
        if self.heartbeat <= 0:
            return
        now = time.monotonic()
        if not force and now - self._last_heartbeat < self.heartbeat:
            return
        self._last_heartbeat = now
        state = self._watch_state(running or {}, finished)
        try:
            write_watch_state(self._watch_path, state)
        except OSError:  # pragma: no cover - disk-full style failures
            pass
        if self._metrics_path is not None:
            from repro.obs.promfile import write_prometheus

            self._update_live_metrics(state)
            try:
                write_prometheus(self._live, self._metrics_path)
            except OSError:  # pragma: no cover - disk-full style failures
                pass

    def _watch_state(
        self, running: Dict[Any, Any], finished: bool
    ) -> Dict[str, Any]:
        elapsed = time.monotonic() - self._t0_mono
        total = len(self.spec.cells)
        done = self._memo_hits + self._computed
        remaining = max(0, total - done - self._quarantined)
        per_cell = (
            self._cell_seconds / self._computed if self._computed else None
        )
        workers = self.max_workers if self.parallel else 1
        if remaining == 0:
            eta: Optional[float] = 0.0
        elif per_cell is not None:
            eta = remaining * per_cell / max(1, workers)
        else:
            eta = None  # nothing computed this run yet: no basis
        in_flight = []
        now_perf = time.perf_counter()
        for cell_state, proc, _deadline, t0 in running.values():
            in_flight.append(
                {
                    "index": cell_state.index,
                    "policy": cell_state.cell.policy,
                    "capacity": cell_state.cell.capacity,
                    "trace": cell_state.cell.trace,
                    "mode": cell_state.cell.mode_label(),
                    "attempt": cell_state.attempts,
                    "pid": proc.pid,
                    "seconds": now_perf - t0,
                }
            )
        return {
            "name": self.spec.name,
            "run": self._run_number,
            "ts": time.time(),
            "finished": finished,
            "parallel": self.parallel,
            "workers": workers,
            "cells": total,
            "done": done,
            "memo_hits": self._memo_hits,
            "computed": self._computed,
            "attempts": self._attempts,
            "failures": self._failures,
            "quarantined": self._quarantined,
            "running": sorted(in_flight, key=lambda r: r["index"]),
            "accesses_done": self._accesses_done,
            "accesses_per_sec": (
                self._accesses_done / elapsed if elapsed > 0 else 0.0
            ),
            "memo_hit_ratio": self._memo_hits / done if done else 0.0,
            "store_hit_ratio": self.store.hit_ratio,
            "elapsed_seconds": elapsed,
            "eta_seconds": eta,
        }

    def _update_live_metrics(self, state: Dict[str, Any]) -> None:
        g = self._live.gauge
        g("campaign_cells").set(state["cells"])
        g("campaign_cells_done").set(state["done"])
        g("campaign_cells_quarantined").set(state["quarantined"])
        g("campaign_cells_running").set(len(state["running"]))
        g("campaign_memo_hits").set(state["memo_hits"])
        g("campaign_computed").set(state["computed"])
        g("campaign_attempts").set(state["attempts"])
        g("campaign_failed_attempts").set(state["failures"])
        g("campaign_accesses_per_sec").set(state["accesses_per_sec"])
        g("campaign_memo_hit_ratio").set(state["memo_hit_ratio"])
        g("campaign_store_hit_ratio").set(state["store_hit_ratio"])
        g("campaign_elapsed_seconds").set(state["elapsed_seconds"])
        g("campaign_eta_seconds").set(
            state["eta_seconds"] if state["eta_seconds"] is not None else -1.0
        )
        g("campaign_finished").set(1.0 if state["finished"] else 0.0)

    def _publish_metrics(self, report: CampaignReport) -> None:
        reg = self.recorder.registry
        reg.counter("campaign_cells").inc(len(report.outcomes))
        reg.counter("campaign_memo_hits").inc(report.memo_hits)
        reg.counter("campaign_computed").inc(report.computed)
        reg.counter("campaign_attempts").inc(report.attempts)
        reg.counter("campaign_failures").inc(report.failures)
        reg.counter("campaign_quarantined").inc(len(report.quarantined))
        reg.gauge("campaign_memo_hit_ratio").set(report.memo_hit_ratio)
        reg.gauge("campaign_store_hit_ratio").set(self.store.hit_ratio)

    def _close_arenas(self) -> None:
        while self._arenas:
            self._arenas.pop().close()

    def close(self) -> None:
        self._close_arenas()
        self.store.close()
        self.journal.close()

    def __enter__(self) -> "CampaignRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@contextmanager
def _null_phase(name: str):
    yield
