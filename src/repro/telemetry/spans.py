"""Hierarchical span tracing: where the wall-clock goes inside a run.

:class:`~repro.telemetry.recorder.Recorder` phases answer "how long did
*this run's* workload/simulate take"; spans answer the production
question "where did a 10k-cell campaign's three hours go" — a tree of
named, timed regions with ids and parent ids that survives thread and
process boundaries, so one trace file reconstructs campaign → cell →
compile/arena-attach/replay/store, across every worker.

Design
------
* A :class:`Span` is one finished region: name, ``trace_id`` (shared by
  the whole tree), ``span_id``, ``parent_id``, epoch start, duration,
  pid/tid, and a flat attribute dict.  Spans are emitted to sinks as
  ``{"type": "span", ...}`` JSONL records — the same interchange format
  (and :class:`~repro.telemetry.sinks.Sink` machinery) the telemetry
  layer already uses, so span and telemetry streams can share a file.
* A :class:`SpanTracer` owns the sink fan-out and the *current span*,
  tracked in a :class:`contextvars.ContextVar` — nesting is automatic
  within a thread, and each thread gets its own stack (a span opened on
  a worker thread parents to the tracer's root, not to whatever another
  thread happens to have open).
* **Process propagation is explicit and picklable**: ship
  :meth:`SpanTracer.current_context` (a :class:`SpanContext`) to the
  worker, have it :func:`enable` a tracer appending to the same path
  with ``root=context`` — its spans join the parent's tree.  Appends
  are one ``write`` + ``flush`` per record on an append-mode handle, so
  concurrent workers interleave whole lines, never torn ones.
* The **ambient tracer** (:func:`enable` / :func:`span` /
  :func:`annotate`) is how library internals participate without
  plumbing a tracer argument through every signature: call sites cost
  one module-global read when tracing is off and return a shared no-op
  context manager.  ``benchmarks/bench_throughput.py`` gates the
  enabled-path overhead on the full-trace fast path at ≤ 1.3×.

Instrumented out of the box: the campaign executor (campaign / plan /
execute / cell / store.put), ``execute_cell`` workers (cell →
compile / arena.attach / replay children), the fast kernels
(compile memo hit/miss, Mattson pass, multi-capacity replay), and
``sweep()``'s per-trace collapse.  Export a recorded file to Chrome
trace-event JSON with ``gc-caching obs trace-export spans.jsonl`` and
open it in Perfetto (see :mod:`repro.obs.trace_export`).
"""

from __future__ import annotations

import contextvars
import os
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.telemetry.sinks import JSONLSink, Sink

__all__ = [
    "Span",
    "SpanContext",
    "SpanTracer",
    "enable",
    "disable",
    "get_tracer",
    "enabled",
    "span",
    "annotate",
    "current_context",
    "new_span_id",
]


def new_span_id() -> str:
    """16 hex chars of OS randomness — unique across processes."""
    return os.urandom(8).hex()


@dataclass(frozen=True)
class SpanContext:
    """The picklable cross-boundary identity of a span.

    Ship one of these to a worker process and open the worker's tracer
    with ``root=context``: every span the worker records carries the
    same ``trace_id`` and parents (directly or transitively) to
    ``span_id``, so the exported tree is seamless.
    """

    trace_id: str
    span_id: str

    def as_dict(self) -> Dict[str, str]:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_dict(cls, data: Dict[str, str]) -> "SpanContext":
        return cls(trace_id=str(data["trace_id"]), span_id=str(data["span_id"]))


@dataclass
class Span:
    """One region of wall-clock, open until its ``with`` block exits."""

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str]
    start: float = 0.0  # epoch seconds (comparable across processes)
    seconds: float = 0.0
    pid: int = 0
    tid: int = 0
    attributes: Dict[str, Any] = field(default_factory=dict)

    def set(self, key: str, value: Any) -> None:
        """Attach/overwrite one attribute while the span is open."""
        self.attributes[key] = value

    @property
    def context(self) -> SpanContext:
        return SpanContext(trace_id=self.trace_id, span_id=self.span_id)

    def as_record(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "type": "span",
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "ts": self.start,
            "seconds": self.seconds,
            "pid": self.pid,
            "tid": self.tid,
        }
        if self.attributes:
            record["attrs"] = self.attributes
        return record

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "Span":
        return cls(
            name=str(record["name"]),
            trace_id=str(record["trace_id"]),
            span_id=str(record["span_id"]),
            parent_id=record.get("parent_id"),
            start=float(record["ts"]),
            seconds=float(record["seconds"]),
            pid=int(record.get("pid", 0)),
            tid=int(record.get("tid", 0)),
            attributes=dict(record.get("attrs", {})),
        )


#: Current open span, per execution context (and therefore per thread —
#: a fresh thread starts with the default, not another thread's stack).
_CURRENT: "contextvars.ContextVar[Optional[Span]]" = contextvars.ContextVar(
    "repro_current_span", default=None
)


class SpanTracer:
    """Records spans into sinks, maintaining the nesting context.

    Parameters
    ----------
    sinks:
        Destinations for ``{"type": "span"}`` records.  Use
        :meth:`to_path` for the common "JSONL file" case.
    root:
        Optional :class:`SpanContext` this tracer's top-level spans
        parent to (cross-process continuation).  Without it, a fresh
        ``trace_id`` is minted and top-level spans have no parent.

    Emission is serialized by a lock, so one tracer may be shared by
    threads; the *context* is per-thread automatically.
    """

    def __init__(
        self,
        sinks: Sequence[Sink] = (),
        root: Optional[SpanContext] = None,
    ) -> None:
        self.sinks: List[Sink] = list(sinks)
        self.root = root
        self.trace_id = root.trace_id if root is not None else new_span_id()
        self._lock = threading.Lock()
        self._closed = False

    @classmethod
    def to_path(
        cls,
        path: Union[str, Path],
        root: Optional[SpanContext] = None,
        append: bool = False,
    ) -> "SpanTracer":
        """Tracer writing line-flushed JSONL to ``path``.

        ``append=True`` is the worker mode: join an existing file
        without truncating it.  The owner (``append=False``) truncates
        once and then *also* writes in append mode — every writer's
        records land at EOF via ``O_APPEND``, so an owner that keeps
        recording while workers append never overwrites their lines
        from its own stale file offset.
        """
        file_path = Path(path)
        if not append:
            file_path.parent.mkdir(parents=True, exist_ok=True)
            file_path.write_text("")
        sink = JSONLSink(file_path, mode="a", line_flush=True)
        return cls(sinks=[sink], root=root)

    # -- recording ---------------------------------------------------------
    @contextmanager
    def span(
        self,
        name: str,
        parent: Optional[SpanContext] = None,
        span_id: Optional[str] = None,
        **attributes: Any,
    ):
        """Open a child of the current span (or of ``parent`` when
        given explicitly); yields the open :class:`Span`.

        ``span_id`` pins the id (used to pre-agree an id across a
        process boundary, e.g. so the campaign executor can parent its
        ``store.put`` span to the worker's ``cell`` span).  An
        exception inside the block is recorded as an ``error``
        attribute and re-raised.
        """
        current = _CURRENT.get()
        if parent is not None:
            parent_id: Optional[str] = parent.span_id
        elif current is not None and current.trace_id == self.trace_id:
            parent_id = current.span_id
        elif self.root is not None:
            parent_id = self.root.span_id
        else:
            parent_id = None
        sp = Span(
            name=name,
            trace_id=self.trace_id,
            span_id=span_id if span_id is not None else new_span_id(),
            parent_id=parent_id,
            start=time.time(),
            pid=os.getpid(),
            tid=threading.get_ident(),
            attributes=dict(attributes),
        )
        token = _CURRENT.set(sp)
        t0 = time.perf_counter()
        try:
            yield sp
        except BaseException as exc:
            sp.attributes.setdefault("error", f"{type(exc).__name__}: {exc}")
            raise
        finally:
            sp.seconds = time.perf_counter() - t0
            _CURRENT.reset(token)
            self._emit(sp.as_record())

    def _emit(self, record: Dict[str, Any]) -> None:
        with self._lock:
            if self._closed:
                return
            for sink in self.sinks:
                sink.emit(record)

    # -- context -----------------------------------------------------------
    def current_context(self) -> Optional[SpanContext]:
        """Innermost open span's context (falling back to the root)."""
        current = _CURRENT.get()
        if current is not None and current.trace_id == self.trace_id:
            return current.context
        return self.root

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Flush and close the sinks (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for sink in self.sinks:
                sink.close()

    def __enter__(self) -> "SpanTracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- the ambient tracer ------------------------------------------------------
#
# Library internals (fast kernels, arena, sweep, campaign) call the
# module-level span()/annotate(); with no tracer enabled these cost one
# global read and return a shared no-op context, so instrumentation can
# stay unconditionally in place on hot-ish paths (never per-access).

_TRACER: Optional[SpanTracer] = None
_NULL_SPAN = nullcontext(None)


def enable(
    target: Union[str, Path, SpanTracer],
    root: Optional[SpanContext] = None,
    append: bool = False,
) -> SpanTracer:
    """Install the process-wide ambient tracer and return it.

    ``target`` is a JSONL path (the common case) or a ready-made
    :class:`SpanTracer`.  A previously enabled tracer is replaced but
    **not** closed — a forked worker that inherited the parent's tracer
    must be able to swap in its own without flushing the parent's
    handle; close the old tracer yourself if you own it.
    """
    global _TRACER
    tracer = (
        target
        if isinstance(target, SpanTracer)
        else SpanTracer.to_path(target, root=root, append=append)
    )
    _TRACER = tracer
    return tracer


def disable(close: bool = True) -> None:
    """Remove the ambient tracer (closing it by default)."""
    global _TRACER
    tracer = _TRACER
    _TRACER = None
    if tracer is not None and close:
        tracer.close()


def get_tracer() -> Optional[SpanTracer]:
    return _TRACER


def enabled() -> bool:
    return _TRACER is not None


def span(name: str, **attributes: Any):
    """Ambient-tracer span; a shared no-op context when tracing is off.

    The no-op yields ``None``, so call sites that mutate the span must
    guard (or use :func:`annotate`, which guards for them)."""
    tracer = _TRACER
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **attributes)


def annotate(**attributes: Any) -> None:
    """Set attributes on the innermost open ambient span (no-op when
    tracing is off or no span is open)."""
    if _TRACER is None:
        return
    current = _CURRENT.get()
    if current is not None:
        current.attributes.update(attributes)


def current_context() -> Optional[SpanContext]:
    """Ambient current span context, for explicit propagation."""
    tracer = _TRACER
    return tracer.current_context() if tracer is not None else None
