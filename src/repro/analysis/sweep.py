"""Parameter sweeps with optional process parallelism and batching.

Experiments and benches sweep (policy, capacity, workload) grids; each
cell is an independent simulation, so the sweep is embarrassingly
parallel.  ``parallel=True`` fans cells out over a
:class:`concurrent.futures.ProcessPoolExecutor` — the worker function
and its arguments must be picklable (module-level functions, plain
data).  Results always come back in grid order regardless of
completion order, so parallel and serial runs are bit-identical.

Two transparent accelerations sit on top (both pure optimizations —
rows are bit-identical to per-cell replay):

* **Per-trace collapse**: plain :func:`simulate_cell` fast-path cells
  over kernel-covered policies collapse per trace into one
  :func:`repro.core.fast.multi_policy_replay` call — the whole policy
  axis of an ablation matrix costs one pass over the compiled trace
  instead of one replay per policy, and Item-LRU/Block-LRU capacity
  axes inside it collapse further into one O(T log T) Mattson
  stack-distance pass.  The collapse is conservative: any extra cell
  key, a kernel-less policy, ``fast=False``, ``timing=True``, a worker
  other than :func:`simulate_cell` itself, or a lone cell on its trace
  replays per cell (see ``docs/fastpath.md``).
* **Shared-memory trace arenas**: a parallel sweep publishes each
  distinct trace once via :mod:`repro.core.arena` and ships workers a
  small handle instead of pickling the trace per cell; workers attach
  zero-copy and cache the attachment.  Falls back to pickling when
  shared memory is unavailable (or ``REPRO_NO_SHM=1``).

Telemetry integration: with ``timing=True`` every row gains a
``cell_seconds`` wall-clock column (measured inside the worker, so it
is the cell's own cost, not queueing time).  A worker may also leave a
:class:`repro.telemetry.Recorder` as a row value; it is flattened
in-worker into ``<key>_*`` scalar summary columns (and stays
picklable), so per-cell windowed/timing telemetry rides along grid
rows without every experiment hand-rolling the plumbing.

Timing guarantee: ``cell_seconds`` brackets *exactly* the
``fn(**cell)`` call — arena attachment, row post-processing (copying
the mapping, flattening recorders, which runs ``Recorder.finalize``
and therefore flushes/closes sinks) happen outside the timed region,
so the column is the cell body's cost and nothing else.

Error context: in a parallel sweep a worker exception is re-raised in
the parent as :class:`repro.errors.SweepCellError` naming the failing
cell's kwargs.  With ``chunksize=1`` (the default) the original
exception rides along as ``__cause__``; with larger chunks only its
type and message survive (chunk results cross the process boundary as
plain data, never pickled exceptions).  A serial sweep raises in the
caller's own stack, which already shows the cell.
"""

from __future__ import annotations

import itertools
import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, SweepCellError

__all__ = ["grid", "simulate_cell", "sweep", "default_workers"]

#: Cell keys the per-trace collapse may see; anything else (e.g. a
#: policy kwarg like ``item_layer_size``) forces per-cell replay.
_BATCHABLE_KEYS = frozenset({"policy", "capacity", "trace", "fast"})


def grid(**axes: Sequence[Any]) -> List[Dict[str, Any]]:
    """Cartesian product of named axes as a list of kwargs dicts.

    >>> grid(k=[1, 2], policy=["lru"])
    [{'k': 1, 'policy': 'lru'}, {'k': 2, 'policy': 'lru'}]
    """
    if not axes:
        return [{}]
    names = list(axes)
    combos = itertools.product(*(axes[n] for n in names))
    return [dict(zip(names, combo)) for combo in combos]


def default_workers() -> int:
    """Worker-count default: ``REPRO_JOBS`` if set, else ``os.cpu_count()``.

    ``REPRO_JOBS`` is the documented override for every parallel entry
    point (``sweep``, ``campaign run``, the CLI's ``--jobs`` flag sets
    it); it must be an integer >= 1.
    """
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ConfigurationError(
                f"REPRO_JOBS must be an integer >= 1, got {env!r}"
            ) from None
        if value < 1:
            raise ConfigurationError(f"REPRO_JOBS must be >= 1, got {value}")
        return value
    return os.cpu_count() or 1


def simulate_cell(
    policy: str,
    capacity: int,
    trace,
    fast: bool = True,
    **policy_kwargs,
) -> Dict[str, Any]:
    """Picklable sweep worker: replay one (policy, capacity, trace) cell.

    Builds the policy by registry name and replays through
    ``simulate(..., fast=fast)``, so sweeps ride the replay kernels of
    :mod:`repro.core.fast` wherever one covers the policy and fall back
    to the referee elsewhere — serial, parallel, fast, and referee runs
    are all bit-identical (``tests/test_analysis.py`` pins this).
    Returns ``SimResult.as_row()``; :func:`sweep` merges the cell
    parameters in.
    """
    # Imported lazily to keep sweep importable without the simulator
    # stack (and to keep worker pickles small).
    from repro.core.engine import simulate
    from repro.policies import make_policy

    instance = make_policy(policy, capacity, trace.mapping, **policy_kwargs)
    return simulate(instance, trace, fast=fast).as_row()


def _flatten_recorders(row: Dict[str, Any]) -> Dict[str, Any]:
    # Imported lazily: telemetry is optional on this path and
    # analysis <-> telemetry must not import each other at module level.
    from repro.telemetry.recorder import Recorder

    for key in [k for k, v in row.items() if isinstance(v, Recorder)]:
        recorder: Recorder = row.pop(key)
        recorder.finalize()
        row.update(recorder.summary(prefix=f"{key}_"))
    return row


def _is_arena_handle(value: Any) -> bool:
    # Duck-typed so workers that never see a handle never import arena.
    cls = type(value)
    return cls.__name__ == "ArenaHandle" and cls.__module__ == "repro.core.arena"


def _resolve_cell(kwargs: Dict[str, Any]) -> Dict[str, Any]:
    """Attach any arena handles in a cell (worker side, untimed)."""
    resolved: Optional[Dict[str, Any]] = None
    for key, value in kwargs.items():
        if _is_arena_handle(value):
            from repro.core import arena

            if resolved is None:
                resolved = dict(kwargs)
            resolved[key] = arena.attach(value)
    return resolved if resolved is not None else kwargs


def _call(
    fn: Callable[..., Mapping[str, Any]],
    kwargs: Dict[str, Any],
    timing: bool = False,
):
    resolved = _resolve_cell(kwargs)
    # The timed region is the cell body alone; see the module
    # docstring's timing guarantee.
    t0 = time.perf_counter()
    raw = fn(**resolved)
    elapsed = time.perf_counter() - t0
    out = dict(raw)
    _flatten_recorders(out)
    if timing:
        out.setdefault("cell_seconds", elapsed)
    # Echo the cell's parameters so rows are self-describing.  The echo
    # uses the *unresolved* cell: an arena handle echoes as the handle
    # (cheap to pickle back) and the parent swaps the original trace in.
    for key, value in kwargs.items():
        out.setdefault(key, value)
    return out


def _call_chunk(
    fn: Callable[..., Mapping[str, Any]],
    chunk: List[Dict[str, Any]],
    timing: bool = False,
) -> List[Tuple[bool, Any]]:
    """Run a slice of cells in one worker round-trip.

    Returns ``(True, row)`` per success; on the first failure appends
    ``(False, (pos, "ExcType: message"))`` and stops (the parent raises
    at the first failure in order, so later cells of a failed chunk
    would be discarded anyway).  Failures travel as plain strings —
    never pickled exception objects, which may not survive the trip.
    """
    out: List[Tuple[bool, Any]] = []
    for pos, kwargs in enumerate(chunk):
        try:
            out.append((True, _call(fn, kwargs, timing)))
        except Exception as exc:
            out.append((False, (pos, f"{type(exc).__name__}: {exc}")))
            break
    return out


def _publish_traces(
    cells: List[Dict[str, Any]],
) -> Tuple[List[Any], List[Dict[str, Any]]]:
    """Publish each distinct trace once; rewrite cells to carry handles.

    Returns ``(arenas, submit_cells)``.  Traces that fail to publish
    (shared memory off, exotic mapping) stay in the cell and travel by
    pickle — the sweep still works, just without the zero-copy win.
    """
    from repro.core import arena
    from repro.core.trace import Trace

    if not arena.shared_memory_available():
        return [], cells
    arenas: List[Any] = []
    published: Dict[int, Any] = {}  # id(trace) -> handle | None
    submit: List[Dict[str, Any]] = []
    for cell in cells:
        rewritten: Optional[Dict[str, Any]] = None
        for key, value in cell.items():
            if not isinstance(value, Trace):
                continue
            if id(value) not in published:
                published_arena = arena.publish(value)
                if published_arena is None:
                    published[id(value)] = None
                else:
                    arenas.append(published_arena)
                    published[id(value)] = published_arena.handle
            handle = published[id(value)]
            if handle is not None:
                if rewritten is None:
                    rewritten = dict(cell)
                rewritten[key] = handle
        submit.append(rewritten if rewritten is not None else cell)
    return arenas, submit


def _restore_row(row: Dict[str, Any], original: Dict[str, Any]) -> Dict[str, Any]:
    # Workers echo the arena handle (cheap to pickle back); swap the
    # original trace object in so rows match a serial sweep exactly.
    for key, value in original.items():
        if _is_arena_handle(row.get(key)):
            row[key] = value
    return row


def _run_policy_batches(
    cell_list: List[Dict[str, Any]],
    rows: List[Optional[Dict[str, Any]]],
) -> None:
    """Collapse pure policy/capacity cells per trace (the one collapse).

    :func:`simulate_cell` cells that are plain fast-path cells over a
    kernel-covered policy are grouped by trace object and each group
    of two or more runs as one
    :func:`repro.core.fast.multi_policy_replay` call, which
    Mattson-collapses Item-LRU/Block-LRU capacity axes itself and
    advances every other cell over one shared traversal.  A
    single-cell group is left alone (``fast_simulate`` already covers
    it at the same cost), and any :class:`ConfigurationError` from the
    batched engine silently defers to per-cell replay.
    """
    from repro.core.fast import FAST_POLICY_NAMES, multi_policy_replay
    from repro.core.trace import Trace
    from repro.telemetry import spans

    groups: Dict[int, List[int]] = {}
    traces: Dict[int, Any] = {}
    for i, cell in enumerate(cell_list):
        if not _BATCHABLE_KEYS.issuperset(cell):
            continue
        policy = cell.get("policy")
        capacity = cell.get("capacity")
        trace = cell.get("trace")
        if cell.get("fast", True) is not True:
            continue
        if policy not in FAST_POLICY_NAMES:
            continue
        if not isinstance(capacity, int) or isinstance(capacity, bool):
            continue
        if capacity < 1 or not isinstance(trace, Trace):
            continue
        groups.setdefault(id(trace), []).append(i)
        traces[id(trace)] = trace
    for trace_id, indices in groups.items():
        if len(indices) < 2:
            continue
        trace = traces[trace_id]
        batch_cells = [
            (cell_list[i]["policy"], int(cell_list[i]["capacity"]))
            for i in indices
        ]
        with spans.span("sweep.policy_batch", cells=len(indices)):
            try:
                results = multi_policy_replay(batch_cells, trace)
            except ConfigurationError:
                continue
        for i, result in zip(indices, results):
            row = result.as_row()
            for key, value in cell_list[i].items():
                row.setdefault(key, value)
            rows[i] = row


def sweep(
    fn: Callable[..., Mapping[str, Any]],
    cells: Iterable[Dict[str, Any]],
    parallel: bool = False,
    max_workers: int | None = None,
    timing: bool = False,
    chunksize: int = 1,
) -> List[Dict[str, Any]]:
    """Evaluate ``fn(**cell)`` for every cell; return rows in order.

    Parameters
    ----------
    fn:
        Worker returning a mapping of result fields; cell parameters
        are merged into the row (worker values win on collision).  A
        :class:`repro.telemetry.Recorder` row value is flattened into
        ``<key>_*`` summary columns.
    cells:
        Typically the output of :func:`grid`.
    parallel:
        Use processes.  Keep workers pure: no shared mutable state.
        Traces in cells are shipped through shared-memory arenas when
        available (pickle fallback otherwise).
    max_workers:
        Defaults to :func:`default_workers` (``REPRO_JOBS`` env
        override, else ``os.cpu_count()``).
    timing:
        Attach each cell's in-worker wall-clock seconds as a
        ``cell_seconds`` column (worker-provided values win).  Timing
        disables the per-trace collapse — a collapsed group has no
        per-cell wall clock to report.
    chunksize:
        Cells per worker round-trip.  The default 1 submits each cell
        as its own future (and preserves the failing exception as
        ``SweepCellError.__cause__``); larger chunks amortize dispatch
        overhead for big grids of cheap cells at the cost of reduced
        error fidelity (type name + message only) and coarser
        load-balancing.

    Pure :func:`simulate_cell` cells collapse into one
    multi-policy replay per trace (bit-identical rows, see the module
    docstring).  For per-cell rows, pass any other worker — e.g.
    ``functools.partial(simulate_cell)``.
    """
    cell_list = list(cells)
    if not cell_list:
        return []
    if chunksize < 1:
        raise ConfigurationError(f"chunksize must be >= 1, got {chunksize}")
    rows: List[Optional[Dict[str, Any]]] = [None] * len(cell_list)
    # The collapse runs in-parent even for parallel sweeps: one batched
    # replay is cheaper than shipping its cells anywhere.
    if not timing and fn is simulate_cell:
        _run_policy_batches(cell_list, rows)
    pending = [i for i in range(len(cell_list)) if rows[i] is None]
    if not pending:
        return rows  # type: ignore[return-value]
    if not parallel:
        for i in pending:
            rows[i] = _call(fn, cell_list[i], timing)
        return rows  # type: ignore[return-value]
    workers = max_workers or default_workers()
    if workers < 1:
        raise ConfigurationError(f"max_workers must be >= 1, got {workers}")
    arenas, submit_cells = _publish_traces([cell_list[i] for i in pending])
    submit_by_idx = dict(zip(pending, submit_cells))
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            if chunksize == 1:
                futures = [
                    (i, pool.submit(_call, fn, submit_by_idx[i], timing))
                    for i in pending
                ]
                for i, future in futures:
                    try:
                        row = future.result()
                    except Exception as exc:
                        raise SweepCellError(
                            f"sweep cell {cell_list[i]!r} failed: "
                            f"{type(exc).__name__}: {exc}",
                            cell=cell_list[i],
                        ) from exc
                    rows[i] = _restore_row(row, cell_list[i])
            else:
                chunks = [
                    pending[j : j + chunksize]
                    for j in range(0, len(pending), chunksize)
                ]
                chunk_futures = [
                    (
                        chunk,
                        pool.submit(
                            _call_chunk,
                            fn,
                            [submit_by_idx[i] for i in chunk],
                            timing,
                        ),
                    )
                    for chunk in chunks
                ]
                for chunk, future in chunk_futures:
                    try:
                        entries = future.result()
                    except Exception as exc:
                        cell = cell_list[chunk[0]]
                        raise SweepCellError(
                            f"sweep chunk starting at cell {cell!r} failed: "
                            f"{type(exc).__name__}: {exc}",
                            cell=cell,
                        ) from exc
                    for i, (ok, payload) in zip(chunk, entries):
                        if not ok:
                            pos, msg = payload
                            cell = cell_list[chunk[pos]]
                            raise SweepCellError(
                                f"sweep cell {cell!r} failed: {msg}", cell=cell
                            )
                        rows[i] = _restore_row(payload, cell_list[i])
    finally:
        for published in arenas:
            published.close()
    return rows  # type: ignore[return-value]
