"""Parameter sweeps with optional process parallelism.

Experiments and benches sweep (policy, capacity, workload) grids; each
cell is an independent simulation, so the sweep is embarrassingly
parallel.  ``parallel=True`` fans cells out over a
:class:`concurrent.futures.ProcessPoolExecutor` — the worker function
and its arguments must be picklable (module-level functions, plain
data).  Results always come back in grid order regardless of
completion order, so parallel and serial runs are bit-identical.

:func:`sweep` is a plain ordered map: every cell runs through ``fn`` on
its own.  Batching cells that share a trace into one
:func:`repro.core.fast.multi_policy_replay` traversal is
:meth:`repro.campaign.CampaignCache.simulate_many`'s job (see
``docs/fastpath.md``).

Telemetry integration: with ``timing=True`` every row gains a
``cell_seconds`` wall-clock column (measured inside the worker, so it
is the cell's own cost, not queueing time).  A worker may also leave a
:class:`repro.telemetry.Recorder` as a row value; it is flattened
in-worker into ``<key>_*`` scalar summary columns (and stays
picklable), so per-cell windowed/timing telemetry rides along grid
rows without every experiment hand-rolling the plumbing.

Timing guarantee: ``cell_seconds`` brackets *exactly* the
``fn(**cell)`` call — row post-processing (copying
the mapping, flattening recorders, which runs ``Recorder.finalize``
and therefore flushes/closes sinks) happen outside the timed region,
so the column is the cell body's cost and nothing else.

Error context: in a parallel sweep a worker exception is re-raised in
the parent as :class:`repro.errors.SweepCellError` naming the failing
cell's kwargs, with the original exception as ``__cause__``.  A serial
sweep raises in the caller's own stack, which already shows the cell.
"""

from __future__ import annotations

import itertools
import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, Iterable, List, Mapping, Sequence

from repro.errors import ConfigurationError, SweepCellError

__all__ = ["grid", "simulate_cell", "sweep", "default_workers"]


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


def _call(
    fn: Callable[..., Mapping[str, Any]],
    kwargs: Dict[str, Any],
    timing: bool = False,
):
    # The timed region is the cell body alone; see the module
    # docstring's timing guarantee.
    t0 = time.perf_counter()
    raw = fn(**kwargs)
    elapsed = time.perf_counter() - t0
    out = dict(raw)
    _flatten_recorders(out)
    if timing:
        out.setdefault("cell_seconds", elapsed)
    return out


def _echo(row: Dict[str, Any], cell: Dict[str, Any]) -> Dict[str, Any]:
    # Echo the cell's parameters so rows are self-describing.  The
    # parent echoes its own objects, so a parallel row carries the
    # caller's trace rather than a copy pickled back from the worker.
    for key, value in cell.items():
        row.setdefault(key, value)
    return row


def sweep(
    fn: Callable[..., Mapping[str, Any]],
    cells: Iterable[Dict[str, Any]],
    parallel: bool = False,
    max_workers: int | None = None,
    timing: bool = False,
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
        Cells (traces included) travel to workers by pickle.
    max_workers:
        Defaults to :func:`default_workers` (``REPRO_JOBS`` env
        override, else ``os.cpu_count()``); an explicit value must be
        >= 1.
    timing:
        Attach each cell's in-worker wall-clock seconds as a
        ``cell_seconds`` column (worker-provided values win).
    """
    if max_workers is not None and max_workers < 1:
        raise ConfigurationError(f"max_workers must be >= 1, got {max_workers}")
    cell_list = list(cells)
    if not parallel:
        return [_echo(_call(fn, cell, timing), cell) for cell in cell_list]
    if not cell_list:
        return []
    rows: List[Dict[str, Any]] = []
    with ProcessPoolExecutor(max_workers=max_workers or default_workers()) as pool:
        futures = [pool.submit(_call, fn, cell, timing) for cell in cell_list]
        for cell, future in zip(cell_list, futures):
            try:
                rows.append(_echo(future.result(), cell))
            except Exception as exc:
                raise SweepCellError(
                    f"sweep cell {cell!r} failed: "
                    f"{type(exc).__name__}: {exc}",
                    cell=cell,
                ) from exc
    return rows
