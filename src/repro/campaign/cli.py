"""``gc-caching campaign`` subcommand: run/resume/status/watch/export.

The CLI face of :mod:`repro.campaign`.  ``run`` materializes a grid
spec into a campaign directory and drives it; ``resume`` reloads the
directory's own ``spec.json`` and continues (memo hits for everything
already stored, so an interrupted campaign finishes bit-identically to
an uninterrupted one); ``status`` summarizes the store + journal
without executing anything (exiting nonzero when the latest run left
cells quarantined); ``watch`` tails the executor's heartbeat file as a
live status board; ``export`` writes the completed rows in grid order
as CSV or JSONL.

``run``/``resume`` take ``--trace-spans`` (hierarchical span trace,
exportable via ``gc-caching obs trace-export``) and ``--metrics-out``
(Prometheus textfile refreshed on every heartbeat) — see
``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.campaign.journal import Journal
from repro.campaign.runner import (
    CampaignReport,
    CampaignRunner,
    RetryPolicy,
    result_from_fields,
)
from repro.campaign.spec import (
    CampaignSpec,
    TraceSpec,
    trace_workload_names,
)
from repro.campaign.store import ResultStore
from repro.errors import ConfigurationError

__all__ = [
    "add_campaign_parser",
    "run_campaign_command",
    "collect_rows",
]


def _csv_list(text: str) -> List[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _int_list(text: str) -> List[int]:
    return [int(part) for part in _csv_list(text)]


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """Observability flags shared by ``run`` and ``resume``."""
    parser.add_argument(
        "--trace-spans",
        metavar="SPANS.jsonl",
        default=None,
        help="record hierarchical spans (campaign/cell/replay/...) to "
        "this JSONL file; export with `gc-caching obs trace-export`",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="METRICS.prom",
        default=None,
        help="write a Prometheus textfile snapshot of live campaign "
        "metrics on every heartbeat",
    )


def add_campaign_parser(sub: argparse._SubParsersAction) -> None:
    """Attach the ``campaign`` subparser tree to the main CLI."""
    p = sub.add_parser(
        "campaign",
        help="checkpointed, memoizing experiment grids (run/resume/status/export)",
    )
    action = p.add_subparsers(dest="campaign_command", required=True)

    p_run = action.add_parser("run", help="create (or continue) a campaign")
    p_run.add_argument("directory", help="campaign directory (created if new)")
    p_run.add_argument("--name", default=None, help="campaign name")
    p_run.add_argument(
        "--policy",
        type=_csv_list,
        required=True,
        metavar="P1,P2,...",
        help="comma-separated registry policy names",
    )
    p_run.add_argument(
        "--capacity",
        type=_int_list,
        required=True,
        metavar="K1,K2,...",
        help="comma-separated cache capacities",
    )
    group = p_run.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--workload", choices=trace_workload_names(), help="trace generator"
    )
    group.add_argument("--trace-file", help="text trace file to replay")
    group.add_argument(
        "--trace",
        metavar="PATH.rtc",
        help="compiled .rtc trace to replay memory-mapped "
        "(see `gc-caching trace convert`)",
    )
    p_run.add_argument("--densify", action="store_true")
    p_run.add_argument("--length", type=int, default=50_000)
    p_run.add_argument("--universe", type=int, default=4096)
    p_run.add_argument("--block-size", type=int, default=8)
    p_run.add_argument("--alpha", type=float, default=1.0)
    p_run.add_argument("--stay", type=float, default=0.8)
    p_run.add_argument(
        "--seed",
        type=_int_list,
        default=[0],
        metavar="S1,S2,...",
        help="comma-separated seeds (one trace per seed)",
    )
    p_run.add_argument("--fast", action="store_true")
    p_run.add_argument("--parallel", action="store_true")
    p_run.add_argument(
        "--workers",
        "--jobs",
        type=int,
        default=None,
        dest="workers",
        help="worker processes (default: REPRO_JOBS env, else all CPUs)",
    )
    p_run.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-cell wall-clock limit in seconds (with --parallel)",
    )
    p_run.add_argument("--max-attempts", type=int, default=3)
    p_run.add_argument("--backoff", type=float, default=0.5)
    _add_obs_flags(p_run)

    p_res = action.add_parser(
        "resume", help="continue an interrupted campaign from its directory"
    )
    p_res.add_argument("directory")
    p_res.add_argument("--parallel", action="store_true")
    p_res.add_argument(
        "--workers",
        "--jobs",
        type=int,
        default=None,
        dest="workers",
        help="worker processes (default: REPRO_JOBS env, else all CPUs)",
    )
    p_res.add_argument("--timeout", type=float, default=None)
    p_res.add_argument("--max-attempts", type=int, default=3)
    p_res.add_argument("--backoff", type=float, default=0.5)
    _add_obs_flags(p_res)

    p_stat = action.add_parser(
        "status",
        help="store/journal summary (exit 1 if cells are quarantined)",
    )
    p_stat.add_argument("directory")

    p_watch = action.add_parser(
        "watch",
        help="live status board for a running (or finished) campaign",
    )
    p_watch.add_argument("directory")
    p_watch.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="refresh period in seconds (default 1.0)",
    )
    p_watch.add_argument(
        "--once",
        action="store_true",
        help="print one snapshot and exit (exit 1 if no state file yet)",
    )

    p_exp = action.add_parser(
        "export", help="write completed rows in grid order"
    )
    p_exp.add_argument("directory")
    p_exp.add_argument("--out", default=None, help="output file (default stdout)")
    p_exp.add_argument(
        "--format",
        choices=("csv", "jsonl", "table"),
        default=None,
        help="defaults from --out suffix, else an aligned table",
    )


def _spec_from_namespace(ns: argparse.Namespace) -> CampaignSpec:
    if getattr(ns, "trace", None):
        from repro.core.rtc import rtc_info

        # Key the trace by basename plus a fingerprint prefix so
        # `status`/`watch` boards and exported rows say *which* compiled
        # trace ran, not just its (reusable) filename.  rtc_info reads
        # only the header, so planning stays cheap for huge traces.
        info = rtc_info(ns.trace)
        stem = Path(ns.trace).stem
        key = f"{stem}@{info['fingerprint'][:8]}"
        traces = {key: TraceSpec(kind="rtc", path=ns.trace)}
        default_name = f"rtc-{stem}"
    elif ns.trace_file:
        traces = {
            Path(ns.trace_file).stem: TraceSpec(
                kind="file",
                path=ns.trace_file,
                block_size=ns.block_size,
                densify=ns.densify,
            )
        }
        default_name = f"file-{Path(ns.trace_file).stem}"
    else:
        params_by_workload: Dict[str, Dict[str, Any]] = {
            "uniform": dict(
                length=ns.length, universe=ns.universe, block_size=ns.block_size
            ),
            "zipf": dict(
                length=ns.length,
                universe=ns.universe,
                alpha=ns.alpha,
                block_size=ns.block_size,
            ),
            "scan": dict(
                universe=ns.universe,
                block_size=ns.block_size,
                repeats=max(1, ns.length // max(1, ns.universe)),
            ),
            "block_runs": dict(
                length=ns.length, universe=ns.universe, block_size=ns.block_size
            ),
            "markov": dict(
                length=ns.length,
                universe=ns.universe,
                block_size=ns.block_size,
                stay=ns.stay,
            ),
            "hot_and_stream": dict(
                length=ns.length,
                hot_items=max(1, ns.universe // 8),
                stream_blocks=max(1, ns.universe // ns.block_size),
                block_size=ns.block_size,
            ),
            "dram": dict(length=ns.length),
            "pagecache": dict(length=ns.length),
        }
        if ns.workload not in params_by_workload:
            raise ConfigurationError(
                f"campaign run does not know how to parameterize "
                f"{ns.workload!r}; use a spec-driven CampaignRunner"
            )
        base = params_by_workload[ns.workload]
        seeded = "seed" not in base and ns.workload != "scan"
        traces = {}
        for seed in ns.seed:
            params = dict(base)
            if seeded:
                params["seed"] = seed
            key = f"{ns.workload}-s{seed}" if seeded else ns.workload
            traces[key] = TraceSpec(kind="workload", name=ns.workload, params=params)
            if not seeded:
                break
        default_name = ns.workload
    return CampaignSpec.from_grid(
        name=ns.name or default_name,
        policies=ns.policy,
        capacities=ns.capacity,
        traces=traces,
        fast=ns.fast,
    )


def _retry_from_namespace(ns: argparse.Namespace) -> RetryPolicy:
    return RetryPolicy(
        max_attempts=ns.max_attempts,
        backoff_base=ns.backoff,
        timeout=ns.timeout,
    )


def _render_report(report: CampaignReport, directory: str) -> str:
    from repro.analysis.tables import format_table

    summary = report.summary()
    lines = [
        f"campaign {summary['name']!r} in {directory}: "
        f"{summary['done']}/{summary['cells']} cells done "
        f"({summary['memo_hits']} memoized, {summary['computed']} computed, "
        f"{summary['failures']} failed attempts, "
        f"{summary['quarantined']} quarantined) "
        f"in {summary['seconds']:.2f}s"
    ]
    if report.quarantined:
        rows = [
            {
                "index": o.index,
                "policy": o.cell.policy,
                "capacity": o.cell.capacity,
                "trace": o.cell.trace,
                "attempts": o.attempts,
                "last_error": (o.error or "")[:60],
            }
            for o in report.quarantined
        ]
        lines.append(format_table(rows, title="quarantined cells"))
        lines.append("re-run `campaign resume` to retry quarantined cells")
    else:
        lines.append(f"export: `gc-caching campaign export {directory}`")
    return "\n".join(lines)


def collect_rows(directory: str | Path) -> List[Dict[str, Any]]:
    """Completed rows of a campaign directory, in grid order.

    Pure store read — nothing executes.  Incomplete cells are skipped.
    """
    spec = CampaignSpec.load(directory)
    fingerprints = {
        key: tspec.materialize().fingerprint()
        for key, tspec in spec.traces.items()
    }
    rows: List[Dict[str, Any]] = []
    with ResultStore(directory) as store:
        for cell, digest in zip(spec.cells, spec.digests(fingerprints)):
            stored = store.get(digest)
            if stored is None:
                continue
            row = result_from_fields(stored).as_row()
            for key, value in cell.params_row().items():
                row.setdefault(key, value)
            rows.append(row)
    return rows


def _status(directory: str) -> tuple:
    """Render the status board; exit code 1 when cells are quarantined.

    A quarantined cell means the latest run gave up on it — scripts
    polling ``campaign status`` in CI need that surfaced as a nonzero
    exit, not buried in a table.
    """
    from repro.analysis.tables import format_table

    spec = CampaignSpec.load(directory)
    journal = Journal(directory)
    attempts = journal.attempts_by_hash()
    errors = journal.last_error_by_hash()
    quarantined = journal.quarantined_cells()
    fingerprints = {
        key: tspec.materialize().fingerprint()
        for key, tspec in spec.traces.items()
    }
    rows = []
    done = 0
    stuck = 0
    with ResultStore(directory) as store:
        digests = spec.digests(fingerprints)
        for index, (cell, digest) in enumerate(zip(spec.cells, digests)):
            stored = digest in store
            done += stored
            # A quarantine record only matters while the cell is still
            # missing from the store: a later resume may have finished it.
            quarantine = None if stored else quarantined.get(digest)
            if quarantine is not None:
                stuck += 1
                status = "quarantined"
                error = quarantine["error"] or errors.get(digest, "")
            else:
                status = "done" if stored else "pending"
                error = "" if stored else errors.get(digest, "")
            rows.append(
                {
                    "index": index,
                    "policy": cell.policy,
                    "capacity": cell.capacity,
                    "trace": cell.trace,
                    "mode": cell.mode_label(),
                    "status": status,
                    "attempts": attempts.get(digest, 0),
                    "last_error": error[:48],
                }
            )
    header = (
        f"campaign {spec.name!r} (version {spec.version}, "
        f"{journal.run_count()} run(s)): {done}/{len(spec.cells)} cells done"
    )
    if stuck:
        header += (
            f"\nWARNING: {stuck} cell(s) quarantined by the latest run — "
            "`campaign resume` retries them with a fresh attempt budget"
        )
    return header + "\n" + format_table(rows, title="cells"), 1 if stuck else 0


def _export(ns: argparse.Namespace) -> str:
    rows = collect_rows(ns.directory)
    fmt = ns.format
    if fmt is None and ns.out:
        fmt = "csv" if ns.out.endswith(".csv") else "jsonl"
    spec = CampaignSpec.load(ns.directory)
    if not rows:
        return f"campaign {spec.name!r}: no completed cells to export"
    if ns.out:
        out_path = Path(ns.out)
        if fmt == "csv":
            from repro.analysis.tables import write_csv

            write_csv(rows, out_path)
        else:
            out_path.parent.mkdir(parents=True, exist_ok=True)
            out_path.write_text(
                "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows)
            )
        total = len(spec.cells)
        return f"wrote {len(rows)}/{total} rows to {out_path} ({fmt})"
    if fmt == "jsonl":
        return "\n".join(json.dumps(r, sort_keys=True) for r in rows)
    if fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue().rstrip("\n")
    from repro.analysis.tables import format_table

    return format_table(rows, title=f"campaign {spec.name!r}")


def run_campaign_command(ns: argparse.Namespace):
    """Dispatch one ``campaign`` subcommand.

    Returns printable output, or a ``(text, exit_code)`` tuple where a
    nonzero exit is meaningful (``status`` with quarantined cells,
    ``watch``).
    """
    if ns.campaign_command == "run":
        spec = _spec_from_namespace(ns)
        with CampaignRunner(
            ns.directory,
            spec,
            parallel=ns.parallel,
            max_workers=ns.workers,
            retry=_retry_from_namespace(ns),
            trace_spans=ns.trace_spans,
            metrics_out=ns.metrics_out,
        ) as runner:
            report = runner.run()
        return _render_report(report, ns.directory)
    if ns.campaign_command == "resume":
        with CampaignRunner(
            ns.directory,
            parallel=ns.parallel,
            max_workers=ns.workers,
            retry=_retry_from_namespace(ns),
            trace_spans=ns.trace_spans,
            metrics_out=ns.metrics_out,
        ) as runner:
            report = runner.run()
        return _render_report(report, ns.directory)
    if ns.campaign_command == "status":
        return _status(ns.directory)
    if ns.campaign_command == "watch":
        from repro.obs.watch import watch_loop

        return "", watch_loop(
            ns.directory, interval=ns.interval, once=ns.once
        )
    if ns.campaign_command == "export":
        return _export(ns)
    raise ConfigurationError(
        f"unknown campaign command {ns.campaign_command!r}"
    )  # pragma: no cover
