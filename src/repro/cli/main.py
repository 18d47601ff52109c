"""Argument parsing and dispatch for the ``gc-caching`` CLI.

Examples
--------
::

    gc-caching table 1
    gc-caching table 2 --B 64 --p 2
    gc-caching figure 3 --k 1280000 --B 64
    gc-caching figure 2 --trials 6
    gc-caching simulate --policy iblp --workload hot_and_stream \\
        --capacity 256 --block-size 8 --length 50000
    gc-caching simulate --policy iblp --workload markov --capacity 256 \\
        --telemetry out.jsonl --window 1000 --sample-rate 0.01
    gc-caching report out.jsonl --metric spatial_fraction
    gc-caching adversarial --k 256 --h 48 --B 8
    gc-caching profile --workload dram --length 50000
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from typing import Callable, Dict, List, Optional

import repro
from repro.analysis.tables import format_table
from repro.campaign.cli import add_campaign_parser, run_campaign_command
from repro.cluster.cli import add_cluster_parser, run_cluster_command
from repro.core.engine import simulate as run_simulation
from repro.errors import ConfigurationError
from repro.obs.cli import (
    add_obs_parser,
    csv_list,
    float_list,
    int_list,
    run_obs_command,
)
from repro.locality.profile import profile_trace
from repro.policies import make_policy, policy_names
from repro.workloads import (
    block_runs,
    dram_cache_workload,
    etc_kv_workload,
    hot_and_stream,
    markov_spatial,
    page_cache_workload,
    sequential_scan,
    uniform_random,
    zipf_items,
)

__all__ = ["build_parser", "main"]

_WORKLOADS: Dict[str, Callable] = {
    "uniform": lambda ns: uniform_random(
        ns.length, ns.universe, ns.block_size, ns.seed
    ),
    "zipf": lambda ns: zipf_items(
        ns.length, ns.universe, ns.alpha, ns.block_size, ns.seed
    ),
    "scan": lambda ns: sequential_scan(
        ns.universe, ns.block_size, repeats=max(1, ns.length // ns.universe)
    ),
    "block_runs": lambda ns: block_runs(
        ns.length, ns.universe, ns.block_size, seed=ns.seed
    ),
    "markov": lambda ns: markov_spatial(
        ns.length, ns.universe, ns.block_size, stay=ns.stay, seed=ns.seed
    ),
    "hot_and_stream": lambda ns: hot_and_stream(
        ns.length,
        hot_items=max(1, ns.universe // 8),
        stream_blocks=max(1, ns.universe // ns.block_size),
        block_size=ns.block_size,
        seed=ns.seed,
    ),
    "dram": lambda ns: dram_cache_workload(length=ns.length, seed=ns.seed),
    "pagecache": lambda ns: page_cache_workload(length=ns.length, seed=ns.seed),
    "etc": lambda ns: etc_kv_workload(
        ns.length, ns.universe, ns.block_size, alpha=ns.alpha, seed=ns.seed
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="gc-caching",
        description="Granularity-Change Caching reproduction toolkit",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {repro.__version__}",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        default=None,
        help="worker processes for parallel phases (exported as the "
        "REPRO_JOBS override read by sweeps and campaigns; defaults to "
        "all CPUs)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="reproduce a paper table")
    p_table.add_argument("number", type=int, choices=(1, 2))
    p_table.add_argument("--B", type=float, default=64.0)
    p_table.add_argument("--h", type=float, default=10_000.0)
    p_table.add_argument("--p", type=float, default=2.0)
    p_table.add_argument("--i", type=float, default=4096.0)

    p_fig = sub.add_parser("figure", help="reproduce a paper figure")
    p_fig.add_argument("number", type=int, choices=(2, 3, 5, 6))
    p_fig.add_argument("--k", type=int, default=1_280_000)
    p_fig.add_argument("--B", type=int, default=64)
    p_fig.add_argument("--trials", type=int, default=8)
    p_fig.add_argument("--points", type=int, default=100)

    p_sim = sub.add_parser("simulate", help="run one policy on a workload")
    p_sim.add_argument("--policy", choices=sorted(policy_names()), required=True)
    group = p_sim.add_mutually_exclusive_group(required=True)
    group.add_argument("--workload", choices=sorted(_WORKLOADS))
    group.add_argument(
        "--trace-file",
        help="trace file to replay: text format (see "
        "repro.workloads.trace_io; gzip OK) or a compiled .rtc file, "
        "replayed memory-mapped",
    )
    p_sim.add_argument(
        "--densify",
        action="store_true",
        help="rename sparse trace-file addresses onto a dense universe",
    )
    p_sim.add_argument("--capacity", type=int, required=True)
    p_sim.add_argument("--block-size", type=int, default=8)
    p_sim.add_argument("--length", type=int, default=50_000)
    p_sim.add_argument("--universe", type=int, default=4096)
    p_sim.add_argument("--alpha", type=float, default=1.0)
    p_sim.add_argument("--stay", type=float, default=0.8)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument(
        "--fast",
        action="store_true",
        help="replay through the conformance-proven fast kernels "
        "(repro.core.fast) when the policy supports it; automatically "
        "falls back to the referee otherwise (and always with "
        "--telemetry, which needs the referee's observation hooks)",
    )
    p_sim.add_argument(
        "--telemetry",
        metavar="OUT",
        help="write windowed telemetry to this file "
        "(JSONL; a .csv suffix selects CSV)",
    )
    p_sim.add_argument(
        "--window",
        type=int,
        default=1000,
        help="accesses per telemetry window (with --telemetry)",
    )
    p_sim.add_argument(
        "--sample-rate",
        type=float,
        default=0.0,
        help="per-access event sampling probability in [0, 1] "
        "(with --telemetry; 1.0 = full trace)",
    )

    p_srv = sub.add_parser(
        "serve",
        help="request-level serving simulation: latency, not just misses",
    )
    p_srv.add_argument("--policy", choices=sorted(policy_names()), required=True)
    p_srv.add_argument("--workload", choices=sorted(_WORKLOADS), required=True)
    p_srv.add_argument("--capacity", type=int, required=True)
    p_srv.add_argument("--block-size", type=int, default=8)
    p_srv.add_argument("--length", type=int, default=50_000)
    p_srv.add_argument("--universe", type=int, default=4096)
    p_srv.add_argument("--alpha", type=float, default=1.0)
    p_srv.add_argument("--stay", type=float, default=0.8)
    p_srv.add_argument("--seed", type=int, default=0)
    p_srv.add_argument(
        "--process",
        choices=("poisson", "mmpp", "constant", "closed"),
        default="poisson",
        help="arrival process (closed = fixed client population)",
    )
    p_srv.add_argument(
        "--rate",
        type=float,
        default=0.01,
        help="open-loop arrival rate (requests per simulated time unit)",
    )
    p_srv.add_argument("--clients", type=int, default=1, help="closed-loop clients")
    p_srv.add_argument(
        "--think", type=float, default=0.0, help="closed-loop mean think time"
    )
    p_srv.add_argument("--arrival-seed", type=int, default=0)
    p_srv.add_argument("--t-hit", type=float, default=1.0)
    p_srv.add_argument("--t-miss", type=float, default=100.0)
    p_srv.add_argument(
        "--t-item",
        type=float,
        default=0.0,
        help="transfer cost per extra item in a spatial load",
    )
    p_srv.add_argument(
        "--dist", choices=("deterministic", "exponential"), default="deterministic"
    )
    p_srv.add_argument("--concurrency", type=int, default=1)
    p_srv.add_argument("--queue", choices=("fifo", "sjf"), default="fifo")
    p_srv.add_argument(
        "--queue-limit",
        type=int,
        default=None,
        help="admission bound on waiting requests (default unbounded)",
    )
    p_srv.add_argument(
        "--queue-timeout",
        type=float,
        default=None,
        help="drop requests whose queue wait exceeds this",
    )

    p_lvl = sub.add_parser(
        "latency-vs-load",
        help="IBLP vs item-LRU tail latency across offered loads",
    )
    p_lvl.add_argument("--capacity", type=int, default=256)
    p_lvl.add_argument(
        "--loads",
        type=float_list,
        default=None,
        help="comma-separated loads as fractions of all-miss capacity",
    )
    p_lvl.add_argument(
        "--policies",
        type=csv_list,
        default=None,
        help="comma-separated registry policy names",
    )
    p_lvl.add_argument(
        "--campaign-dir",
        default=None,
        help="memoize serving cells in this campaign directory "
        "(content-addressed incl. the serving config; resumable)",
    )
    p_lvl.add_argument(
        "--shards",
        type=int_list,
        default=None,
        help="comma-separated shard counts: dispatch requests across an "
        "N-shard cluster at every load point (with --schemes)",
    )
    p_lvl.add_argument(
        "--schemes",
        type=csv_list,
        default=None,
        help="comma-separated hash schemes for --shards "
        "(default block,item)",
    )

    p_rep = sub.add_parser(
        "report", help="render a telemetry file written by simulate --telemetry"
    )
    p_rep.add_argument("telemetry_file", help="JSONL file from simulate --telemetry")
    p_rep.add_argument(
        "--metric",
        default="miss_ratio",
        choices=("miss_ratio", "spatial_fraction", "mean_load_set_size", "occupancy"),
        help="window metric to plot over time",
    )
    p_rep.add_argument(
        "--no-plot",
        action="store_true",
        help="table and summary only, skip the ASCII time series",
    )

    p_adv = sub.add_parser(
        "adversarial", help="empirical competitive-ratio experiment"
    )
    p_adv.add_argument("--k", type=int, default=256)
    p_adv.add_argument("--h", type=int, default=48)
    p_adv.add_argument("--B", type=int, default=8)
    p_adv.add_argument("--cycles", type=int, default=4)

    p_abl = sub.add_parser("ablation", help="design-choice ablations")
    p_abl.add_argument("--k", type=int, default=256)
    p_abl.add_argument("--B", type=int, default=8)
    p_abl.add_argument(
        "--campaign-dir",
        default=None,
        help="memoize trace-driven simulations in this campaign "
        "directory (rerun after a crash recomputes only missing cells)",
    )
    p_abl.add_argument(
        "--serve-rate",
        type=float,
        default=None,
        help="attach p50/p99 sojourn columns from request-level serving "
        "runs at this Poisson arrival rate (requests per simulated "
        "time unit)",
    )
    p_abl.add_argument(
        "--serve-concurrency",
        type=int,
        default=1,
        help="server concurrency for --serve-rate runs",
    )

    p_prof = sub.add_parser("profile", help="empirical f(n)/g(n) profile")
    p_prof.add_argument("--workload", choices=sorted(_WORKLOADS), required=True)
    p_prof.add_argument("--length", type=int, default=50_000)
    p_prof.add_argument("--universe", type=int, default=4096)
    p_prof.add_argument("--block-size", type=int, default=8)
    p_prof.add_argument("--alpha", type=float, default=1.0)
    p_prof.add_argument("--stay", type=float, default=0.8)
    p_prof.add_argument("--seed", type=int, default=0)

    p_mrc = sub.add_parser(
        "mrc", help="Mattson miss-ratio curve (item and block LRU)"
    )
    p_mrc.add_argument("--workload", choices=sorted(_WORKLOADS), required=True)
    p_mrc.add_argument(
        "--capacities",
        type=int_list,
        default=[16, 64, 256, 1024],
        help="comma-separated capacities",
    )
    p_mrc.add_argument("--length", type=int, default=50_000)
    p_mrc.add_argument("--universe", type=int, default=4096)
    p_mrc.add_argument("--block-size", type=int, default=8)
    p_mrc.add_argument("--alpha", type=float, default=1.0)
    p_mrc.add_argument("--stay", type=float, default=0.8)
    p_mrc.add_argument("--seed", type=int, default=0)

    p_trc = sub.add_parser(
        "trace",
        help="compiled-trace toolbox: convert, inspect, SHARDS-sample",
    )
    trc_action = p_trc.add_subparsers(dest="trace_action", required=True)
    t_conv = trc_action.add_parser(
        "convert",
        help="stream a trace file into the mmap-able .rtc format "
        "(bounded memory; gzip input OK)",
    )
    t_conv.add_argument("source", help="input trace file")
    t_conv.add_argument("out", help="output .rtc path")
    t_conv.add_argument(
        "--format",
        choices=("text", "msr", "kv"),
        default="text",
        help="input format: repo text traces, MSR-Cambridge block CSV, "
        "or memcached-style key-value CSV",
    )
    t_conv.add_argument(
        "--block-size",
        type=int,
        default=None,
        help="items per block (default: the file's directive, else 1)",
    )
    t_conv.add_argument(
        "--page-bytes",
        type=int,
        default=4096,
        help="bytes per cache item for --format msr offset/size expansion",
    )
    t_conv.add_argument(
        "--densify",
        action="store_true",
        default=None,
        help="rename sparse addresses onto a dense universe, preserving "
        "blocks (default on for msr/kv, off for text)",
    )
    t_conv.add_argument("--limit", type=int, default=None, help="access window size")
    t_conv.add_argument(
        "--offset", type=int, default=0, help="accesses to skip before the window"
    )
    t_conv.add_argument(
        "--sample-rate",
        type=float,
        default=None,
        help="SHARDS-sample blocks at this rate in (0, 1] during conversion",
    )
    t_conv.add_argument("--sample-seed", type=int, default=0)
    t_info = trc_action.add_parser(
        "info", help="print an .rtc header (reads no column data)"
    )
    t_info.add_argument("path", help=".rtc file")
    t_samp = trc_action.add_parser(
        "sample",
        help="SHARDS-sample an .rtc into a smaller .rtc (streaming)",
    )
    t_samp.add_argument("source", help="input .rtc file")
    t_samp.add_argument("out", help="output .rtc path")
    t_samp.add_argument(
        "--rate", type=float, required=True, help="block keep rate in (0, 1]"
    )
    t_samp.add_argument("--seed", type=int, default=0)

    add_campaign_parser(sub)
    add_cluster_parser(sub)
    add_obs_parser(sub)

    sub.add_parser("schematics", help="executable Figures 1 & 4 demo")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    ns = build_parser().parse_args(argv)
    if getattr(ns, "jobs", None) is not None:
        if ns.jobs < 1:
            raise ConfigurationError(f"--jobs must be >= 1, got {ns.jobs}")
        # The env var is the single source of truth every parallel
        # entry point (sweep, campaign runner) already reads.
        os.environ["REPRO_JOBS"] = str(ns.jobs)
    # Handlers return either printable text (exit 0) or a
    # (text, exit_code) tuple — how `campaign status` and
    # `obs bench-compare` signal failure to CI without exceptions.
    out = _dispatch(ns)
    code = 0
    if isinstance(out, tuple):
        out, code = out
    if out:
        print(out)
    return code


def _make_recorder(ns: argparse.Namespace):
    """Build the simulate subcommand's Recorder (None without --telemetry)."""
    if not getattr(ns, "telemetry", None):
        return None
    from repro.telemetry import CSVSink, JSONLSink, Recorder

    sink_cls = CSVSink if ns.telemetry.endswith(".csv") else JSONLSink
    return Recorder(
        window=ns.window,
        sinks=[sink_cls(ns.telemetry)],
        sample_rate=ns.sample_rate,
        sample_seed=ns.seed,
    )


def _render_rtc_info(path: str) -> str:
    from repro.core.rtc import rtc_info

    info = rtc_info(path)
    lines = [f"{info['path']} ({info['file_bytes']:,} bytes)"]
    for key in ("n", "universe", "block_size", "n_distinct", "n_blocks",
                "write_count"):
        lines.append(f"  {key}: {info[key]:,}")
    lines.append(f"  fingerprint: {info['fingerprint']}")
    for section in ("metadata", "conversion"):
        entries = info.get(section) or {}
        if entries:
            lines.append(f"  {section}:")
            for k in sorted(entries):
                lines.append(f"    {k}: {entries[k]}")
    return "\n".join(lines)


def _run_trace_command(ns: argparse.Namespace):
    if ns.trace_action == "convert":
        from repro.workloads.stream import convert_to_rtc

        out = convert_to_rtc(
            ns.source,
            ns.out,
            fmt=ns.format,
            block_size=ns.block_size,
            page_bytes=ns.page_bytes,
            densify=ns.densify,
            limit=ns.limit,
            offset=ns.offset,
            sample_rate=ns.sample_rate,
            sample_seed=ns.sample_seed,
        )
        return _render_rtc_info(str(out))
    if ns.trace_action == "info":
        return _render_rtc_info(ns.path)
    if ns.trace_action == "sample":
        from repro.workloads.stream import sample_rtc

        out = sample_rtc(ns.source, ns.out, rate=ns.rate, seed=ns.seed)
        return _render_rtc_info(str(out))
    raise ConfigurationError(  # pragma: no cover
        f"unknown trace action {ns.trace_action!r}"
    )


def _dispatch(ns: argparse.Namespace):
    # Imports are local so `--help` stays fast.
    from repro.experiments import (
        ablation,
        adversarial,
        figure2,
        figure3,
        figure5,
        figure6,
        schematics,
        table1,
        table2,
    )

    if ns.command == "table":
        if ns.number == 1:
            return table1.render(h=ns.h, B=ns.B)
        return table2.render(p=ns.p, B=ns.B, i=ns.i)
    if ns.command == "figure":
        if ns.number == 2:
            return figure2.render(trials=ns.trials)
        if ns.number == 3:
            return figure3.render(k=ns.k, B=ns.B, points=ns.points)
        if ns.number == 5:
            return figure5.render(B=min(ns.B, 32))
        return figure6.render(k=ns.k, B=ns.B, points=ns.points)
    if ns.command == "simulate":
        recorder = _make_recorder(ns)
        workload_phase = (
            recorder.phase("workload") if recorder is not None else nullcontext()
        )
        with workload_phase:
            if ns.trace_file and ns.trace_file.endswith(".rtc"):
                from repro.core.rtc import open_rtc

                trace = open_rtc(ns.trace_file)
            elif ns.trace_file:
                from repro.workloads.trace_io import read_text_trace

                trace = read_text_trace(
                    ns.trace_file,
                    block_size=ns.block_size,
                    densify=ns.densify,
                ).trace
            else:
                trace = _WORKLOADS[ns.workload](ns)
        policy = make_policy(ns.policy, ns.capacity, trace.mapping)
        result = run_simulation(policy, trace, recorder=recorder, fast=ns.fast)
        out = format_table([result.as_row()], title="simulation result")
        if recorder is not None:
            # `report` reads the JSONL interchange format only, so don't
            # suggest it for CSV telemetry files.
            hint = (
                ""
                if ns.telemetry.endswith(".csv")
                else f"; run `gc-caching report {ns.telemetry}`"
            )
            out += (
                f"\ntelemetry: {ns.telemetry} "
                f"({len(recorder.window_rows)} windows of {ns.window}{hint})"
            )
        return out
    if ns.command == "serve":
        from repro.serving import (
            ArrivalSpec,
            ServiceModel,
            ServingConfig,
            serve_policy,
        )

        trace = _WORKLOADS[ns.workload](ns)
        config = ServingConfig(
            arrival=ArrivalSpec(
                process=ns.process,
                rate=ns.rate,
                seed=ns.arrival_seed,
                clients=ns.clients,
                think=ns.think,
            ),
            service=ServiceModel(
                t_hit=ns.t_hit,
                t_miss=ns.t_miss,
                t_item=ns.t_item,
                dist=ns.dist,
                seed=ns.seed,
            ),
            concurrency=ns.concurrency,
            queue=ns.queue,
            queue_limit=ns.queue_limit,
            timeout=ns.queue_timeout,
        )
        result = serve_policy(ns.policy, ns.capacity, trace, config)
        row = result.as_row()
        cache_cols = {
            k: row[k]
            for k in ("policy", "capacity", "miss_ratio", "spatial_fraction")
        }
        serve_cols = {
            k: row[k]
            for k in (
                "arrivals",
                "completions",
                "dropped_admission",
                "dropped_timeout",
                "throughput",
                "utilization",
                "mean_latency",
                "p50",
                "p99",
                "p999",
            )
        }
        return (
            format_table([cache_cols], title="cache behaviour")
            + "\n"
            + format_table([serve_cols], title="serving behaviour")
        )
    if ns.command == "latency-vs-load":
        from repro.campaign import open_cache
        from repro.experiments import latency_vs_load

        kwargs = {"capacity": ns.capacity}
        if ns.loads:
            kwargs["loads"] = ns.loads
        if ns.policies:
            kwargs["policies"] = ns.policies
        if ns.shards:
            from repro.cluster import ClusterSpec

            schemes = ns.schemes or ["block", "item"]
            kwargs["clusters"] = [
                ClusterSpec(n_shards=n, scheme=scheme)
                for scheme in schemes
                for n in ns.shards
            ]
        with open_cache(ns.campaign_dir) as cache:
            return latency_vs_load.render(cache=cache, **kwargs)
    if ns.command == "report":
        from repro.telemetry.report import load_telemetry, render_report

        log = load_telemetry(ns.telemetry_file)
        return render_report(log, metric=ns.metric, plot=not ns.no_plot)
    if ns.command == "adversarial":
        return adversarial.render(k=ns.k, h=ns.h, B=ns.B, cycles=ns.cycles)
    if ns.command == "ablation":
        from repro.campaign import open_cache

        serving = None
        if ns.serve_rate is not None:
            from repro.serving import ArrivalSpec, ServingConfig

            serving = ServingConfig(
                arrival=ArrivalSpec(rate=ns.serve_rate),
                concurrency=ns.serve_concurrency,
            )
        with open_cache(ns.campaign_dir) as cache:
            return ablation.render(k=ns.k, B=ns.B, cache=cache, serving=serving)
    if ns.command == "profile":
        trace = _WORKLOADS[ns.workload](ns)
        profile = profile_trace(trace)
        c, p, gamma = profile.fit_polynomial()
        rows = [
            {
                "n": int(n),
                "f(n)": int(f),
                "g(n)": int(g),
                "f/g": float(f) / max(int(g), 1),
            }
            for n, f, g in zip(
                profile.windows, profile.f_values, profile.g_values
            )
        ]
        fit = f"\npolynomial fit: f(n) ~= {c:.3g} * n^(1/{p:.3g}), gamma ~= {gamma:.3g}"
        return format_table(rows, title="locality profile") + fit
    if ns.command == "mrc":
        from repro.analysis.mrc import miss_ratio_curve
        from repro.core.reuse import stack_distances

        trace = _WORKLOADS[ns.workload](ns)
        caps = sorted(set(ns.capacities))
        item_curve = dict(miss_ratio_curve(stack_distances(trace.items), caps))
        block_slots = sorted(
            {max(1, c // trace.block_size) for c in caps}
        )
        block_curve = dict(
            miss_ratio_curve(stack_distances(trace.block_trace()), block_slots)
        )
        rows = [
            {
                "capacity": c,
                "item_lru_miss_ratio": item_curve[c],
                "block_lru_miss_ratio": block_curve[
                    max(1, c // trace.block_size)
                ],
            }
            for c in caps
        ]
        return format_table(
            rows, title=f"Mattson MRC ({ns.workload}, B={trace.block_size})"
        )
    if ns.command == "trace":
        return _run_trace_command(ns)
    if ns.command == "campaign":
        return run_campaign_command(ns)
    if ns.command == "cluster":
        return run_cluster_command(ns)
    if ns.command == "obs":
        return run_obs_command(ns)
    if ns.command == "schematics":
        return schematics.render()
    raise ConfigurationError(f"unknown command {ns.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
