"""``gc-caching obs`` subcommand: trace-export and bench-compare.

Observability post-processing lives here; the *live* side (``campaign
watch``) sits with the campaign CLI because it is addressed by
campaign directory.  Both handlers return ``(text, exit_code)`` so the
main dispatcher can propagate nonzero exits (the bench-compare CI gate
depends on it).
"""

from __future__ import annotations

import argparse
from typing import List, Tuple

from repro.obs.bench_compare import (
    compare_benchmarks,
    load_bench,
    render_compare,
)
from repro.obs.trace_export import export_chrome_trace
from repro.errors import ConfigurationError

__all__ = ["add_obs_parser", "run_obs_command"]


def csv_list(text: str) -> List[str]:
    """A comma-separated argument as its non-blank, stripped parts."""
    return [part.strip() for part in text.split(",") if part.strip()]


def int_list(text: str) -> List[int]:
    """A comma-separated argument as integers (blank parts skipped)."""
    return [int(part) for part in csv_list(text)]


def float_list(text: str) -> List[float]:
    """A comma-separated argument as floats (blank parts skipped)."""
    return [float(part) for part in csv_list(text)]


def add_obs_parser(sub: argparse._SubParsersAction) -> None:
    """Attach the ``obs`` subparser tree to the main CLI."""
    p = sub.add_parser(
        "obs",
        help="observability tools (span trace export, bench regression gate)",
    )
    action = p.add_subparsers(dest="obs_command", required=True)

    p_trace = action.add_parser(
        "trace-export",
        help="convert a span JSONL file to Chrome trace-event JSON "
        "(open in Perfetto or chrome://tracing)",
    )
    p_trace.add_argument("spans", help="span JSONL file (--trace-spans output)")
    p_trace.add_argument(
        "--out",
        default=None,
        help="write the trace here instead of stdout",
    )

    p_cmp = action.add_parser(
        "bench-compare",
        help="diff two BENCH_<name>.json files; exit nonzero on regression",
    )
    p_cmp.add_argument("baseline", help="baseline BENCH_*.json")
    p_cmp.add_argument("candidate", help="candidate BENCH_*.json")
    p_cmp.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        help="allowed fractional movement in the bad direction "
        "(default 0.15 = 15%%)",
    )
    p_cmp.add_argument(
        "--metrics",
        type=csv_list,
        default=None,
        metavar="M1,M2,...",
        help="gate only these metrics (default: every shared metric); "
        "use machine-independent ratios when baseline and candidate "
        "come from different machines",
    )


def run_obs_command(ns: argparse.Namespace) -> Tuple[str, int]:
    """Dispatch one ``obs`` subcommand; returns (output, exit code)."""
    if ns.obs_command == "trace-export":
        text = export_chrome_trace(ns.spans, out=ns.out)
        if ns.out:
            return f"wrote Chrome trace to {ns.out}", 0
        return text, 0
    if ns.obs_command == "bench-compare":
        report = compare_benchmarks(
            load_bench(ns.baseline),
            load_bench(ns.candidate),
            tolerance=ns.tolerance,
            metrics=ns.metrics,
        )
        return render_compare(report), 1 if report["regressions"] else 0
    raise ConfigurationError(
        f"unknown obs command {ns.obs_command!r}"
    )  # pragma: no cover
