"""``gc-caching cluster`` — sharded-cluster replay and experiments.

Three verbs, mirroring the campaign CLI's structure:

``cluster run``
    One cluster replay: a policy, a workload, a shard count, a hash
    scheme.  Prints the merged taxonomy plus routing stats, and with
    ``--per-shard`` the per-shard breakdown.
``cluster spatial``
    The spatial-degradation headline experiment
    (:mod:`repro.experiments.spatial_degradation`): spatial fraction
    and the IBLP-vs-item-LRU miss gap across shard counts under both
    hash schemes.
``cluster isolation``
    The four-configuration multi-tenant comparison
    (:mod:`repro.experiments.isolation`).

Every verb takes ``--campaign-dir`` to memoize its cells through the
campaign store — rerunning a finished sweep recomputes nothing, and an
interrupted one resumes where it died.
"""

from __future__ import annotations

import argparse
from typing import Callable, Dict

from repro.analysis.tables import format_table
from repro.core.trace import Trace
from repro.obs.cli import csv_list, int_list
from repro.workloads import (
    block_runs,
    etc_kv_workload,
    hot_and_stream,
    markov_spatial,
    uniform_random,
    zipf_items,
)

__all__ = ["add_cluster_parser", "run_cluster_command"]

_WORKLOADS: Dict[str, Callable[[argparse.Namespace], Trace]] = {
    "uniform": lambda ns: uniform_random(
        ns.length, ns.universe, ns.block_size, ns.seed
    ),
    "zipf": lambda ns: zipf_items(
        ns.length, ns.universe, ns.alpha, ns.block_size, ns.seed
    ),
    "markov": lambda ns: markov_spatial(
        ns.length, ns.universe, ns.block_size, stay=ns.stay, seed=ns.seed
    ),
    "block_runs": lambda ns: block_runs(
        ns.length, ns.universe, ns.block_size, seed=ns.seed
    ),
    "hot_and_stream": lambda ns: hot_and_stream(
        ns.length,
        hot_items=max(1, ns.universe // 8),
        stream_blocks=max(1, ns.universe // ns.block_size),
        block_size=ns.block_size,
        seed=ns.seed,
    ),
    "etc": lambda ns: etc_kv_workload(
        ns.length, ns.universe, ns.block_size, alpha=ns.alpha, seed=ns.seed
    ),
}


def _add_workload_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--length", type=int, default=50_000)
    p.add_argument("--universe", type=int, default=4096)
    p.add_argument("--block-size", type=int, default=8)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--stay", type=float, default=0.85)
    p.add_argument("--seed", type=int, default=0)


def add_cluster_parser(sub) -> None:
    """Attach the ``cluster`` subcommand tree to ``sub``."""
    from repro.cluster.router import SCHEMES
    from repro.policies import policy_names

    p = sub.add_parser(
        "cluster",
        help="sharded multi-tenant cluster replay and experiments",
    )
    verbs = p.add_subparsers(dest="cluster_command", required=True)

    p_run = verbs.add_parser(
        "run", help="replay one workload through an N-shard cluster"
    )
    p_run.add_argument(
        "--policy", choices=sorted(policy_names()), required=True
    )
    p_run.add_argument("--workload", choices=sorted(_WORKLOADS), required=True)
    p_run.add_argument("--capacity", type=int, required=True)
    p_run.add_argument("--shards", type=int, default=4)
    p_run.add_argument("--scheme", choices=SCHEMES, default="block")
    p_run.add_argument("--vnodes", type=int, default=64)
    p_run.add_argument("--hash-seed", type=int, default=0)
    p_run.add_argument(
        "--capacity-mode",
        choices=("split", "per-shard"),
        default="split",
        help="split the total capacity across shards, or give every "
        "shard the full capacity (scale-out at constant per-node memory)",
    )
    _add_workload_args(p_run)
    p_run.add_argument(
        "--fast",
        action="store_true",
        help="per-shard replay through the conformance-proven fast kernels",
    )
    p_run.add_argument(
        "--per-shard",
        action="store_true",
        help="also print the per-shard taxonomy breakdown",
    )
    p_run.add_argument(
        "--campaign-dir",
        default=None,
        help="memoize this cell in a campaign directory",
    )

    p_sp = verbs.add_parser(
        "spatial",
        help="spatial-degradation experiment: locality vs shard count",
    )
    p_sp.add_argument("--capacity", type=int, default=256)
    p_sp.add_argument(
        "--shards",
        type=int_list,
        default=None,
        help="comma-separated shard counts (default 1,2,4,8,16)",
    )
    p_sp.add_argument(
        "--schemes",
        type=csv_list,
        default=None,
        help="comma-separated hash schemes (default block,item)",
    )
    p_sp.add_argument(
        "--policies",
        type=csv_list,
        default=None,
        help="comma-separated policies; the first is granularity-aware, "
        "the second the baseline for the gap column (default iblp,item-lru)",
    )
    _add_workload_args(p_sp)
    p_sp.add_argument("--campaign-dir", default=None)

    p_iso = verbs.add_parser(
        "isolation",
        help="four-configuration multi-tenant partitioning comparison",
    )
    p_iso.add_argument("--capacity", type=int, default=256)
    p_iso.add_argument("--shards", type=int, default=4)
    p_iso.add_argument("--scheme", choices=SCHEMES, default="block")
    p_iso.add_argument("--length", type=int, default=40_000)
    p_iso.add_argument("--universe", type=int, default=2048)
    p_iso.add_argument("--block-size", type=int, default=8)
    p_iso.add_argument("--seed", type=int, default=7)
    p_iso.add_argument("--campaign-dir", default=None)


def run_cluster_command(ns: argparse.Namespace):
    """Dispatch a parsed ``cluster`` invocation; returns printable text."""
    from repro.campaign import open_cache

    with open_cache(ns.campaign_dir) as cache:
        if ns.cluster_command == "run":
            return _run(ns, cache)
        if ns.cluster_command == "spatial":
            return _spatial(ns, cache)
        return _isolation(ns, cache)


def _run(ns: argparse.Namespace, cache):
    from repro.cluster import ClusterSpec

    trace = _WORKLOADS[ns.workload](ns)
    spec = ClusterSpec(
        n_shards=ns.shards,
        scheme=ns.scheme,
        vnodes=ns.vnodes,
        hash_seed=ns.hash_seed,
        capacity_mode=ns.capacity_mode,
    )
    result = cache.cluster(ns.policy, ns.capacity, trace, spec, fast=ns.fast)
    out = format_table([result.as_row()], title="cluster result")
    if ns.per_shard:
        out += "\n" + format_table(
            result.per_shard_rows(), title="per-shard breakdown"
        )
    return out


def _spatial(ns: argparse.Namespace, cache):
    from repro.experiments import spatial_degradation

    kwargs = {"capacity": ns.capacity}
    if ns.shards:
        kwargs["shards"] = ns.shards
    if ns.schemes:
        kwargs["schemes"] = ns.schemes
    if ns.policies:
        kwargs["policies"] = ns.policies
    trace = spatial_degradation.default_trace(
        length=ns.length,
        universe=ns.universe,
        block_size=ns.block_size,
        stay=ns.stay,
        seed=ns.seed,
    )
    return spatial_degradation.render(trace=trace, cache=cache, **kwargs)


def _isolation(ns: argparse.Namespace, cache):
    from repro.experiments import isolation

    tenants = isolation.default_tenants(
        length=ns.length,
        universe=ns.universe,
        block_size=ns.block_size,
        seed=ns.seed,
    )
    return isolation.render(
        capacity=ns.capacity,
        n_shards=ns.shards,
        scheme=ns.scheme,
        tenants=tenants,
        cache=cache,
    )
