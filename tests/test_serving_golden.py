"""Pinned serving payloads: every serving path reproduces stored digests.

``tests/golden/serving.json`` holds the SHA-256 of
:meth:`ServingResult.fields` for a grid of :func:`repro.serving.serve`
and :func:`repro.cluster.serving_bridge.serve_cluster` runs: both queue
disciplines, admission bounds and timeouts on and off, all four arrival
processes, deterministic / exponential / ETC-sized service, and four
policies (``serve_cluster`` also at 1 and 4 shards under both hash
schemes).  The digests were recorded when SJF, drops and every cluster
run still stepped the referee engine, so any later serving path — the
stepped kernels included — must reproduce the referee's payloads
exactly, histograms and float sums included.

Regenerate (only after an intentional behaviour change) with::

    PYTHONPATH=src python tests/test_serving_golden.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro.cluster import ClusterSpec
from repro.cluster.serving_bridge import serve_cluster
from repro.serving import ArrivalSpec, ServiceModel, ServingConfig, serve_policy
from repro.workloads import markov_spatial

GOLDEN = Path(__file__).parent / "golden" / "serving.json"

POLICIES = ("iblp", "item-lru", "gcm", "iblp-adaptive")
QUEUES = ("fifo", "sjf")
QUEUE_LIMITS = (None, 4)
TIMEOUTS = (None, 25.0)
CAPACITY = 32
#: ~1.1 offered load on two servers for a ~14-unit mean service: queues
#: form, so SJF reorders, admission bounds drop and timeouts fire.
RATE = 0.15
ARRIVALS = {
    "poisson": ArrivalSpec(process="poisson", rate=RATE, seed=5),
    "mmpp": ArrivalSpec(
        process="mmpp", rate=RATE, seed=6, mean_on=80.0, mean_off=60.0
    ),
    "constant": ArrivalSpec(process="constant", rate=RATE),
    "closed": ArrivalSpec(process="closed", clients=6, think=20.0, seed=7),
}
SERVICES = {
    "deterministic": ServiceModel(t_hit=1.0, t_miss=40.0, t_item=1.0),
    "exponential": ServiceModel(
        t_hit=1.0, t_miss=40.0, t_item=1.0, dist="exponential", seed=8
    ),
    "etc": ServiceModel(
        t_hit=1.0, t_miss=40.0, t_item=1.0, size_dist="etc", size_seed=9
    ),
}
SHARDINGS = ((1, "block"), (1, "item"), (4, "block"), (4, "item"))


def golden_trace():
    return markov_spatial(length=400, universe=256, block_size=8, stay=0.85, seed=4)


def config(queue, queue_limit, timeout, arrival, service) -> ServingConfig:
    return ServingConfig(
        arrival=ARRIVALS[arrival],
        service=SERVICES[service],
        concurrency=2,
        queue=queue,
        queue_limit=queue_limit,
        timeout=timeout,
    )


def serve_cases() -> List[Tuple[str, str, tuple]]:
    """Every (policy, queue, limit, timeout, arrival, service) run."""
    return [
        (f"{p}/{q}/limit={ql}/timeout={to}/{a}/{s}", p, (q, ql, to, a, s))
        for p, q, ql, to, a, s in itertools.product(
            POLICIES, QUEUES, QUEUE_LIMITS, TIMEOUTS, ARRIVALS, SERVICES
        )
    ]


def cluster_cases() -> List[Tuple[str, str, tuple, int, str]]:
    """Every (policy, sharding, queue, limit, timeout) run; arrivals and
    service models rotate so each meets every policy and sharding."""
    cases = []
    grid = itertools.product(POLICIES, SHARDINGS, QUEUES, QUEUE_LIMITS, TIMEOUTS)
    for i, (p, (shards, scheme), q, ql, to) in enumerate(grid):
        a = list(ARRIVALS)[(i + i // 8) % len(ARRIVALS)]
        s = list(SERVICES)[i % len(SERVICES)]
        cases.append(
            (
                f"{p}/{shards}x{scheme}/{q}/limit={ql}/timeout={to}/{a}/{s}",
                p,
                (q, ql, to, a, s),
                shards,
                scheme,
            )
        )
    return cases


def digest(result) -> str:
    payload = json.dumps(result.fields(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def serve_digests(policy: str) -> Dict[str, str]:
    trace = golden_trace()
    return {
        case: digest(serve_policy(p, CAPACITY, trace, config(*args)))
        for case, p, args in serve_cases()
        if p == policy
    }


def cluster_digests(policy: str) -> Dict[str, str]:
    trace = golden_trace()
    return {
        case: digest(
            serve_cluster(
                p,
                CAPACITY,
                trace,
                ClusterSpec(n_shards=shards, scheme=scheme),
                config(*args),
            )
        )
        for case, p, args, shards, scheme in cluster_cases()
        if p == policy
    }


def _stored() -> Dict[str, Dict[str, str]]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("policy", POLICIES)
def test_serve_payloads_match_golden(policy):
    stored = _stored()["serve"]
    got = serve_digests(policy)
    assert got, policy
    wrong = sorted(case for case, value in got.items() if stored.get(case) != value)
    assert not wrong, f"{len(wrong)} serve payloads drifted, e.g. {wrong[:5]}"


@pytest.mark.parametrize("policy", POLICIES)
def test_serve_cluster_payloads_match_golden(policy):
    stored = _stored()["serve_cluster"]
    got = cluster_digests(policy)
    assert got, policy
    wrong = sorted(case for case, value in got.items() if stored.get(case) != value)
    assert not wrong, f"{len(wrong)} serve_cluster payloads drifted, e.g. {wrong[:5]}"


def test_golden_grid_covers_every_case():
    stored = _stored()
    assert sorted(stored["serve"]) == sorted(case for case, *_ in serve_cases())
    assert sorted(stored["serve_cluster"]) == sorted(
        case for case, *_ in cluster_cases()
    )


if __name__ == "__main__":
    payload = {
        "serve": {k: v for p in POLICIES for k, v in serve_digests(p).items()},
        "serve_cluster": {
            k: v for p in POLICIES for k, v in cluster_digests(p).items()
        },
    }
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(payload['serve'])} serve and "
          f"{len(payload['serve_cluster'])} serve_cluster digests to {GOLDEN}")
