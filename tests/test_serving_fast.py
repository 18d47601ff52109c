"""The kernel serving path is bit-identical to the referee serving path.

Under the FIFO queue with no drops, :func:`repro.serving.serve` runs one
fast-kernel pass up front and the event loop only adds time.  The
referee stays reachable through ``engine=Engine(policy, mapping)``,
which steps ``Engine.access`` once per started request.  These tests
pin that both paths produce the same :meth:`ServingResult.fields`
payload (histograms included) and that the default path really skips
the referee.
"""

import pytest

from repro.core.engine import Engine
from repro.policies import make_policy
from repro.serving import ArrivalSpec, ServiceModel, ServingConfig, serve
from repro.workloads import markov_spatial

POLICIES = ("gcm", "gcm-markall", "gcm-partial", "iblp", "item-lru")
CAPACITY = 48


@pytest.fixture(scope="module")
def trace():
    return markov_spatial(length=3000, universe=384, block_size=8, stay=0.85, seed=5)


def poisson_fifo(service_dist="deterministic"):
    return ServingConfig(
        arrival=ArrivalSpec(process="poisson", rate=0.02, seed=3),
        service=ServiceModel(t_hit=1.0, t_miss=40.0, t_item=1.0, dist=service_dist),
        concurrency=3,
    )


@pytest.fixture
def access_calls(monkeypatch):
    """Count every ``Engine.access`` call made while the test runs."""
    calls = [0]
    real = Engine.access

    def spy(self, item):
        calls[0] += 1
        return real(self, item)

    monkeypatch.setattr(Engine, "access", spy)
    return calls


@pytest.mark.parametrize("service_dist", ["deterministic", "exponential"])
@pytest.mark.parametrize("name", POLICIES)
def test_kernel_path_fields_match_referee(name, service_dist, trace, access_calls):
    config = poisson_fifo(service_dist)
    fast = serve(make_policy(name, CAPACITY, trace.mapping), trace, config)
    assert access_calls[0] == 0
    referee = serve(
        None,
        trace,
        config,
        engine=Engine(make_policy(name, CAPACITY, trace.mapping), trace.mapping),
    )
    assert access_calls[0] == len(trace)
    assert fast.fields() == referee.fields()
