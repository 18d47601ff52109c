"""The experiment cache is a memo layer over the runner's cells.

Drivers call one :class:`~repro.campaign.CampaignCache` method whether
or not a campaign directory backs it, so these tests pin that the
store-less default, a cold store and a warm store all produce the same
rows; that a warm store recomputes nothing; that the store-less cache
touches no file; and that a mixed batch still sends its kernel cells
through one shared traversal.
"""

import pytest

from repro.campaign import UNCACHED, CampaignCache, open_cache
from repro.cluster import ClusterSpec
from repro.core.engine import simulate
from repro.policies import make_policy
from repro.serving import ArrivalSpec, ServingConfig
from repro.workloads import markov_spatial

SERVING = ServingConfig(arrival=ArrivalSpec(rate=0.02), concurrency=2)


def _trace(length=3000, seed=2):
    return markov_spatial(
        length=length, universe=512, block_size=4, stay=0.8, seed=seed
    )


def _latency_vs_load(cache):
    from repro.experiments import latency_vs_load

    return latency_vs_load.run(
        capacity=32,
        loads=(0.5,),
        trace=_trace(),
        clusters=[ClusterSpec(n_shards=2, scheme="item")],
        cache=cache,
    )


def _spatial_degradation(cache):
    from repro.experiments import spatial_degradation

    return spatial_degradation.run(
        capacity=32, shards=(1, 2), trace=_trace(), cache=cache
    )


def _isolation(cache):
    from repro.experiments import isolation

    tenants = isolation.default_tenants(length=1500, universe=256, block_size=4)
    return isolation.run(capacity=32, n_shards=2, tenants=tenants, cache=cache)


def _gcm_variants(cache):
    from repro.experiments import ablation

    return ablation.gcm_variants(k=32, B=4, length=2000, serving=SERVING, cache=cache)


def _locality_exp(cache):
    from repro.experiments import locality_exp

    return locality_exp.run(k=16, B=4, phases=2, serving=SERVING, cache=cache)


def _size_dependence(cache):
    from repro.experiments import size_dependence

    return size_dependence.empirical_flip(k=32, B=4, length=2000, cache=cache)


@pytest.mark.parametrize(
    "driver",
    [
        _latency_vs_load,
        _spatial_degradation,
        _isolation,
        _gcm_variants,
        _locality_exp,
        _size_dependence,
    ],
    ids=lambda fn: fn.__name__.lstrip("_"),
)
def test_driver_rows_equal_uncached_cold_and_warm(driver, tmp_path):
    uncached = driver(UNCACHED)
    with CampaignCache(tmp_path) as cold_cache:
        cold = driver(cold_cache)
    assert cold_cache.computed > 0
    with CampaignCache(tmp_path) as warm_cache:
        warm = driver(warm_cache)
    assert warm_cache.computed == 0
    assert warm_cache.hits == cold_cache.computed + cold_cache.hits
    assert cold == uncached
    assert warm == cold


def test_store_less_cache_creates_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    trace = _trace(length=800)
    tenants = {"a": _trace(length=400, seed=3), "b": _trace(length=400, seed=4)}
    cluster = ClusterSpec(n_shards=2, scheme="block")
    cache = open_cache(None)
    assert cache is UNCACHED
    with cache:
        cache.simulate_many([("item-lru", 16), ("belady-item", 16)], trace)
        cache.serve("iblp", 16, trace, SERVING)
        cache.cluster("iblp", 16, trace, cluster)
        cache.cluster("iblp", 16, trace, cluster, serving=SERVING)
        cache.cluster_multitenant(tenants, "shared", "item-lru", 16, cluster)
    assert list(tmp_path.iterdir()) == []
    assert cache.store is None and cache.journal is None
    assert cache.hits == 0 and cache.computed == 0


@pytest.mark.parametrize("stored", [False, True], ids=["store-less", "stored"])
def test_mixed_batch_shares_one_kernel_traversal(stored, tmp_path, monkeypatch):
    from repro.core import fast

    calls = []
    real = fast.multi_policy_replay

    def spy(cells, trace, record=None, chunk=fast.MULTI_POLICY_CHUNK):
        calls.append([tuple(cell[:2]) for cell in cells])
        return real(cells, trace, record=record, chunk=chunk)

    monkeypatch.setattr(fast, "multi_policy_replay", spy)
    trace = _trace(length=1500)
    cells = [("item-lru", 16), ("belady-item", 16), ("gcm", 16), ("iblp", 16)]
    cache = CampaignCache(tmp_path) if stored else UNCACHED
    with cache:
        results = cache.simulate_many(cells, trace)
    assert calls == [[("item-lru", 16), ("gcm", 16), ("iblp", 16)]]
    for (name, capacity), got in zip(cells, results):
        want = simulate(make_policy(name, capacity, trace.mapping), trace)
        assert got == want, name
