"""Cluster cells through the campaign layer.

Pins four things:

* **Legacy hash stability** — adding the ``cluster`` key to
  :func:`cell_hash` must not move any existing content address (old
  stores stay valid), while any cluster dict change moves the hash.
* **Grid axis** — ``from_grid(clusters=...)`` sweeps shard count ×
  scheme like any other axis and round-trips through JSON.
* **Zero-recompute resume** — the satellite-2 regression: re-running a
  memoized cluster experiment against the same campaign directory
  recomputes nothing, because sub-trace fingerprints derive from the
  parent fingerprint (no payload rehash) and the cell addresses are
  deterministic.
* **Board labels** — cluster cells identify themselves on the
  status/watch boards via :meth:`CellSpec.mode_label`.
* **Cold == warm output** — ``cluster run --campaign-dir`` prints the
  same table, column order included, whether it computed the cell or
  read it back from the store.
"""

from repro.campaign import CampaignCache, CampaignSpec, TraceSpec
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CellSpec, cell_hash
from repro.cli.main import main
from repro.cluster import ClusterSpec
from repro.experiments import isolation, spatial_degradation

FP = "f" * 64


def test_cluster_key_does_not_move_legacy_hashes():
    legacy = cell_hash(policy="iblp", capacity=128, trace_fingerprint=FP)
    assert cell_hash(
        policy="iblp", capacity=128, trace_fingerprint=FP, cluster=None
    ) == legacy
    clustered = cell_hash(
        policy="iblp",
        capacity=128,
        trace_fingerprint=FP,
        cluster=ClusterSpec(n_shards=4).as_dict(),
    )
    assert clustered != legacy
    # Every cluster knob moves the address.
    seen = {clustered}
    for spec in (
        ClusterSpec(n_shards=8),
        ClusterSpec(n_shards=4, scheme="item"),
        ClusterSpec(n_shards=4, hash_seed=1),
        ClusterSpec(n_shards=4, vnodes=32),
        ClusterSpec(n_shards=4, capacity_mode="per-shard"),
    ):
        h = cell_hash(
            policy="iblp",
            capacity=128,
            trace_fingerprint=FP,
            cluster=spec.as_dict(),
        )
        assert h not in seen
        seen.add(h)


def test_from_grid_sweeps_cluster_axis_and_round_trips():
    traces = {
        "markov": TraceSpec(
            kind="workload",
            name="markov",
            params={
                "length": 2000,
                "universe": 256,
                "block_size": 8,
                "stay": 0.85,
                "seed": 1,
            },
        )
    }
    clusters = [
        ClusterSpec(n_shards=n, scheme=s).as_dict()
        for s in ("block", "item")
        for n in (2, 4)
    ]
    spec = CampaignSpec.from_grid(
        "cluster-grid",
        policies=["item-lru", "iblp"],
        capacities=[64],
        traces=traces,
        clusters=clusters,
    )
    assert len(spec.cells) == 2 * 1 * 1 * 4
    assert all(cell.cluster is not None for cell in spec.cells)
    back = CampaignSpec.from_dict(spec.as_dict())
    assert [c.as_dict() for c in back.cells] == [
        c.as_dict() for c in spec.cells
    ]
    labels = {cell.mode_label() for cell in spec.cells}
    assert labels == {
        "cluster[2×block]",
        "cluster[4×block]",
        "cluster[2×item]",
        "cluster[4×item]",
    }


def test_campaign_runner_executes_and_memoizes_cluster_cells(tmp_path):
    traces = {
        "markov": TraceSpec(
            kind="workload",
            name="markov",
            params={
                "length": 2000,
                "universe": 256,
                "block_size": 8,
                "stay": 0.85,
                "seed": 1,
            },
        )
    }
    spec = CampaignSpec.from_grid(
        "cluster-run",
        policies=["iblp"],
        capacities=[64],
        traces=traces,
        clusters=[ClusterSpec(n_shards=2).as_dict()],
    )
    with CampaignRunner(tmp_path, spec) as runner:
        first = runner.run()
    assert first.computed == 1 and first.failures == 0 and first.complete
    with CampaignRunner(tmp_path, spec) as runner:
        resumed = runner.run()
    assert resumed.memo_hits == 1 and resumed.computed == 0


def test_spatial_experiment_resumes_with_zero_recomputes(tmp_path):
    trace = spatial_degradation.default_trace(length=2000, universe=256)
    kwargs = dict(
        capacity=64, shards=(1, 2), schemes=("block", "item"), trace=trace
    )
    with CampaignCache(tmp_path) as cache:
        rows = spatial_degradation.run(cache=cache, **kwargs)
        assert cache.computed == len(rows) and cache.hits == 0
    with CampaignCache(tmp_path) as cache:
        again = spatial_degradation.run(cache=cache, **kwargs)
        assert cache.computed == 0, "resume recomputed a memoized cell"
        assert cache.hits == len(rows)
    assert again == rows


def test_isolation_experiment_resumes_with_zero_recomputes(tmp_path):
    tenants = isolation.default_tenants(length=1500, universe=256)
    kwargs = dict(capacity=64, n_shards=2, tenants=tenants)
    with CampaignCache(tmp_path) as cache:
        rows = isolation.run(cache=cache, **kwargs)
        assert cache.computed == len(rows) == 4
    with CampaignCache(tmp_path) as cache:
        again = isolation.run(cache=cache, **kwargs)
        assert cache.computed == 0 and cache.hits == 4
    assert again == rows


def test_mode_label_composition():
    base = dict(
        policy="iblp", capacity=64, trace="t", fast=True, policy_kwargs={}
    )
    assert CellSpec(**base).mode_label() == "offline"
    cl = ClusterSpec(n_shards=4, scheme="item").as_dict()
    assert CellSpec(**base, cluster=cl).mode_label() == "cluster[4×item]"
    serving = {"arrival": {"process": "poisson", "rate": 0.01}}
    assert (
        CellSpec(**base, cluster=cl, serving=serving).mode_label()
        == "cluster[4×item]+serving"
    )
    assert CellSpec(**base, serving=serving).mode_label() == "serving"


def test_cluster_run_prints_the_same_table_cold_and_warm(tmp_path, capsys):
    argv = [
        "cluster", "run", "--policy", "iblp", "--capacity", "64",
        "--workload", "markov", "--length", "2000",
        "--campaign-dir", str(tmp_path / "campaign"),
    ]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert "seed" in cold and "stay" in cold
    assert warm == cold
