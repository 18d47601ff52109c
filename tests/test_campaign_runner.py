"""Campaign executor tests: memoization, retry/backoff/quarantine,
worker-death fault injection, and bit-identity with plain ``sweep``."""

import multiprocessing
import os
import signal
import time

import pytest

import repro.campaign.runner as runner_mod
from repro.analysis.sweep import simulate_cell, sweep
from repro.campaign import (
    CampaignCache,
    CampaignRunner,
    CampaignSpec,
    RetryPolicy,
    TraceSpec,
)
from repro.errors import ConfigurationError

_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
fork_only = pytest.mark.skipif(
    not _HAS_FORK, reason="fault injection monkeypatches across fork"
)

TRACE = TraceSpec(
    kind="workload",
    name="uniform",
    params={"length": 1200, "universe": 128, "block_size": 4, "seed": 3},
)


def make_spec(policies=("item-lru", "iblp"), capacities=(16, 64), fast=True):
    return CampaignSpec.from_grid(
        name="t",
        policies=list(policies),
        capacities=list(capacities),
        traces={"u": TRACE},
        fast=fast,
    )


def sweep_rows(spec):
    """Serial uninterrupted sweep of the same grid, campaign-ordered."""
    traces = {key: t.materialize() for key, t in spec.traces.items()}
    cells = [
        dict(
            policy=c.policy,
            capacity=c.capacity,
            trace=traces[c.trace],
            fast=c.fast,
            **c.policy_kwargs,
        )
        for c in spec.cells
    ]
    rows = sweep(simulate_cell, cells)
    for row in rows:
        row.pop("trace")
    return rows


def campaign_rows(report):
    rows = report.rows()
    for row in rows:
        row.pop("trace")
    return rows


class TestBitIdentity:
    def test_serial_matches_sweep(self, tmp_path):
        spec = make_spec()
        with CampaignRunner(tmp_path, spec) as runner:
            report = runner.run()
        assert report.complete
        assert campaign_rows(report) == sweep_rows(spec)

    def test_parallel_matches_sweep(self, tmp_path):
        spec = make_spec()
        with CampaignRunner(tmp_path, spec, parallel=True, max_workers=2) as runner:
            report = runner.run()
        assert report.complete
        assert campaign_rows(report) == sweep_rows(spec)

    def test_referee_cells_match_sweep(self, tmp_path):
        spec = make_spec(policies=("item-lru",), capacities=(16,), fast=False)
        with CampaignRunner(tmp_path, spec) as runner:
            report = runner.run()
        assert campaign_rows(report) == sweep_rows(spec)


class TestMemoStore:
    def test_identical_rerun_computes_zero_cells(self, tmp_path):
        spec = make_spec()
        with CampaignRunner(tmp_path, spec) as runner:
            first = runner.run()
        assert first.computed == len(spec.cells)
        with CampaignRunner(tmp_path, spec) as runner:
            second = runner.run()
        assert second.computed == 0
        assert second.memo_hits == len(spec.cells)
        assert second.memo_hit_ratio == 1.0
        assert campaign_rows(second) == campaign_rows(first)

    def test_changed_fast_flag_recomputes_all(self, tmp_path):
        with CampaignRunner(tmp_path, make_spec(fast=True)) as r:
            r.run()
        with CampaignRunner(tmp_path, make_spec(fast=False)) as r:
            report = r.run()
        assert report.computed == 4
        assert report.memo_hits == 0

    def test_widened_grid_recomputes_exactly_new_cells(self, tmp_path):
        with CampaignRunner(tmp_path, make_spec(capacities=(16, 64))) as r:
            r.run()
        with CampaignRunner(tmp_path, make_spec(capacities=(16, 64, 256))) as r:
            report = r.run()
        assert report.memo_hits == 4  # the overlapping cells
        assert report.computed == 2  # only capacity=256, one per policy
        computed = [o.cell.capacity for o in report.outcomes if not o.memo]
        assert computed == [256, 256]

    def test_changed_policy_kwargs_recompute(self, tmp_path):
        base = CampaignSpec.from_grid(
            name="t",
            policies=["gcm"],
            capacities=[16],
            traces={"u": TRACE},
            policy_kwargs={"seed": 0},
        )
        with CampaignRunner(tmp_path, base) as r:
            assert r.run().computed == 1
        reseeded = CampaignSpec.from_grid(
            name="t",
            policies=["gcm"],
            capacities=[16],
            traces={"u": TRACE},
            policy_kwargs={"seed": 1},
        )
        with CampaignRunner(tmp_path, reseeded) as r:
            report = r.run()
        assert report.computed == 1
        assert report.memo_hits == 0

    def test_changed_trace_recomputes(self, tmp_path):
        other_trace = TraceSpec(
            kind="workload",
            name="uniform",
            params={**TRACE.params, "seed": 4},
        )
        with CampaignRunner(tmp_path, make_spec()) as r:
            r.run()
        changed = CampaignSpec.from_grid(
            name="t",
            policies=["item-lru", "iblp"],
            capacities=[16, 64],
            traces={"u": other_trace},
        )
        with CampaignRunner(tmp_path, changed) as r:
            report = r.run()
        assert report.computed == 4
        assert report.memo_hits == 0


class TestRetryAndQuarantine:
    def test_transient_failure_retries_then_succeeds(self, tmp_path, monkeypatch):
        spec = make_spec(policies=("item-lru",), capacities=(16,))
        real = runner_mod.execute_cell
        calls = {"n": 0}

        def flaky(cell, trace):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise OSError("transient I/O blip")
            return real(cell, trace)

        monkeypatch.setattr(runner_mod, "execute_cell", flaky)
        sleeps = []
        with CampaignRunner(
            tmp_path,
            spec,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.25, backoff_factor=4.0),
            sleep=sleeps.append,
        ) as runner:
            report = runner.run()
        assert report.complete
        assert report.attempts == 3
        assert report.failures == 2
        # Exponential backoff: 0.25s then 1.0s (within scheduling slop).
        assert len(sleeps) == 2
        assert sleeps[0] == pytest.approx(0.25, abs=0.05)
        assert sleeps[1] == pytest.approx(1.0, abs=0.05)
        monkeypatch.setattr(runner_mod, "execute_cell", real)
        assert campaign_rows(report) == sweep_rows(spec)

    def test_poison_cell_quarantined_rest_completes(self, tmp_path):
        spec = CampaignSpec(
            name="t",
            traces={"u": TRACE},
            cells=[
                runner_mod.CellSpec(policy="item-lru", capacity=16, trace="u"),
                runner_mod.CellSpec(
                    policy="item-lru",
                    capacity=16,
                    trace="u",
                    policy_kwargs={"bogus_kwarg": 1},  # poison: TypeError
                ),
                runner_mod.CellSpec(policy="iblp", capacity=16, trace="u"),
            ],
        )
        with CampaignRunner(
            tmp_path,
            spec,
            retry=RetryPolicy(max_attempts=2, backoff_base=0.0),
        ) as runner:
            report = runner.run()
        assert not report.complete
        assert len(report.done) == 2
        assert len(report.quarantined) == 1
        poison = report.quarantined[0]
        assert poison.index == 1
        assert poison.attempts == 2
        assert "TypeError" in poison.error
        # The journal records the terminal quarantine.
        events = [e["event"] for e in runner.journal.replay()]
        assert "quarantined" in events

    def test_resume_rearms_quarantined_cells(self, tmp_path):
        spec = CampaignSpec(
            name="t",
            traces={"u": TRACE},
            cells=[
                runner_mod.CellSpec(
                    policy="item-lru",
                    capacity=16,
                    trace="u",
                    policy_kwargs={"bogus_kwarg": 1},
                )
            ],
        )
        retry = RetryPolicy(max_attempts=2, backoff_base=0.0)
        with CampaignRunner(tmp_path, spec, retry=retry) as r:
            assert len(r.run().quarantined) == 1
        # Resume (spec loaded from the directory): fresh attempt budget.
        with CampaignRunner(tmp_path, retry=retry) as r:
            report = r.run()
        assert len(report.quarantined) == 1
        assert report.attempts == 2

    @fork_only
    def test_parallel_poison_quarantined_rest_completes(self, tmp_path):
        spec = CampaignSpec(
            name="t",
            traces={"u": TRACE},
            cells=[
                runner_mod.CellSpec(policy="item-lru", capacity=16, trace="u"),
                runner_mod.CellSpec(
                    policy="item-lru",
                    capacity=16,
                    trace="u",
                    policy_kwargs={"bogus_kwarg": 1},
                ),
                runner_mod.CellSpec(policy="iblp", capacity=64, trace="u"),
            ],
        )
        with CampaignRunner(
            tmp_path,
            spec,
            parallel=True,
            max_workers=2,
            retry=RetryPolicy(max_attempts=2, backoff_base=0.01),
        ) as runner:
            report = runner.run()
        assert len(report.done) == 2
        assert len(report.quarantined) == 1


@fork_only
class TestWorkerCrashInjection:
    def test_sigkilled_worker_is_retried(self, tmp_path, monkeypatch):
        """A worker killed with SIGKILL mid-cell is an ordinary failed
        attempt: the cell retries and the grid completes with rows
        bit-identical to an uninterrupted serial sweep."""
        spec = make_spec()
        real = runner_mod.execute_cell
        marker = tmp_path / "died-once"

        def kamikaze(cell, trace):
            if cell.capacity == 64 and cell.policy == "iblp" and not marker.exists():
                marker.touch()
                os.kill(os.getpid(), signal.SIGKILL)
            return real(cell, trace)

        monkeypatch.setattr(runner_mod, "execute_cell", kamikaze)
        with CampaignRunner(
            tmp_path / "camp",
            spec,
            parallel=True,
            max_workers=2,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.01),
        ) as runner:
            report = runner.run()
        assert report.complete
        assert marker.exists()
        assert report.failures == 1
        errors = runner.journal.last_error_by_hash()
        assert any("WorkerDied" in e for e in errors.values())
        assert any(f"-{signal.SIGKILL}" in e for e in errors.values())
        monkeypatch.setattr(runner_mod, "execute_cell", real)
        assert campaign_rows(report) == sweep_rows(spec)

    def test_hung_worker_killed_on_timeout(self, tmp_path, monkeypatch):
        spec = make_spec(policies=("item-lru", "iblp"), capacities=(16,))
        real = runner_mod.execute_cell

        def hang(cell, trace):
            if cell.policy == "iblp":
                time.sleep(60)
            return real(cell, trace)

        monkeypatch.setattr(runner_mod, "execute_cell", hang)
        t0 = time.monotonic()
        with CampaignRunner(
            tmp_path,
            spec,
            parallel=True,
            max_workers=2,
            retry=RetryPolicy(max_attempts=1, timeout=0.5, backoff_base=0.0),
        ) as runner:
            report = runner.run()
        assert time.monotonic() - t0 < 30  # nowhere near the 60s hang
        assert len(report.done) == 1
        assert len(report.quarantined) == 1
        assert "TimeoutError" in report.quarantined[0].error
        assert "0.5" in report.quarantined[0].error


class TestTelemetry:
    def test_phases_and_counters_published(self, tmp_path):
        from repro.telemetry import Recorder

        recorder = Recorder()
        spec = make_spec(policies=("item-lru",), capacities=(16,))
        with CampaignRunner(tmp_path, spec, recorder=recorder) as runner:
            runner.run()
        assert set(recorder.phase_seconds) == {"plan", "execute"}
        reg = recorder.registry
        assert reg.counter("campaign_cells").value == 1
        assert reg.counter("campaign_computed").value == 1
        assert reg.counter("campaign_memo_hits").value == 0
        # Second run: everything memoized, hit ratio goes to 1.
        with CampaignRunner(tmp_path, spec, recorder=recorder) as runner:
            runner.run()
        assert reg.counter("campaign_memo_hits").value == 1
        assert reg.gauge("campaign_memo_hit_ratio").value == 1.0


class TestValidation:
    def test_bad_retry_policies(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(timeout=0)

    def test_bad_workers(self, tmp_path):
        with pytest.raises(ConfigurationError):
            CampaignRunner(tmp_path, make_spec(), max_workers=0)


class TestCampaignCache:
    def test_bit_identical_to_direct_simulate(self, tmp_path):
        from repro.core.engine import simulate
        from repro.policies import make_policy

        trace = TRACE.materialize()
        direct = simulate(make_policy("iblp", 32, trace.mapping), trace)
        with CampaignCache(tmp_path) as cache:
            (first,) = cache.simulate_many([("iblp", 32)], trace, fast=False)
            (second,) = cache.simulate_many([("iblp", 32)], trace, fast=False)
        assert first == direct
        assert second == direct
        assert cache.computed == 1
        assert cache.hits == 1
        assert cache.hit_ratio == 0.5

    def test_kwargs_and_fast_key_the_cache(self, tmp_path):
        trace = TRACE.materialize()
        with CampaignCache(tmp_path) as cache:
            cache.simulate_many([("gcm", 32, {"seed": 0})], trace, fast=False)
            cache.simulate_many([("gcm", 32, {"seed": 1})], trace, fast=False)
            cache.simulate_many([("gcm", 32, {"seed": 0})], trace)
        assert cache.computed == 3
        assert cache.hits == 0

    def test_shares_store_with_runner(self, tmp_path):
        spec = make_spec(policies=("item-lru",), capacities=(16,))
        with CampaignRunner(tmp_path, spec) as runner:
            runner.run()
        trace = TRACE.materialize()
        with CampaignCache(tmp_path) as cache:
            cache.simulate_many([("item-lru", 16)], trace)
        assert cache.hits == 1
        assert cache.computed == 0

    @staticmethod
    def _served_and_sharded():
        from repro.campaign import CellSpec
        from repro.cluster import ClusterSpec
        from repro.serving import ArrivalSpec, ServingConfig

        serving = ServingConfig(arrival=ArrivalSpec(rate=0.05), concurrency=2)
        cluster = ClusterSpec(n_shards=2, scheme="item")
        cells = [
            CellSpec("iblp", 16, "u", fast=False, serving=serving.as_dict()),
            CellSpec("iblp", 16, "u", cluster=cluster.as_dict()),
            CellSpec(
                "item-lru",
                16,
                "u",
                fast=False,
                serving=serving.as_dict(),
                cluster=cluster.as_dict(),
            ),
        ]
        spec = CampaignSpec(name="t", traces={"u": TRACE}, cells=cells)

        def through_cache(cache, trace):
            return [
                cache.serve("iblp", 16, trace, serving),
                cache.cluster("iblp", 16, trace, cluster),
                cache.cluster("item-lru", 16, trace, cluster, serving=serving),
            ]

        return spec, through_cache

    def test_runner_serving_and_cluster_cells_hit_the_cache(self, tmp_path):
        spec, through_cache = self._served_and_sharded()
        with CampaignRunner(tmp_path, spec) as runner:
            report = runner.run()
        assert report.computed == 3
        with CampaignCache(tmp_path) as cache:
            got = through_cache(cache, TRACE.materialize())
        assert cache.hits == 3 and cache.computed == 0
        assert [r.fields() for r in got] == [
            o.result.fields() for o in report.outcomes
        ]

    def test_cache_serving_and_cluster_cells_hit_the_runner(self, tmp_path):
        spec, through_cache = self._served_and_sharded()
        with CampaignCache(tmp_path) as cache:
            got = through_cache(cache, TRACE.materialize())
        assert cache.computed == 3
        with CampaignRunner(tmp_path, spec) as runner:
            report = runner.run()
        assert report.memo_hits == 3 and report.computed == 0
        assert [o.result.fields() for o in report.outcomes] == [
            r.fields() for r in got
        ]
