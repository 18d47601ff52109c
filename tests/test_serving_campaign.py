"""Serving cells through the campaign layer: determinism, crash
resume, and the stale-cell regression.

Three guarantees:

* **Seeded determinism** — same (policy, trace, serving config) ⇒
  bit-identical :meth:`ServingResult.fields` payloads, including every
  histogram bucket, across independent runs.
* **Crash resume** — extending the existing SIGKILL fault-injection
  suite to serving cells: a worker killed mid-serving-cell retries,
  and an interrupted ``run``/``resume`` pair lands on payloads
  bit-identical to an uninterrupted run.
* **Stale-cell regression** — the serving config is part of the cell's
  content address, so changing any arrival/service/queue parameter
  (or flipping a cell between offline and serving) can never be
  served from a stale store entry.  Guards the fix for
  ``campaign status``/``collect_rows``, which previously hashed cells
  without serving inputs.
"""

import multiprocessing
import os
import signal

import pytest

import repro.campaign.runner as runner_mod
from repro.campaign import CampaignRunner, CampaignSpec, RetryPolicy, TraceSpec
from repro.campaign.cli import collect_rows
from repro.campaign.spec import cell_hash
from repro.serving import ArrivalSpec, ServiceModel, ServingConfig, serve_policy

_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
fork_only = pytest.mark.skipif(
    not _HAS_FORK, reason="fault injection monkeypatches across fork"
)

TRACE = TraceSpec(
    kind="workload",
    name="markov",
    params={"length": 1500, "universe": 256, "block_size": 4, "seed": 3},
)


def serving_dict(rate=0.02, seed=1):
    return ServingConfig(
        arrival=ArrivalSpec(process="poisson", rate=rate, seed=seed),
        service=ServiceModel(t_hit=1.0, t_miss=40.0, t_item=1.0),
        concurrency=2,
    ).as_dict()


def make_spec(rate=0.02):
    return CampaignSpec.from_grid(
        name="serve",
        policies=["item-lru", "iblp"],
        capacities=[32],
        traces={"m": TRACE},
        fast=False,
        servings=[serving_dict(rate=rate)],
    )


def stored_payloads(report):
    """hash → stored fields, for bit-level comparison across runs."""
    return {
        o.hash: o.result.fields() for o in report.done if o.result is not None
    }


class TestSeededDeterminism:
    def test_identical_histogram_payloads_across_runs(self):
        trace = TRACE.materialize()
        config = ServingConfig.from_dict(serving_dict())
        first = serve_policy("iblp", 32, trace, config)
        second = serve_policy("iblp", 32, trace, config)
        assert first.fields() == second.fields()
        assert first.latency.as_dict() == second.latency.as_dict()
        assert first.latency.as_dict()["count"] == 1500

    def test_campaign_runs_bit_identical(self, tmp_path):
        spec = make_spec()
        with CampaignRunner(tmp_path / "a", spec) as runner:
            a = runner.run()
        with CampaignRunner(tmp_path / "b", spec) as runner:
            b = runner.run()
        assert a.complete and b.complete
        assert stored_payloads(a) == stored_payloads(b)
        assert a.rows() == b.rows()


@fork_only
class TestServingCrashResume:
    def test_sigkilled_serving_cell_retries_bit_identical(
        self, tmp_path, monkeypatch
    ):
        spec = make_spec()
        with CampaignRunner(tmp_path / "clean", spec) as runner:
            clean = runner.run()
        real = runner_mod.execute_cell
        marker = tmp_path / "died-once"

        def kamikaze(cell, trace):
            if cell.policy == "iblp" and not marker.exists():
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
        assert marker.exists()
        assert report.complete
        errors = runner.journal.last_error_by_hash()
        assert any("WorkerDied" in e for e in errors.values())
        monkeypatch.setattr(runner_mod, "execute_cell", real)
        assert stored_payloads(report) == stored_payloads(clean)

    def test_resume_after_midrun_kill_is_memo_backed(
        self, tmp_path, monkeypatch
    ):
        """First run dies on the second cell every attempt (quarantine);
        resume recomputes only the missing cell and the final payloads
        are bit-identical to an uninterrupted run."""
        spec = make_spec()
        with CampaignRunner(tmp_path / "clean", spec) as runner:
            clean = runner.run()
        real = runner_mod.execute_cell

        def always_die(cell, trace):
            if cell.policy == "iblp":
                os.kill(os.getpid(), signal.SIGKILL)
            return real(cell, trace)

        monkeypatch.setattr(runner_mod, "execute_cell", always_die)
        with CampaignRunner(
            tmp_path / "camp",
            spec,
            parallel=True,
            max_workers=2,
            retry=RetryPolicy(max_attempts=2, backoff_base=0.01),
        ) as runner:
            interrupted = runner.run()
        assert len(interrupted.quarantined) == 1
        assert len(interrupted.done) == 1
        monkeypatch.setattr(runner_mod, "execute_cell", real)
        with CampaignRunner(tmp_path / "camp", parallel=True, max_workers=2) as runner:
            resumed = runner.run()
        assert resumed.complete
        assert resumed.memo_hits == 1  # the cell that survived run 1
        assert stored_payloads(resumed) == stored_payloads(clean)


class TestServingConfigInContentAddress:
    """Regression: arrival params must invalidate memoized cells."""

    def test_hash_depends_on_serving_config(self):
        base = dict(
            policy="iblp",
            capacity=32,
            trace_fingerprint="f" * 64,
            fast=False,
            version="1.0",
        )
        offline = cell_hash(**base)
        served = cell_hash(**base, serving=serving_dict(rate=0.02))
        other_rate = cell_hash(**base, serving=serving_dict(rate=0.03))
        other_seed = cell_hash(**base, serving=serving_dict(seed=2))
        assert len({offline, served, other_rate, other_seed}) == 4

    def test_offline_hash_unchanged_by_serving_support(self):
        """``serving=None`` must hash exactly as before the serving
        layer existed — old stores stay valid."""
        import hashlib

        from repro.campaign.spec import canonical_json

        legacy = hashlib.sha256(
            canonical_json(
                {
                    "policy": "iblp",
                    "capacity": 32,
                    "policy_kwargs": {},
                    "trace_fingerprint": "f" * 64,
                    "fast": True,
                    "version": "1.0",
                }
            ).encode()
        ).hexdigest()
        assert (
            cell_hash("iblp", 32, "f" * 64, fast=True, version="1.0") == legacy
        )

    def test_changed_arrival_rate_never_reuses_stale_cells(self, tmp_path):
        with CampaignRunner(tmp_path, make_spec(rate=0.02)) as runner:
            first = runner.run()
        assert first.complete and first.computed == 2
        # Re-point the same directory at a different arrival rate: the
        # store holds rate=0.02 rows, but every cell must recompute.
        with CampaignRunner(tmp_path, make_spec(rate=0.03)) as runner:
            second = runner.run()
        assert second.complete
        assert second.memo_hits == 0
        assert second.computed == 2
        rate_cols = {row["offered_rate"] for row in collect_rows(tmp_path)}
        assert rate_cols == {0.03 * 1.0}
        # Same rate again: now it memoizes.
        with CampaignRunner(tmp_path, make_spec(rate=0.03)) as runner:
            third = runner.run()
        assert third.memo_hits == 2 and third.computed == 0

    def test_status_and_export_see_only_matching_cells(self, tmp_path):
        """`campaign status`/`collect_rows` hash with the serving
        config: after a respec to new arrival params, previously
        stored rows are invisible (pending), not stale hits."""
        import argparse

        from repro.campaign.cli import run_campaign_command

        with CampaignRunner(tmp_path, make_spec(rate=0.02)) as runner:
            runner.run()
        assert len(collect_rows(tmp_path)) == 2
        # Save a respec'd grid without running it.
        make_spec(rate=0.05).save(tmp_path)
        assert collect_rows(tmp_path) == []
        ns = argparse.Namespace(
            campaign_command="status", directory=str(tmp_path)
        )
        text, code = run_campaign_command(ns)
        assert "0/2 cells done" in text
