"""Campaign CLI: run/resume/status/export end-to-end, including the
orchestrator-crash acceptance test (kill -9 mid-campaign, resume,
rows bit-identical to an uninterrupted serial sweep)."""

import json
import os
import signal
import sqlite3
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis.sweep import simulate_cell, sweep
from repro.campaign import CampaignSpec, TraceSpec
from repro.campaign.cli import collect_rows
from repro.cli import main

RUN_ARGS = [
    "--policy",
    "item-lru,iblp",
    "--capacity",
    "16,64",
    "--workload",
    "uniform",
    "--length",
    "800",
    "--universe",
    "64",
    "--block-size",
    "4",
    "--fast",
]


def run_cli(capsys, *args):
    code = main(["campaign", *args])
    assert code == 0
    return capsys.readouterr().out


class TestRunStatusExport:
    def test_run_then_status_then_export(self, tmp_path, capsys):
        directory = str(tmp_path / "camp")
        out = run_cli(capsys, "run", directory, *RUN_ARGS)
        assert "4/4 cells done" in out
        assert "4 computed" in out

        out = run_cli(capsys, "status", directory)
        assert "4/4 cells done" in out
        assert out.count("done") >= 4
        assert "pending" not in out

        out = run_cli(capsys, "export", directory)
        assert "miss_ratio" in out  # aligned table by default

        csv_path = tmp_path / "rows.csv"
        out = run_cli(capsys, "export", directory, "--out", str(csv_path))
        assert "wrote 4/4 rows" in out
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 5  # header + 4 rows

        out = run_cli(capsys, "export", directory, "--format", "jsonl")
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 4
        assert {r["capacity"] for r in rows} == {16, 64}

    def test_rerun_is_fully_memoized(self, tmp_path, capsys):
        directory = str(tmp_path / "camp")
        run_cli(capsys, "run", directory, *RUN_ARGS)
        out = run_cli(capsys, "run", directory, *RUN_ARGS)
        assert "4 memoized, 0 computed" in out

    def test_multi_seed_grid(self, tmp_path, capsys):
        directory = str(tmp_path / "camp")
        out = run_cli(
            capsys,
            "run",
            directory,
            "--policy",
            "item-lru",
            "--capacity",
            "16",
            "--workload",
            "uniform",
            "--length",
            "400",
            "--universe",
            "32",
            "--block-size",
            "4",
            "--seed",
            "0,1,2",
            "--fast",
        )
        assert "3/3 cells done" in out
        rows = collect_rows(directory)
        assert [r["trace"] for r in rows] == [
            "uniform-s0",
            "uniform-s1",
            "uniform-s2",
        ]

    def test_trace_file_campaign(self, tmp_path, capsys):
        trace_file = tmp_path / "toy.trace"
        trace_file.write_text("\n".join(str(i % 48) for i in range(600)))
        directory = str(tmp_path / "camp")
        out = run_cli(
            capsys,
            "run",
            directory,
            "--policy",
            "item-lru,block-lru",
            "--capacity",
            "8",
            "--trace-file",
            str(trace_file),
            "--block-size",
            "4",
            "--fast",
        )
        assert "2/2 cells done" in out
        rows = collect_rows(directory)
        assert all(r["trace"] == "toy" for r in rows)

    def test_status_before_any_run(self, tmp_path, capsys):
        spec = CampaignSpec.from_grid(
            name="idle",
            policies=["item-lru"],
            capacities=[8],
            traces={
                "u": TraceSpec(
                    kind="workload",
                    name="uniform",
                    params={"length": 100, "universe": 32, "block_size": 4},
                )
            },
        )
        spec.save(tmp_path)
        out = run_cli(capsys, "status", str(tmp_path))
        assert "0/1 cells done" in out
        assert "pending" in out
        out = run_cli(capsys, "export", str(tmp_path))
        assert "no completed cells" in out


class TestReadonlyReaders:
    """``status`` and ``export`` never modify a campaign directory: a
    runner may be mid-append, so a torn tail is its in-flight row."""

    def test_torn_tail_survives_status_and_export(self, tmp_path, capsys):
        directory = tmp_path / "camp"
        run_cli(capsys, "run", str(directory), *RUN_ARGS)
        expected = collect_rows(directory)
        assert len(expected) == 4
        # Crash window 1: the last row is appended but never indexed.
        results = directory / "results.jsonl"
        last_offset = len(results.read_bytes()) - len(
            results.read_bytes().splitlines(keepends=True)[-1]
        )
        db = sqlite3.connect(directory / "index.sqlite")
        db.execute("DELETE FROM cells WHERE offset = ?", (last_offset,))
        db.commit()
        db.close()
        # Crash window 2 (or a live append): a torn tail line.
        with open(results, "ab") as f:
            f.write(b'{"hash": "in-flight", "payl')
        before = {
            path.name: path.read_bytes() for path in sorted(directory.iterdir())
        }

        assert collect_rows(directory) == expected
        out = run_cli(capsys, "status", str(directory))
        assert "4/4 cells done" in out
        out = run_cli(capsys, "export", str(directory), "--format", "jsonl")
        assert len(out.splitlines()) == 4

        after = {
            path.name: path.read_bytes() for path in sorted(directory.iterdir())
        }
        assert after.keys() == before.keys()
        for name, data in before.items():
            assert len(after[name]) == len(data), name
            assert after[name] == data, name


@pytest.mark.skipif(
    not hasattr(signal, "SIGKILL"), reason="needs SIGKILL semantics"
)
class TestOrchestratorCrash:
    """Acceptance: kill -9 the orchestrator mid-campaign; `campaign
    resume` completes it, and the merged result rows are bit-identical
    row-for-row to an uninterrupted serial sweep."""

    def _spec(self):
        return CampaignSpec.from_grid(
            name="crashy",
            policies=["item-lru", "iblp"],
            capacities=[16, 64],
            traces={
                "u": TraceSpec(
                    kind="workload",
                    name="uniform",
                    params={
                        "length": 1000,
                        "universe": 64,
                        "block_size": 4,
                        "seed": 5,
                    },
                )
            },
            fast=True,
        )

    def test_kill9_then_resume_bit_identical(self, tmp_path, capsys):
        directory = tmp_path / "camp"
        spec = self._spec()
        spec.save(directory)

        # Child process drives the campaign but SIGKILLs itself while
        # executing the third cell — no cleanup, no atexit, exactly the
        # "orchestrator died" failure mode.  The first two results must
        # already be durable in the store.
        script = textwrap.dedent(
            """
            import os, signal
            import repro.campaign.runner as rm
            from repro.campaign import CampaignRunner

            real = rm.execute_cell
            seen = []

            def dying(cell, trace):
                seen.append(cell)
                if len(seen) == 3:
                    os.kill(os.getpid(), signal.SIGKILL)
                return real(cell, trace)

            rm.execute_cell = dying
            with CampaignRunner({dir!r}) as runner:
                runner.run()
            """
        ).format(dir=str(directory))
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()

        # Exactly the two cells completed before the crash survived.
        assert len(collect_rows(directory)) == 2

        out = run_cli(capsys, "resume", str(directory))
        assert "4/4 cells done" in out
        assert "2 memoized, 2 computed" in out

        merged = collect_rows(directory)
        trace = spec.traces["u"].materialize()
        expected = sweep(
            simulate_cell,
            [
                dict(
                    policy=c.policy,
                    capacity=c.capacity,
                    trace=trace,
                    fast=c.fast,
                )
                for c in spec.cells
            ],
        )
        for row in expected:
            row["trace"] = "u"  # campaign echoes the trace key
        assert merged == expected

    def test_resume_of_untouched_campaign_runs_everything(
        self, tmp_path, capsys
    ):
        directory = tmp_path / "camp"
        self._spec().save(directory)
        out = run_cli(capsys, "resume", str(directory))
        assert "4/4 cells done" in out
        assert "0 memoized, 4 computed" in out


class TestQuarantineStatus:
    """`campaign status` must surface stuck cells and exit nonzero."""

    BAD_ARGS = [
        "--policy",
        "item-lru,no-such-policy",
        "--capacity",
        "16",
        "--workload",
        "uniform",
        "--length",
        "400",
        "--universe",
        "32",
        "--block-size",
        "4",
        "--max-attempts",
        "2",
        "--backoff",
        "0.01",
    ]

    def test_status_exits_nonzero_with_quarantined_cells(
        self, tmp_path, capsys
    ):
        directory = str(tmp_path / "camp")
        # The run itself reports and exits 0 (partial results are
        # durable and resumable); *status* is the CI-facing gate.
        assert main(["campaign", "run", directory, *self.BAD_ARGS]) == 0
        out = capsys.readouterr().out
        assert "1 quarantined" in out

        assert main(["campaign", "status", directory]) == 1
        out = capsys.readouterr().out
        assert "WARNING: 1 cell(s) quarantined" in out
        assert "quarantined" in out
        assert "no-such-policy" in out  # the error excerpt names the cause
        # Retry counts are visible: max-attempts=2 means 2 attempts.
        row = next(l for l in out.splitlines() if "quarantined" in l and "2" in l)
        assert "unknown policy" in row

    def test_status_recovers_after_successful_resume(self, tmp_path, capsys):
        directory = str(tmp_path / "camp")
        assert main(["campaign", "run", directory, *RUN_ARGS]) == 0
        capsys.readouterr()
        assert main(["campaign", "status", directory]) == 0
        out = capsys.readouterr().out
        assert "quarantined" not in out


class TestObservabilityFlags:
    def test_run_with_spans_and_metrics(self, tmp_path, capsys):
        directory = str(tmp_path / "camp")
        spans_path = tmp_path / "spans.jsonl"
        prom_path = tmp_path / "metrics.prom"
        out = run_cli(
            capsys,
            "run",
            directory,
            *RUN_ARGS,
            "--trace-spans",
            str(spans_path),
            "--metrics-out",
            str(prom_path),
        )
        assert "4/4 cells done" in out

        # The span tree: campaign > execute > cell > replay children.
        from repro.obs.trace_export import load_spans

        spans = load_spans(spans_path)
        by_name = {}
        for sp in spans:
            by_name.setdefault(sp.name, []).append(sp)
        assert len(by_name["campaign"]) == 1
        assert len(by_name["cell"]) == 4
        assert len(by_name["store.put"]) == 4
        by_id = {sp.span_id: sp for sp in spans}
        for cell in by_name["cell"]:
            assert by_id[cell.parent_id].name == "campaign.execute"
        for put in by_name["store.put"]:
            assert by_id[put.parent_id].name == "cell"
        assert len({sp.trace_id for sp in spans}) == 1

        # Chrome trace export round-trips through the CLI.
        trace_out = tmp_path / "trace.json"
        assert (
            main(
                [
                    "obs",
                    "trace-export",
                    str(spans_path),
                    "--out",
                    str(trace_out),
                ]
            )
            == 0
        )
        capsys.readouterr()
        doc = json.loads(trace_out.read_text())
        assert {e["name"] for e in doc["traceEvents"]} >= {"campaign", "cell"}

        # The heartbeat left a final watch state and Prometheus file.
        from repro.obs.watch import read_watch_state

        state = read_watch_state(Path(directory) / "watch.json")
        assert state["finished"] is True
        assert state["done"] == 4
        prom = prom_path.read_text()
        assert "# TYPE repro_campaign_cells gauge" in prom
        assert "repro_campaign_cells_done 4" in prom

    def test_parallel_run_with_spans(self, tmp_path, capsys):
        directory = str(tmp_path / "camp")
        spans_path = tmp_path / "spans.jsonl"
        out = run_cli(
            capsys,
            "run",
            directory,
            *RUN_ARGS,
            "--parallel",
            "--workers",
            "2",
            "--trace-spans",
            str(spans_path),
        )
        assert "4/4 cells done" in out
        from repro.obs.trace_export import load_spans

        spans = load_spans(spans_path)
        cells = [sp for sp in spans if sp.name == "cell"]
        orchestrator_pid = next(
            sp.pid for sp in spans if sp.name == "campaign"
        )
        assert len(cells) == 4
        # Worker cell spans were recorded in other processes yet still
        # parent into the orchestrator's tree.
        assert all(sp.pid != orchestrator_pid for sp in cells)
        by_id = {sp.span_id: sp for sp in spans}
        assert {by_id[sp.parent_id].name for sp in cells} == {
            "campaign.execute"
        }

    def test_memoized_rerun_with_spans(self, tmp_path, capsys):
        directory = str(tmp_path / "camp")
        run_cli(capsys, "run", directory, *RUN_ARGS)
        spans_path = tmp_path / "rerun_spans.jsonl"
        out = run_cli(
            capsys,
            "run",
            directory,
            *RUN_ARGS,
            "--trace-spans",
            str(spans_path),
        )
        assert "4 memoized" in out
        from repro.obs.trace_export import load_spans

        recorded = load_spans(spans_path)
        names = {sp.name for sp in recorded}
        assert names == {
            "campaign",
            "campaign.plan",
            "campaign.materialize",
            "campaign.execute",
        }
        by_id = {sp.span_id: sp for sp in recorded}
        assert {
            by_id[sp.parent_id].name
            for sp in recorded
            if sp.name == "campaign.materialize"
        } == {"campaign.plan"}
