"""CLI tests: parsing and end-to-end dispatch."""

import pytest

from repro.cli import build_parser, main
from repro.errors import ConfigurationError


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--help"])
    out = capsys.readouterr().out
    for cmd in (
        "table",
        "figure",
        "simulate",
        "adversarial",
        "profile",
        "campaign",
    ):
        assert cmd in out


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_version_flag(capsys):
    import repro

    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert repro.__version__ in out
    assert "gc-caching" in out


def test_table1(capsys):
    assert main(["table", "1", "--h", "1000", "--B", "16"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "gc_upper" in out


def test_table2(capsys):
    assert main(["table", "2", "--B", "16", "--p", "2"]) == 0
    out = capsys.readouterr().out
    assert "Table 2" in out


def test_figure2(capsys):
    assert main(["figure", "2", "--trials", "2"]) == 0
    assert "ALL EQUAL" in capsys.readouterr().out


def test_figure3(capsys):
    assert main(["figure", "3", "--points", "30"]) == 0
    assert "Figure 3" in capsys.readouterr().out


def test_figure5(capsys):
    assert main(["figure", "5", "--B", "8"]) == 0
    assert "LP validation" in capsys.readouterr().out


def test_figure6(capsys):
    assert main(["figure", "6", "--points", "20"]) == 0
    assert "Figure 6" in capsys.readouterr().out


def test_simulate(capsys):
    code = main(
        [
            "simulate",
            "--policy",
            "iblp",
            "--workload",
            "zipf",
            "--capacity",
            "64",
            "--length",
            "2000",
            "--universe",
            "512",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "misses" in out


def test_simulate_telemetry_and_report(tmp_path, capsys):
    """End-to-end: --telemetry writes a parseable JSONL whose window
    misses sum to the reported total, and `report` renders it."""
    import json

    out_file = tmp_path / "tele.jsonl"
    code = main(
        [
            "simulate",
            "--policy",
            "iblp",
            "--workload",
            "markov",
            "--capacity",
            "64",
            "--length",
            "2500",
            "--universe",
            "512",
            "--telemetry",
            str(out_file),
            "--window",
            "1000",
            "--sample-rate",
            "0.1",
        ]
    )
    assert code == 0
    sim_out = capsys.readouterr().out
    assert "telemetry:" in sim_out

    records = [json.loads(line) for line in out_file.read_text().splitlines()]
    windows = [r for r in records if r["type"] == "window"]
    (summary,) = [r for r in records if r["type"] == "summary"]
    assert [w["accesses"] for w in windows] == [1000, 1000, 500]
    assert sum(w["misses"] for w in windows) == summary["misses"]
    assert summary["result"]["misses"] == summary["misses"]

    assert main(["report", str(out_file), "--metric", "miss_ratio"]) == 0
    report_out = capsys.readouterr().out
    assert "windowed telemetry" in report_out
    assert "miss_ratio vs window" in report_out
    assert main(["report", str(out_file), "--no-plot"]) == 0
    assert "vs window" not in capsys.readouterr().out


def test_simulate_telemetry_csv(tmp_path, capsys):
    out_file = tmp_path / "tele.csv"
    code = main(
        [
            "simulate",
            "--policy",
            "item-lru",
            "--workload",
            "zipf",
            "--capacity",
            "64",
            "--length",
            "1200",
            "--universe",
            "512",
            "--telemetry",
            str(out_file),
            "--window",
            "400",
        ]
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("type,")
    assert sum(1 for ln in lines if ln.startswith("window,")) == 3


def test_simulate_rejects_unknown_policy():
    with pytest.raises(SystemExit):
        main(["simulate", "--policy", "nope", "--workload", "zipf", "--capacity", "8"])


def test_profile(capsys):
    assert (
        main(
            [
                "profile",
                "--workload",
                "markov",
                "--length",
                "3000",
                "--universe",
                "256",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "polynomial fit" in out


def test_adversarial_small(capsys):
    assert main(["adversarial", "--k", "64", "--h", "24", "--B", "4", "--cycles", "2"]) == 0
    out = capsys.readouterr().out
    assert "thm2_item" in out


def test_schematics(capsys):
    assert main(["schematics"]) == 0
    assert "Figure 4" in capsys.readouterr().out


def test_mrc(capsys):
    assert (
        main(
            [
                "mrc",
                "--workload",
                "zipf",
                "--length",
                "3000",
                "--universe",
                "512",
                "--capacities",
                "16,64",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "Mattson MRC" in out
    assert "item_lru_miss_ratio" in out


def test_mrc_rejects_empty_capacity_list():
    with pytest.raises(ConfigurationError, match="no capacities given"):
        main(["mrc", "--workload", "markov", "--length", "500", "--capacities", ","])


def test_simulate_trace_file(tmp_path, capsys):
    trace = tmp_path / "t.trace"
    trace.write_text("\n".join(str(i % 64) for i in range(400)))
    code = main(
        [
            "simulate",
            "--policy",
            "iblp",
            "--trace-file",
            str(trace),
            "--capacity",
            "16",
            "--block-size",
            "8",
        ]
    )
    assert code == 0
    assert "misses" in capsys.readouterr().out


def test_simulate_requires_some_source():
    with pytest.raises(SystemExit):
        main(["simulate", "--policy", "iblp", "--capacity", "16"])


@pytest.mark.parametrize(
    "argv, field, want",
    [
        (["latency-vs-load", "--loads", "0.5,"], "loads", [0.5]),
        (["latency-vs-load", "--loads", " 0.25 , 0.75 "], "loads", [0.25, 0.75]),
        (["latency-vs-load", "--shards", "2,"], "shards", [2]),
        (
            ["latency-vs-load", "--policies", "iblp,,item-lru"],
            "policies",
            ["iblp", "item-lru"],
        ),
        (["latency-vs-load", "--schemes", "block, "], "schemes", ["block"]),
        (
            ["mrc", "--workload", "zipf", "--capacities", "16, 64,"],
            "capacities",
            [16, 64],
        ),
        (["cluster", "spatial", "--shards", "1,4,"], "shards", [1, 4]),
        (["cluster", "spatial", "--schemes", ",item"], "schemes", ["item"]),
        (["cluster", "spatial", "--policies", "iblp,"], "policies", ["iblp"]),
        (
            ["campaign", "run", "d", "--policy", "iblp", "--workload", "zipf"]
            + ["--capacity", "16,"],
            "capacity",
            [16],
        ),
    ],
)
def test_comma_lists_skip_blank_parts(argv, field, want):
    assert getattr(build_parser().parse_args(argv), field) == want


@pytest.mark.parametrize(
    "argv",
    [
        ["latency-vs-load", "--loads", "0.5,x"],
        ["latency-vs-load", "--shards", "2.5"],
        ["cluster", "spatial", "--shards", "two"],
    ],
)
def test_comma_lists_reject_bad_numbers(argv, capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
    assert "invalid" in capsys.readouterr().err
