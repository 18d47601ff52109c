"""Analysis package tests: LP numerics, sweeps, tables, plots."""

import math

import pytest

from repro.analysis import (
    format_table,
    grid,
    line_plot,
    simulate_cell,
    sweep,
    thm5_numeric,
    thm6_numeric,
    thm7_numeric,
    write_csv,
)
from repro.analysis.competitive import measure_adversarial, ratio_on_trace
from repro.analysis.lp import space_cost
from repro.adversary import ItemCacheAdversary
from repro.bounds import (
    iblp_block_layer_upper,
    iblp_item_layer_upper,
    iblp_ratio,
    item_cache_lower,
)
from repro.errors import ConfigurationError
from repro.experiments.figure5 import paper_interior_r
from repro.policies import ItemLRU
from repro.workloads import uniform_random


class TestLP:
    def test_space_cost_triangle(self):
        # U(t) = t + (b/B + 1) t(t-1)/2
        assert space_cost(1, 100, 10) == 1
        assert space_cost(3, 100, 10) == pytest.approx(3 + 11 * 3)

    def test_space_cost_rejects_t_below_one(self):
        with pytest.raises(ConfigurationError):
            space_cost(0, 10, 10)

    def test_thm5_matches_closed_form(self):
        for i, h in ((100, 20), (500, 499), (64, 8)):
            assert thm5_numeric(i, h).ratio == pytest.approx(
                iblp_item_layer_upper(i, h), rel=1e-9
            )

    def test_thm5_infinite_when_i_le_h(self):
        assert math.isinf(thm5_numeric(10, 10).ratio)

    def test_thm6_matches_closed_form(self):
        B = 16.0
        for b, h in ((200, 50), (100, 80), (1000, 30)):
            assert thm6_numeric(b, h, B).ratio == pytest.approx(
                iblp_block_layer_upper(b, h, B), rel=0.01
            )

    def test_thm6_capped_at_b(self):
        B = 8.0
        assert thm6_numeric(10, 10**6, B).ratio <= B + 1e-6

    def test_thm7_closed_form_is_upper_bound(self):
        B = 16.0
        for i, b, h in ((200, 200, 50), (500, 100, 80), (64, 64, 20)):
            lp = thm7_numeric(i, b, h, B)
            assert lp.ratio <= iblp_ratio(i, b, h, B) * (1 + 1e-6)

    def test_thm7_tight_when_interior_r_feasible(self):
        B = 16.0
        i, b, h = 100.0, 1000.0, 60.0
        assert paper_interior_r(i, b, h, B) > 0
        lp = thm7_numeric(i, b, h, B)
        assert lp.ratio == pytest.approx(iblp_ratio(i, b, h, B), rel=0.01)

    def test_thm7_dominates_single_locality_programs(self):
        B = 8.0
        i, b, h = 300.0, 300.0, 40.0
        combined = thm7_numeric(i, b, h, B).ratio
        assert combined >= thm5_numeric(i, h).ratio - 1e-9
        assert combined >= thm6_numeric(b, h, B).ratio - 1e-2


class TestSweep:
    def test_grid_product(self):
        cells = grid(a=[1, 2], b=["x"])
        assert cells == [{"a": 1, "b": "x"}, {"a": 2, "b": "x"}]

    def test_grid_empty(self):
        assert grid() == [{}]

    def test_sweep_serial(self):
        rows = sweep(lambda a: {"double": 2 * a}, grid(a=[1, 2, 3]))
        assert [r["double"] for r in rows] == [2, 4, 6]
        assert rows[0]["a"] == 1  # cell params echoed

    def test_sweep_parallel_matches_serial(self):
        cells = grid(a=list(range(6)))
        serial = sweep(_square, cells, parallel=False)
        parallel = sweep(_square, cells, parallel=True, max_workers=2)
        assert serial == parallel

    def test_sweep_empty(self):
        assert sweep(_square, []) == []

    def test_sweep_parallel_fast_matches_serial_referee(self):
        """Regression: a parallel sweep on the fast kernels is
        bit-identical to a serial sweep through the validating referee
        — same rows, same order, every SimResult column equal."""
        trace = uniform_random(1500, universe=128, block_size=4, seed=3)
        cells = grid(
            policy=["item-lru", "item-fifo", "block-lru", "iblp"],
            capacity=[16, 64],
            trace=[trace],
        )
        referee = sweep(
            simulate_cell,
            [dict(c, fast=False) for c in cells],
            parallel=False,
        )
        fast = sweep(
            simulate_cell,
            [dict(c, fast=True) for c in cells],
            parallel=True,
            max_workers=2,
        )
        assert len(referee) == len(fast) == len(cells)
        for ref_row, fast_row in zip(referee, fast):
            for row in (ref_row, fast_row):
                row.pop("trace")  # echoed Trace: identity differs across rows
                row.pop("fast")
            assert ref_row == fast_row


    def test_parallel_worker_error_names_cell(self):
        """A parallel worker exception re-raises as SweepCellError
        with the failing cell's kwargs in the message and attached."""
        from repro.errors import SweepCellError

        cells = grid(a=[1, 0, 2])
        with pytest.raises(SweepCellError) as excinfo:
            sweep(_reciprocal, cells, parallel=True, max_workers=2)
        message = str(excinfo.value)
        assert "'a': 0" in message  # the cell params are in the message
        assert "ZeroDivisionError" in message
        assert excinfo.value.cell == {"a": 0}
        assert isinstance(excinfo.value.__cause__, ZeroDivisionError)

    @pytest.mark.parametrize("parallel", [False, True])
    @pytest.mark.parametrize("workers", [0, -1])
    def test_sweep_rejects_max_workers_below_one(self, parallel, workers):
        """``max_workers=0`` must not fall back to every CPU."""
        with pytest.raises(ConfigurationError, match="max_workers"):
            sweep(
                _reciprocal,
                grid(a=[1, 2]),
                parallel=parallel,
                max_workers=workers,
            )

    def test_cell_seconds_excludes_finalize_cost(self):
        """Timing guarantee: cell_seconds brackets the cell body only,
        not the recorder flattening (which runs finalize/sink flush)."""
        rows = sweep(_slow_finalize_cell, grid(x=[1]), timing=True)
        # The cell body is ~instant; a finalize that sleeps 0.2s must
        # not leak into the measurement.
        assert rows[0]["cell_seconds"] < 0.1
        assert rows[0]["telemetry_accesses"] == 0  # recorder flattened


def _reciprocal(a):
    return {"r": 1 / a}


class _SlowCloseSink:
    def emit(self, record):
        pass

    def close(self):
        import time

        time.sleep(0.2)


def _slow_finalize_cell(x):
    from repro.telemetry import Recorder

    return {"value": x, "telemetry": Recorder(sinks=[_SlowCloseSink()])}


def _square(a):
    return {"sq": a * a}


class TestTables:
    def test_format_basic(self):
        text = format_table([{"x": 1, "y": 2.5}, {"x": 10}])
        assert "x" in text and "y" in text
        assert "10" in text

    def test_format_handles_inf_nan(self):
        text = format_table([{"v": float("inf")}, {"v": float("nan")}])
        assert "inf" in text and "nan" in text

    def test_format_title_and_columns(self):
        text = format_table([{"a": 1, "b": 2}], columns=["b"], title="T")
        assert text.startswith("T")
        assert "a" not in text.splitlines()[1]

    def test_write_csv_roundtrip(self, tmp_path):
        import csv

        rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
        path = write_csv(rows, tmp_path / "out" / "rows.csv")
        with path.open() as fh:
            back = list(csv.DictReader(fh))
        assert back[0]["a"] == "1"
        assert back[1]["b"] == "y"


class TestAsciiPlot:
    def test_plot_contains_glyphs_and_legend(self):
        text = line_plot(
            {"up": ([1, 10, 100], [1, 10, 100])},
            width=40,
            height=10,
            title="demo",
        )
        assert "demo" in text
        assert "o=up" in text

    def test_plot_skips_nonpositive_on_log(self):
        text = line_plot({"s": ([0, 1, 2], [1, -1, 3])})
        assert "(no finite data to plot)" not in text  # (2,3) survives

    def test_plot_empty(self):
        assert "no finite data" in line_plot({"s": ([], [])})


class TestCompetitive:
    def test_measure_adversarial_row(self):
        k, h, B = 64, 24, 4
        adv = ItemCacheAdversary(k, h, B)
        m = measure_adversarial(adv, lambda mp: ItemLRU(k, mp), cycles=3)
        row = m.as_row()
        assert row["ratio_vs_claimed"] == pytest.approx(
            item_cache_lower(k, h, B), rel=0.1
        )

    def test_bracket_certifies(self):
        k, h, B = 64, 24, 4
        adv = ItemCacheAdversary(k, h, B)
        m = measure_adversarial(
            adv, lambda mp: ItemLRU(k, mp), cycles=3, bracket_opt=True
        )
        assert m.opt_lower <= m.opt_upper
        assert m.ratio_vs_bracket >= 1.0

    def test_ratio_on_trace(self):
        trace = uniform_random(2000, universe=256, block_size=4, seed=1)
        row = ratio_on_trace(ItemLRU(64, trace.mapping), trace, h=32)
        assert row["opt_lower"] <= row["opt_upper"]
        assert row["ratio_min"] <= row["ratio_max"]
        assert row["ratio_min"] > 0
