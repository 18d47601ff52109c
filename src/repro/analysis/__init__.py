"""Analysis tooling: LP validation, ratio measurement, sweeps, output.

* :mod:`repro.analysis.lp` — numeric solutions of the §5.2 linear
  programs (Theorems 5–7), replacing the authors' Mathematica runs.
* :mod:`repro.analysis.competitive` — empirical competitive-ratio
  measurement combining adversaries with offline OPT brackets.
* :mod:`repro.analysis.sweep` — parameter sweeps with optional
  process-level parallelism.
* :mod:`repro.analysis.tables` — plain-text/CSV result rendering.
* :mod:`repro.analysis.ascii_plot` — terminal line plots for figures.
* :mod:`repro.analysis.mrc` — Mattson stack-distance miss-ratio curves.
* :mod:`repro.analysis.randomized` — multi-seed summaries for the
  randomized §6 policies.
"""

from repro.analysis.lp import (
    thm5_numeric,
    thm6_numeric,
    thm7_numeric,
)
from repro.analysis.competitive import (
    CompetitiveMeasurement,
    measure_adversarial,
    ratio_on_trace,
)
from repro.analysis.sweep import grid, simulate_cell, sweep
from repro.analysis.tables import format_histogram, format_table, write_csv
from repro.analysis.ascii_plot import line_plot
from repro.analysis.mrc import iblp_mrc_grid, miss_ratio_curve
from repro.analysis.randomized import SeedSummary, compare_randomized, seed_sweep

__all__ = [
    "thm5_numeric",
    "thm6_numeric",
    "thm7_numeric",
    "CompetitiveMeasurement",
    "measure_adversarial",
    "ratio_on_trace",
    "sweep",
    "grid",
    "simulate_cell",
    "format_table",
    "format_histogram",
    "write_csv",
    "line_plot",
    "miss_ratio_curve",
    "iblp_mrc_grid",
    "SeedSummary",
    "seed_sweep",
    "compare_randomized",
]
