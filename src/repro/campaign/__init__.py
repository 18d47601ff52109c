"""Checkpointed, fault-tolerant, memoizing experiment orchestration.

The paper's tables and figures come from (policy × capacity × workload
× seed) grids whose cells are arbitrarily expensive — the offline side
is NP-complete — and :func:`repro.analysis.sweep.sweep` holds the
whole grid in memory with no persistence: one hung or crashed worker
throws away hours of grid.  This package layers orchestration on top
of ``sweep``/``simulate_cell``:

* :mod:`repro.campaign.spec` — declarative campaign descriptions and
  the **content address** of a cell: a stable hash over (policy,
  policy kwargs, capacity, trace fingerprint, fast flag, code
  version).  Same inputs ⇒ same hash ⇒ the cell is never recomputed.
* :mod:`repro.campaign.store` — the append-only JSONL result log with
  a SQLite index keyed by cell hash; crash-safe (rows are fsync'd
  before being indexed, torn tail lines are discarded on open).
* :mod:`repro.campaign.journal` — the cell-state journal
  (``attempt``/``done``/``failed``/``quarantined`` events) that makes
  every campaign resumable.
* :mod:`repro.campaign.runner` — the checkpointed executor: per-cell
  worker processes with timeouts, retry with exponential backoff, and
  a poison-cell quarantine that lets the rest of the grid finish.
* :mod:`repro.campaign.integrate` — :class:`CampaignCache`, the memo
  layer over the runner's cells that the experiment drivers use to
  make table/figure regeneration resumable (:data:`UNCACHED` is its
  store-less default).

``campaign run / resume / status / export`` on the CLI drive all of
this; see ``docs/campaigns.md``.
"""

from repro.campaign.integrate import UNCACHED, CampaignCache, open_cache
from repro.campaign.journal import Journal
from repro.campaign.runner import CampaignReport, CampaignRunner, RetryPolicy
from repro.campaign.spec import (
    CampaignSpec,
    CellSpec,
    TraceSpec,
    cell_hash,
    trace_workload_names,
)
from repro.campaign.store import ResultStore

__all__ = [
    "CampaignCache",
    "CampaignReport",
    "CampaignRunner",
    "CampaignSpec",
    "CellSpec",
    "Journal",
    "ResultStore",
    "RetryPolicy",
    "TraceSpec",
    "UNCACHED",
    "cell_hash",
    "open_cache",
    "trace_workload_names",
]
