"""The append-only cell-state journal.

``journal.jsonl`` records every state transition the executor makes::

    {"event": "start",       "run": 2, "cells": 12, ...}
    {"event": "attempt",     "index": 3, "hash": "...", "attempt": 1}
    {"event": "done",        "index": 3, "hash": "...", "attempt": 1,
     "seconds": 0.8, "memo": false}
    {"event": "failed",      "index": 5, "hash": "...", "attempt": 1,
     "error": "TimeoutError: cell exceeded 2.0s"}
    {"event": "quarantined", "index": 5, "hash": "...", "attempts": 3}
    {"event": "finish",      "run": 2, "done": 11, "quarantined": 1}

The journal is *descriptive*, not authoritative: which cells are done
is decided by the content-addressed :class:`~repro.campaign.store.
ResultStore` (a row either exists under the cell's hash or it does
not), so a journal lost or torn mid-write costs history, never
results.  ``status``/``resume`` read it for attempts, failures, and
quarantine records; a torn tail line (orchestrator killed mid-append)
is skipped on replay.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from repro.campaign.spec import canonical_json

__all__ = ["Journal"]

JOURNAL_FILENAME = "journal.jsonl"


class Journal:
    """Append/replay interface over a campaign's ``journal.jsonl``.

    Appends are flushed but not fsynced: the journal is descriptive,
    so a lost tail costs history, never results.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / JOURNAL_FILENAME
        self._fh = None

    def append(self, event: str, **fields: Any) -> Dict[str, Any]:
        """Append one event record (adds ``event`` and ``ts``)."""
        record = {"event": event, "ts": time.time(), **fields}
        if self._fh is None:
            self._fh = open(self.path, "ab")
        self._fh.write((canonical_json(record) + "\n").encode())
        self._fh.flush()
        return record

    def replay(self) -> Iterator[Dict[str, Any]]:
        """Yield journaled events in order, skipping a torn tail."""
        if not self.path.exists():
            return
        with open(self.path, "rb") as f:
            for raw in f:
                if not raw.endswith(b"\n"):
                    return
                try:
                    yield json.loads(raw)
                except json.JSONDecodeError:
                    return

    def events(self) -> List[Dict[str, Any]]:
        return list(self.replay())

    def run_count(self) -> int:
        """Number of ``start`` events so far (run/resume generations)."""
        return sum(1 for e in self.replay() if e.get("event") == "start")

    def attempts_by_hash(self) -> Dict[str, int]:
        """Total attempts each cell hash has consumed across all runs."""
        out: Dict[str, int] = {}
        for event in self.replay():
            if event.get("event") == "attempt" and "hash" in event:
                out[event["hash"]] = out.get(event["hash"], 0) + 1
        return out

    def last_error_by_hash(self) -> Dict[str, str]:
        """Most recent failure message per cell hash."""
        out: Dict[str, str] = {}
        for event in self.replay():
            if event.get("event") == "failed" and "hash" in event:
                out[event["hash"]] = str(event.get("error", ""))
        return out

    def quarantined_cells(self) -> Dict[str, Dict[str, Any]]:
        """Cells quarantined by the *latest* run, keyed by hash.

        Quarantine is a per-run circuit breaker (resume re-arms the
        attempt budget), so only events after the most recent ``start``
        count: a cell quarantined two runs ago and completed since is
        not stuck.  Each value carries ``index``, ``attempts``, and the
        quarantining ``error``.
        """
        out: Dict[str, Dict[str, Any]] = {}
        for event in self.replay():
            kind = event.get("event")
            if kind == "start":
                out.clear()
            elif kind == "quarantined" and "hash" in event:
                out[event["hash"]] = {
                    "index": event.get("index"),
                    "attempts": int(event.get("attempts", 0)),
                    "error": str(event.get("error", "")),
                }
            elif kind == "done" and event.get("hash") in out:
                # Defensive: a cell can't normally complete after being
                # quarantined within one run, but the journal is
                # descriptive — trust the stronger signal.
                del out[event["hash"]]
        return out

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
