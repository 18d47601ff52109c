"""The content-addressed result store: append-only JSONL + SQLite index.

Layout inside a campaign directory::

    results.jsonl   one JSON object per line: {"hash": ..., "payload": ...}
    index.sqlite    cells(hash PRIMARY KEY, offset, length)

The JSONL log is the source of truth; SQLite is only an index into it
(byte offsets), so the store stays diff-friendly and greppable while
lookups stay O(log n).  Crash safety relies on ordering, not atomicity:

1. a row is appended to ``results.jsonl``, flushed, and fsync'd;
2. only then is its offset inserted into the index and committed.

A crash between (1) and (2) leaves an unindexed-but-complete line,
re-indexed by the reconcile scan on next open.  A crash *during* (1)
leaves a torn line with no trailing newline; reconcile truncates it
(it was never indexed, so nothing is lost) so later appends cannot
fuse with it.  A read-only store (``readonly=True``, what ``campaign
status``/``export`` open) never repairs: it indexes complete-but-
unindexed rows in memory only and leaves a torn tail alone, since on
a live campaign that tail is the runner's in-flight append.

First write wins: :meth:`put` refuses to overwrite an existing hash,
which is what makes resumed campaigns bit-identical to uninterrupted
ones — a recomputed cell can never replace the row an earlier attempt
already committed.
"""

from __future__ import annotations

import json
import os
import sqlite3
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Set, Tuple

from repro.campaign.spec import canonical_json
from repro.errors import ConfigurationError

__all__ = ["ResultStore"]

RESULTS_FILENAME = "results.jsonl"
INDEX_FILENAME = "index.sqlite"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS cells (
    hash   TEXT PRIMARY KEY,
    offset INTEGER NOT NULL,
    length INTEGER NOT NULL
)
"""


class ResultStore:
    """Content-addressed row storage for one campaign directory.

    Parameters
    ----------
    directory:
        Campaign directory; created if missing.
    readonly:
        Open for reading only: nothing in the directory is created,
        written, truncated or re-indexed.  The SQLite index is opened
        read-only and copied into memory, and rows the index has not
        caught up with are indexed in that copy.  :meth:`put` raises.
    """

    def __init__(
        self, directory: str | Path, readonly: bool = False
    ) -> None:
        self.directory = Path(directory)
        self.results_path = self.directory / RESULTS_FILENAME
        self.index_path = self.directory / INDEX_FILENAME
        self.readonly = readonly
        if readonly:
            self._db = sqlite3.connect(":memory:")
            if self.index_path.exists():
                disk = sqlite3.connect(
                    self.index_path.resolve().as_uri() + "?mode=ro", uri=True
                )
                try:
                    disk.backup(self._db)
                finally:
                    disk.close()
        else:
            self.directory.mkdir(parents=True, exist_ok=True)
            self.results_path.touch(exist_ok=True)
            self._db = sqlite3.connect(self.index_path)
        self._db.execute(_SCHEMA)
        self._db.commit()
        #: Lookup counters exposed to campaign telemetry.
        self.lookups = 0
        self.hits = 0
        self._reconcile()

    # -- crash recovery ----------------------------------------------------
    def _reconcile(self) -> None:
        """Index complete-but-unindexed rows; drop a torn tail line
        (read-only: leave it)."""
        row = self._db.execute(
            "SELECT COALESCE(MAX(offset + length), 0) FROM cells"
        ).fetchone()
        watermark = int(row[0])
        try:
            size = self.results_path.stat().st_size
        except FileNotFoundError:  # read-only open of a campaign never run
            size = 0
        if size < watermark:
            # The log was truncated behind the index's back (manual
            # surgery); rebuild the index from scratch.
            self._db.execute("DELETE FROM cells")
            self._db.commit()
            watermark = 0
        if size == watermark:
            return
        keep = watermark
        with open(self.results_path, "rb") as f:
            f.seek(watermark)
            offset = watermark
            for raw in f:
                if not raw.endswith(b"\n"):
                    break  # torn tail from a mid-write crash
                try:
                    record = json.loads(raw)
                except json.JSONDecodeError:
                    break  # treat any later bytes as unrecoverable tail
                self._index(record["hash"], offset, len(raw))
                offset += len(raw)
                keep = offset
        self._db.commit()
        if keep != size and not self.readonly:
            with open(self.results_path, "rb+") as f:
                f.truncate(keep)

    def _index(self, cell_hash: str, offset: int, length: int) -> None:
        self._db.execute(
            "INSERT OR IGNORE INTO cells (hash, offset, length) VALUES (?, ?, ?)",
            (cell_hash, offset, length),
        )

    # -- mapping interface -------------------------------------------------
    def __contains__(self, cell_hash: str) -> bool:
        return (
            self._db.execute(
                "SELECT 1 FROM cells WHERE hash = ?", (cell_hash,)
            ).fetchone()
            is not None
        )

    def __len__(self) -> int:
        return int(self._db.execute("SELECT COUNT(*) FROM cells").fetchone()[0])

    def hashes(self) -> Set[str]:
        return {h for (h,) in self._db.execute("SELECT hash FROM cells")}

    def get(self, cell_hash: str) -> Optional[Dict[str, Any]]:
        """The stored payload for ``cell_hash``, or ``None``."""
        self.lookups += 1
        row = self._db.execute(
            "SELECT offset, length FROM cells WHERE hash = ?", (cell_hash,)
        ).fetchone()
        if row is None:
            return None
        offset, length = row
        with open(self.results_path, "rb") as f:
            f.seek(offset)
            record = json.loads(f.read(length))
        self.hits += 1
        return record["payload"]

    def put(self, cell_hash: str, payload: Dict[str, Any]) -> bool:
        """Append and index a row; ``False`` if the hash already exists."""
        if self.readonly:
            raise ConfigurationError(
                f"result store {self.directory} was opened read-only"
            )
        if cell_hash in self:
            return False
        line = (
            canonical_json({"hash": cell_hash, "payload": payload}) + "\n"
        ).encode()
        with open(self.results_path, "ab") as f:
            offset = f.tell()
            f.write(line)
            f.flush()
            os.fsync(f.fileno())
        self._index(cell_hash, offset, len(line))
        self._db.commit()
        return True

    def items(self) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """All ``(hash, payload)`` pairs in append order."""
        with open(self.results_path, "rb") as f:
            indexed = {
                offset: length
                for offset, length in self._db.execute(
                    "SELECT offset, length FROM cells ORDER BY offset"
                )
            }
            for offset, length in indexed.items():
                f.seek(offset)
                record = json.loads(f.read(length))
                yield record["hash"], record["payload"]

    @property
    def hit_ratio(self) -> float:
        """Fraction of :meth:`get` lookups served from the store."""
        return self.hits / self.lookups if self.lookups else 0.0

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        self._db.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
