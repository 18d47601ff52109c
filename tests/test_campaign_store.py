"""Result store and journal: content addressing, crash recovery."""

import json

import pytest

from repro.campaign.journal import Journal
from repro.campaign.store import ResultStore
from repro.errors import ConfigurationError


@pytest.fixture
def store(tmp_path):
    with ResultStore(tmp_path) as s:
        yield s


class TestResultStore:
    def test_roundtrip(self, store):
        payload = {"misses": 3, "miss_ratio": 0.125, "policy": "item-lru"}
        assert store.put("abc", payload)
        assert "abc" in store
        assert store.get("abc") == payload
        assert len(store) == 1

    def test_get_missing(self, store):
        assert store.get("nope") is None
        assert "nope" not in store

    def test_first_write_wins(self, store):
        assert store.put("h", {"v": 1})
        assert not store.put("h", {"v": 2})
        assert store.get("h") == {"v": 1}

    def test_float_round_trip_is_exact(self, store):
        # Bit-identical resume relies on JSON float round-tripping.
        value = 1.0 / 3.0
        store.put("f", {"ratio": value, "big": 1e300, "neg": -0.0})
        got = store.get("f")
        assert got["ratio"] == value
        assert got["big"] == 1e300

    def test_items_in_append_order(self, store):
        for i in range(5):
            store.put(f"h{i}", {"i": i})
        assert [h for h, _ in store.items()] == [f"h{i}" for i in range(5)]
        assert store.hashes() == {f"h{i}" for i in range(5)}

    def test_survives_reopen(self, tmp_path):
        with ResultStore(tmp_path) as s:
            s.put("x", {"v": 42})
        with ResultStore(tmp_path) as s:
            assert s.get("x") == {"v": 42}

    def test_reconcile_unindexed_complete_row(self, tmp_path):
        """Crash between JSONL append and SQLite commit: the complete
        but unindexed line is re-indexed on next open."""
        with ResultStore(tmp_path) as s:
            s.put("a", {"v": 1})
        # Simulate the post-append / pre-index crash by writing a row
        # behind the index's back.
        line = json.dumps({"hash": "b", "payload": {"v": 2}}) + "\n"
        with open(tmp_path / "results.jsonl", "a") as f:
            f.write(line)
        with ResultStore(tmp_path) as s:
            assert s.get("a") == {"v": 1}
            assert s.get("b") == {"v": 2}
            assert len(s) == 2

    def test_reconcile_truncates_torn_tail(self, tmp_path):
        """Crash mid-append leaves a torn line; it is dropped so later
        appends cannot fuse with it."""
        with ResultStore(tmp_path) as s:
            s.put("a", {"v": 1})
        with open(tmp_path / "results.jsonl", "a") as f:
            f.write('{"hash": "torn", "payl')  # no newline
        with ResultStore(tmp_path) as s:
            assert len(s) == 1
            assert "torn" not in s
            assert s.put("c", {"v": 3})
        with ResultStore(tmp_path) as s:
            assert s.get("a") == {"v": 1}
            assert s.get("c") == {"v": 3}

    def test_readonly_reads_unindexed_rows_and_keeps_torn_tail(self, tmp_path):
        """A reader indexes a row the index missed, in memory only, and
        leaves a torn tail (a live writer's in-flight append) alone."""
        with ResultStore(tmp_path) as s:
            s.put("a", {"v": 1})
        with open(tmp_path / "results.jsonl", "a") as f:
            f.write(json.dumps({"hash": "b", "payload": {"v": 2}}) + "\n")
            f.write('{"hash": "torn", "payl')  # no newline
        before = {
            name: (tmp_path / name).read_bytes()
            for name in ("results.jsonl", "index.sqlite")
        }
        with ResultStore(tmp_path, readonly=True) as s:
            assert s.get("a") == {"v": 1}
            assert s.get("b") == {"v": 2}
            assert len(s) == 2
            assert "torn" not in s
            with pytest.raises(ConfigurationError, match="read-only"):
                s.put("c", {"v": 3})
        for name, data in before.items():
            assert (tmp_path / name).read_bytes() == data
        # The writer's own open still repairs: "b" is indexed for real.
        with ResultStore(tmp_path) as s:
            assert s.get("b") == {"v": 2}

    def test_readonly_open_of_empty_directory_creates_nothing(self, tmp_path):
        with ResultStore(tmp_path, readonly=True) as s:
            assert len(s) == 0
            assert s.get("a") is None
        assert list(tmp_path.iterdir()) == []

    def test_rebuild_after_external_truncation(self, tmp_path):
        with ResultStore(tmp_path) as s:
            s.put("a", {"v": 1})
            s.put("b", {"v": 2})
        (tmp_path / "results.jsonl").write_text("")
        with ResultStore(tmp_path) as s:
            assert len(s) == 0
            assert s.get("a") is None

    def test_hit_ratio_counters(self, store):
        store.put("a", {"v": 1})
        store.get("a")
        store.get("a")
        store.get("missing")
        assert store.lookups == 3
        assert store.hits == 2
        assert store.hit_ratio == pytest.approx(2 / 3)


class TestJournal:
    def test_append_and_replay(self, tmp_path):
        with Journal(tmp_path) as j:
            j.append("start", run=1, cells=4)
            j.append("attempt", index=0, hash="h0", attempt=1)
            j.append("done", index=0, hash="h0", attempt=1)
        events = Journal(tmp_path).events()
        assert [e["event"] for e in events] == ["start", "attempt", "done"]
        assert all("ts" in e for e in events)

    def test_run_count(self, tmp_path):
        j = Journal(tmp_path)
        assert j.run_count() == 0
        j.append("start", run=1)
        j.append("finish", run=1)
        j.append("start", run=2)
        assert j.run_count() == 2
        j.close()

    def test_attempts_and_errors_by_hash(self, tmp_path):
        with Journal(tmp_path) as j:
            j.append("attempt", index=0, hash="h0", attempt=1)
            j.append("failed", index=0, hash="h0", attempt=1, error="boom")
            j.append("attempt", index=0, hash="h0", attempt=2)
            j.append("failed", index=0, hash="h0", attempt=2, error="again")
        j = Journal(tmp_path)
        assert j.attempts_by_hash() == {"h0": 2}
        assert j.last_error_by_hash() == {"h0": "again"}

    def test_torn_tail_skipped(self, tmp_path):
        with Journal(tmp_path) as j:
            j.append("start", run=1)
        with open(tmp_path / "journal.jsonl", "a") as f:
            f.write('{"event": "att')
        assert [e["event"] for e in Journal(tmp_path).replay()] == ["start"]
