"""Crash-safe persistence: checksummed cache entries, store recovery."""

import json
import warnings

import pytest

from repro.lab import Job, ResultCache, ResultStore
from repro.resilience.integrity import (
    atomic_write_bytes,
    atomic_write_text,
    payload_digest,
    remove_stale_tempfiles,
)

KEY = "a" * 64


class TestIntegrityPrimitives:
    def test_atomic_write_round_trip(self, tmp_path):
        path = tmp_path / "sub" / "file.bin"
        path.parent.mkdir()
        atomic_write_bytes(path, b"\x00\x01payload")
        assert path.read_bytes() == b"\x00\x01payload"
        atomic_write_text(tmp_path / "t.txt", "hello")
        assert (tmp_path / "t.txt").read_text() == "hello"
        # no temp debris left behind
        assert remove_stale_tempfiles(tmp_path) == 0

    def test_stale_tempfile_cleanup(self, tmp_path):
        (tmp_path / ".tmp-dead.json").write_bytes(b"x")
        (tmp_path / "nested").mkdir()
        (tmp_path / "nested" / "write.part").write_bytes(b"y")
        (tmp_path / "keep.json").write_bytes(b"z")
        assert remove_stale_tempfiles(tmp_path) == 2
        assert (tmp_path / "keep.json").exists()

    def test_payload_digest_stable(self):
        assert payload_digest("abc") == payload_digest(b"abc")
        assert len(payload_digest("abc")) == 64


class TestChecksummedCache:
    def test_round_trip_is_enveloped(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY, {"x": 1})
        assert cache.get(KEY) == {"x": 1}
        raw = json.loads(cache._path(KEY).read_text())
        assert raw["__ck__"] == 1 and raw["sha256"]

    def test_bit_flip_detected_and_evicted(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY, {"x": 1})
        path = cache._path(KEY)
        doc = json.loads(path.read_text())
        doc["payload"]["x"] = 2          # payload altered, checksum stale
        path.write_text(json.dumps(doc))
        assert cache.get(KEY) is None
        assert cache.corrupt == 1
        assert not path.exists()          # evicted: next run recomputes

    def test_truncation_detected(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY, {"x": [1, 2, 3]})
        path = cache._path(KEY)
        path.write_text(path.read_text()[:20])
        assert cache.get(KEY) is None
        assert cache.corrupt == 1

    def test_flipped_marker_is_corrupt(self, tmp_path):
        # One flipped byte in the envelope marker must not make the
        # whole envelope read back as the result.
        cache = ResultCache(tmp_path)
        cache.put(KEY, {"x": 3})
        path = cache._path(KEY)
        path.write_text(path.read_text().replace('"__ck__"', '"__cj__"'))
        assert cache.verify(repair=False)["corrupt"] == [KEY]
        assert cache.get(KEY) is None
        assert cache.corrupt == 1
        assert not path.exists()

    def test_verify_scan_repairs(self, tmp_path):
        cache = ResultCache(tmp_path)
        good, bad, unmarked = "b" * 64, "c" * 64, "d" * 64
        cache.put(good, {"ok": True})
        cache.put(bad, {"ok": False})
        bad_path = cache._path(bad)
        bad_path.write_text(bad_path.read_text()[:-8])
        unmarked_path = cache._path(unmarked)
        unmarked_path.parent.mkdir(parents=True, exist_ok=True)
        unmarked_path.write_text('{"old": 1}')
        (tmp_path / "bb" / ".tmp-dead.json").write_bytes(b"x")
        report = cache.verify(repair=True)
        assert report["entries"] == 3
        assert sorted(report["corrupt"]) == [bad, unmarked]
        assert report["tempfiles_removed"] == 1
        assert cache.get(good) == {"ok": True}
        assert not bad_path.exists()
        assert not unmarked_path.exists()


class TestStoreRecoverySummary:
    def _torn_store(self, tmp_path) -> ResultStore:
        store = ResultStore(tmp_path / "results.jsonl")
        job = Job(kind="load_point", params={"rate": 0.1}, seed=1)
        store.append(job, {"r": 1})
        store.append(job, {"r": 2})
        with store.path.open("a") as fh:
            fh.write('{"torn": tru')   # crashed writer's trailing line
        return store

    def test_summary_counts_and_locates_damage(self, tmp_path):
        store = self._torn_store(tmp_path)
        summary = store.recovery_summary()
        assert summary["records"] == 2
        assert summary["skipped"] == 1
        assert summary["corrupt_lines"][0]["line"] == 3
        assert summary["path"].endswith("results.jsonl")

    def test_iteration_still_warns_and_skips(self, tmp_path):
        store = self._torn_store(tmp_path)
        with pytest.warns(RuntimeWarning, match="corrupt record"):
            records = list(store)
        assert [r["result"]["r"] for r in records] == [1, 2]
        assert len(store.corrupt_lines) == 1

    def test_clean_store_summary_is_quiet(self, tmp_path):
        store = ResultStore(tmp_path / "clean.jsonl")
        job = Job(kind="load_point", params={"rate": 0.1}, seed=1)
        store.append(job, {"r": 1})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warning fails the test
            summary = store.recovery_summary()
        assert summary == {
            "path": str(store.path), "records": 1, "skipped": 0,
            "corrupt_lines": [],
        }
