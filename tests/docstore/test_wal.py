"""Write-ahead log unit tests: framing, group commit, rotation, compaction."""

import zlib

import pytest

from repro.docstore.errors import DocStoreError, DuplicateKeyError
from repro.docstore.store import DocumentStore
from repro.docstore.wal import (
    SNAPSHOT_NAME,
    WalConfig,
    _encode_record,
    _read_segment,
    _segment_path,
    recover_store,
)


def open_store(directory, **config):
    return DocumentStore.recover(directory, config=WalConfig(**config))


def reopen(store, directory, **config):
    store.journal.close()
    return open_store(directory, **config)


class TestRecordFraming:
    def test_encode_decode_round_trip(self, tmp_path):
        path = tmp_path / "seg.log"
        bodies = [
            {"lsn": 1, "op": "insert", "c": "obs", "docs": [{"_id": 1, "б": "ü"}]},
            {"lsn": 2, "op": "delete", "c": "obs", "filter": {}, "multi": True},
        ]
        path.write_bytes(b"".join(_encode_record(b) for b in bodies))
        good, records, torn = _read_segment(path)
        assert records == bodies
        assert not torn
        assert good == path.stat().st_size

    def test_unserializable_record_rejected(self):
        with pytest.raises(DocStoreError):
            _encode_record({"op": "insert", "docs": [object()]})

    def test_crc_catches_flipped_byte(self, tmp_path):
        path = tmp_path / "seg.log"
        line = _encode_record({"lsn": 1, "op": "drop_docs", "c": "obs"})
        corrupted = line[:-3] + b"X" + line[-2:]
        path.write_bytes(line + corrupted)
        good, records, torn = _read_segment(path)
        assert torn
        assert len(records) == 1
        assert good == len(line)

    def test_partial_tail_line_is_a_tear(self, tmp_path):
        path = tmp_path / "seg.log"
        line = _encode_record({"lsn": 1, "op": "drop_docs", "c": "obs"})
        path.write_bytes(line + line[:-5])  # newline lost in the crash
        good, records, torn = _read_segment(path)
        assert torn
        assert len(records) == 1
        assert good == len(line)

    def test_valid_crc_over_non_object_json_is_a_tear(self, tmp_path):
        path = tmp_path / "seg.log"
        raw = b"[1,2,3]"
        crc = zlib.crc32(raw) & 0xFFFFFFFF
        path.write_bytes(b"%08x " % crc + raw + b"\n")
        good, records, torn = _read_segment(path)
        assert torn
        assert records == []
        assert good == 0


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sync_policy": "sometimes"},
            {"group_records": 0},
            {"group_interval_s": -1.0},
            {"segment_max_bytes": 100},
            {"checkpoint_segments": -1},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(DocStoreError):
            WalConfig(**kwargs)


class TestAppendPath:
    def test_writes_survive_reopen(self, tmp_path):
        store = open_store(tmp_path)
        obs = store.collection("obs")
        obs.create_index("model", kind="hash")
        obs.insert_many([{"model": "A", "n": i} for i in range(5)])
        obs.update_many({"model": "A"}, {"$inc": {"n": 100}})
        obs.delete_one({"n": 100})
        store = reopen(store, tmp_path)
        restored = store["obs"]
        assert restored.count() == 4
        assert sorted(d["n"] for d in restored.find({})) == [101, 102, 103, 104]
        assert restored.index_paths() == ["model"]

    def test_journal_before_apply_aborts_cleanly(self, tmp_path):
        """An unserializable doc aborts before any state (or byte) moves."""
        store = open_store(tmp_path)
        obs = store.collection("obs")
        obs.insert_one({"n": 1})
        before = store.journal.info()
        with pytest.raises(DocStoreError):
            obs.insert_one({"bad": object()})
        assert obs.count() == 1
        after = store.journal.info()
        assert after["lsn"] == before["lsn"]
        store = reopen(store, tmp_path)
        assert store["obs"].count() == 1

    def test_failed_batch_insert_journals_nothing(self, tmp_path):
        store = open_store(tmp_path)
        obs = store.collection("obs")
        obs.insert_one({"_id": 7})
        lsn = store.journal.info()["lsn"]
        with pytest.raises(DuplicateKeyError):
            obs.insert_many([{"_id": 8}, {"_id": 7}])
        assert store.journal.info()["lsn"] == lsn
        store = reopen(store, tmp_path)
        assert store["obs"].count() == 1

    def test_ddl_and_drop_replay(self, tmp_path):
        store = open_store(tmp_path)
        obs = store.collection("obs")
        obs.create_index("a", kind="sorted")
        obs.create_index("b", kind="hash", unique=True)
        obs.drop_index("a")
        store.collection("gone").insert_one({"x": 1})
        store.drop_collection("gone")
        store = reopen(store, tmp_path)
        assert store["obs"].index_specs() == [
            {"path": "b", "kind": "hash", "unique": True}
        ]
        assert not store.has_collection("gone")

    def test_upsert_replays_once(self, tmp_path):
        store = open_store(tmp_path)
        obs = store.collection("obs")
        obs.update_one({"k": "a"}, {"$set": {"v": 1}}, upsert=True)
        obs.update_one({"k": "a"}, {"$inc": {"v": 10}}, upsert=True)
        store = reopen(store, tmp_path)
        assert store["obs"].count() == 1
        assert store["obs"].find_one({"k": "a"})["v"] == 11

    def test_current_date_is_pinned_on_replay(self, tmp_path):
        ticks = iter(float(i) for i in range(1, 100))
        store = recover_store(tmp_path, clock=lambda: next(ticks))
        obs = store.collection("obs")
        obs.insert_one({"k": "a"})
        obs.update_one({"k": "a"}, {"$currentDate": {"seen_at": True}})
        live = obs.find_one({"k": "a"})["seen_at"]
        store.journal.close()
        # a different clock after restart must not change the replayed doc
        store = recover_store(tmp_path, clock=lambda: 9999.0)
        assert store["obs"].find_one({"k": "a"})["seen_at"] == live


class TestGroupCommit:
    def test_always_syncs_every_append(self, tmp_path):
        store = open_store(tmp_path, sync_policy="always")
        obs = store.collection("obs")
        for i in range(5):
            obs.insert_one({"n": i})
        info = store.durability_info()
        assert info["appends"] == 5
        assert info["syncs"] >= 5
        assert info["synced_lsn"] == info["lsn"]

    def test_group_batches_syncs(self, tmp_path):
        store = open_store(
            tmp_path, sync_policy="group", group_records=10, group_interval_s=60.0
        )
        obs = store.collection("obs")
        for i in range(25):
            obs.insert_one({"n": i})
        info = store.durability_info()
        assert info["appends"] == 25
        # one sync per full group of 10, not one per record
        assert info["syncs"] <= 3
        store.sync()
        info = store.durability_info()
        assert info["synced_lsn"] == info["lsn"]

    def test_never_still_replays_flushed_records(self, tmp_path):
        store = open_store(tmp_path, sync_policy="never")
        store.collection("obs").insert_many([{"n": i} for i in range(10)])
        assert store.durability_info()["syncs"] == 0
        store = reopen(store, tmp_path, sync_policy="never")
        assert store["obs"].count() == 10


class TestRotationAndCheckpoint:
    def test_segments_rotate_at_size_bound(self, tmp_path):
        store = open_store(tmp_path, segment_max_bytes=4096)
        obs = store.collection("obs")
        for i in range(100):
            obs.insert_one({"n": i, "pad": "x" * 200})
        info = store.durability_info()
        assert info["rotations"] >= 2
        assert info["segments"] == info["rotations"] + 1
        store = reopen(store, tmp_path)
        assert store["obs"].count() == 100

    def test_checkpoint_compacts_and_preserves_state(self, tmp_path):
        store = open_store(tmp_path)
        obs = store.collection("obs")
        obs.create_index("n", kind="sorted")
        obs.insert_many([{"n": i} for i in range(50)])
        obs.delete_many({"n": {"$lt": 10}})
        docs = store.checkpoint()
        assert docs == 40
        assert (tmp_path / SNAPSHOT_NAME).exists()
        # sealed segments were deleted; only the live one remains
        info = store.durability_info()
        assert info["segments"] == 1
        obs.insert_one({"n": 999})  # lands in the post-checkpoint segment
        store = reopen(store, tmp_path)
        assert store["obs"].count() == 41
        assert store["obs"].index_paths() == ["n"]

    def test_lsn_monotonic_across_checkpoint_and_restart(self, tmp_path):
        store = open_store(tmp_path)
        store.collection("obs").insert_many([{"n": i} for i in range(20)])
        lsn_before = store.durability_info()["lsn"]
        store.checkpoint()
        store.collection("obs").insert_one({"n": 20})
        lsn_after = store.durability_info()["lsn"]
        assert lsn_after > lsn_before
        store = reopen(store, tmp_path)
        store.collection("obs").insert_one({"n": 21})
        assert store.durability_info()["lsn"] > lsn_after

    def test_auto_checkpoint_after_sealed_segments(self, tmp_path):
        store = open_store(
            tmp_path, segment_max_bytes=4096, checkpoint_segments=2
        )
        obs = store.collection("obs")
        for i in range(200):
            obs.insert_one({"n": i, "pad": "y" * 300})
        info = store.durability_info()
        assert info["checkpoints"] >= 1
        assert (tmp_path / SNAPSHOT_NAME).exists()
        store = reopen(store, tmp_path)
        assert store["obs"].count() == 200

    def test_checkpoint_without_journal_raises(self):
        with pytest.raises(DocStoreError):
            DocumentStore().checkpoint()


class TestTornTailRecovery:
    def _truncate_tail(self, directory, drop_bytes):
        segments = sorted(directory.glob("wal-*.log"))
        path = segments[-1]
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - drop_bytes])
        return path

    def test_torn_tail_truncated_and_prefix_replays(self, tmp_path):
        store = open_store(tmp_path)
        obs = store.collection("obs")
        for i in range(10):
            obs.insert_one({"n": i})
        store.journal.close()
        self._truncate_tail(tmp_path, drop_bytes=7)
        store = open_store(tmp_path)
        stats = store.journal.recovery_stats
        assert stats["torn_segments"] == 1
        # only the torn final record is lost; every earlier insert kept
        assert store["obs"].count() == 9
        # appends resume in a *fresh* segment, never the truncated file
        assert store.durability_info()["active_segment"] > 1

    def test_records_after_tear_are_discarded(self, tmp_path):
        store = open_store(tmp_path)
        obs = store.collection("obs")
        for i in range(6):
            obs.insert_one({"n": i})
        store.journal.close()
        path = self._truncate_tail(tmp_path, drop_bytes=0)
        lines = path.read_bytes().splitlines(keepends=True)
        # corrupt a middle record: everything after it must not replay
        lines[3] = b"deadbeef " + lines[3][9:]
        path.write_bytes(b"".join(lines))
        store = open_store(tmp_path)
        assert store["obs"].count() == 2  # records before the tear only
        assert store.journal.recovery_stats["torn_segments"] == 1

    def test_segments_after_torn_one_are_deleted(self, tmp_path):
        store = open_store(tmp_path, segment_max_bytes=4096)
        obs = store.collection("obs")
        for i in range(60):
            obs.insert_one({"n": i, "pad": "z" * 300})
        store.journal.close()
        segments = sorted(tmp_path.glob("wal-*.log"))
        assert len(segments) >= 3
        first = segments[0]
        data = first.read_bytes()
        first.write_bytes(data[: len(data) // 2])
        store = open_store(tmp_path)
        # nothing beyond the tear in segment 1 survived: later segments
        # were deleted and only the torn one replayed (its good prefix)
        assert store.journal.recovery_stats["segments_replayed"] == 1
        count = store["obs"].count()
        assert 0 < count < 60
        # the reused sequence number opened as a fresh, header-only segment
        _, records, torn = _read_segment(_segment_path(tmp_path, 2))
        assert not torn
        assert [r["op"] for r in records] == ["seg"]

    def test_stray_tmp_files_removed_on_recovery(self, tmp_path):
        store = open_store(tmp_path)
        store.collection("obs").insert_one({"n": 1})
        store.journal.close()
        (tmp_path / "snapshot.jsonl.new").write_text("half a checkpoint")
        (tmp_path / "snapshot.jsonl.abc123.tmp").write_text("half a dump")
        store = open_store(tmp_path)
        assert store["obs"].count() == 1
        leftovers = {p.name for p in tmp_path.iterdir()}
        assert "snapshot.jsonl.new" not in leftovers
        assert not any(name.endswith(".tmp") for name in leftovers)


class TestDurabilityInfo:
    def test_in_memory_store_reports_disabled(self):
        assert DocumentStore().durability_info() == {"enabled": False}

    def test_durable_store_reports_journal_health(self, tmp_path):
        store = open_store(tmp_path)
        store.collection("obs").insert_one({"n": 1})
        info = store.durability_info()
        assert info["enabled"] is True
        assert info["dir"] == str(tmp_path)
        assert info["sync_policy"] == "always"
        assert info["appends"] >= 1
        assert info["recovery"]["snapshot_loaded"] is False

    def test_segment_header_names_store(self, tmp_path):
        store = open_store(tmp_path)
        store.journal.close()
        _, records, _ = _read_segment(_segment_path(tmp_path, 1))
        assert records[0]["op"] == "seg"
        assert records[0]["store"] == "goflow"
