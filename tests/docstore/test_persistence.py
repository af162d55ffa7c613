"""Snapshot persistence tests."""

import pytest

from repro.docstore.errors import DocStoreError, DuplicateKeyError
from repro.docstore.persistence import dump_store, load_store
from repro.docstore.store import DocumentStore


@pytest.fixture
def store():
    store = DocumentStore(name="goflow")
    observations = store.collection("observations")
    observations.create_index("model", kind="hash")
    observations.create_index("taken_at", kind="sorted")
    observations.insert_many(
        [
            {"model": "A0001", "taken_at": 1.0, "noise_dba": 55.0,
             "location": {"x_m": 1.0, "y_m": 2.0}},
            {"model": "NEXUS 5", "taken_at": 2.0, "noise_dba": 60.0},
        ]
    )
    accounts = store.collection("accounts")
    accounts.create_index("key", kind="hash", unique=True)
    accounts.insert_one({"key": "SC/alice", "role": "contributor"})
    return store


class TestRoundTrip:
    def test_documents_survive(self, store, tmp_path):
        path = tmp_path / "snapshot.jsonl"
        written = dump_store(store, path)
        assert written == 3
        loaded = load_store(path)
        assert loaded.name == "goflow"
        assert loaded["observations"].count() == 2
        assert loaded["accounts"].count() == 1
        doc = loaded["observations"].find_one({"model": "A0001"})
        assert doc["location"] == {"x_m": 1.0, "y_m": 2.0}

    def test_indexes_rebuilt(self, store, tmp_path):
        path = tmp_path / "snapshot.jsonl"
        dump_store(store, path)
        loaded = load_store(path)
        observations = loaded["observations"]
        assert set(observations.index_paths()) == {"model", "taken_at"}
        observations.find({"model": "A0001"}).count()
        assert observations.stats.index_hits >= 1

    def test_unique_constraints_rebuilt(self, store, tmp_path):
        path = tmp_path / "snapshot.jsonl"
        dump_store(store, path)
        loaded = load_store(path)
        with pytest.raises(DuplicateKeyError):
            loaded["accounts"].insert_one({"key": "SC/alice"})

    def test_ids_preserved(self, store, tmp_path):
        original_ids = {d["_id"] for d in store["observations"].find({})}
        path = tmp_path / "snapshot.jsonl"
        dump_store(store, path)
        loaded = load_store(path)
        assert {d["_id"] for d in loaded["observations"].find({})} == original_ids

    def test_empty_collections_survive_as_declarations(self, tmp_path):
        store = DocumentStore()
        store.collection("empty").create_index("x", kind="hash")
        path = tmp_path / "snapshot.jsonl"
        dump_store(store, path)
        loaded = load_store(path)
        assert loaded.has_collection("empty")
        assert loaded["empty"].index_paths() == ["x"]


class TestErrors:
    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DocStoreError):
            load_store(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(DocStoreError):
            load_store(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "headless.jsonl"
        path.write_text('{"type": "doc", "collection": "c", "doc": {}}\n')
        with pytest.raises(DocStoreError):
            load_store(path)

    def test_unknown_record_type_rejected(self, tmp_path):
        path = tmp_path / "odd.jsonl"
        path.write_text(
            '{"type": "store", "name": "s", "version": 1}\n'
            '{"type": "mystery"}\n'
        )
        with pytest.raises(DocStoreError):
            load_store(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text('{"type": "store", "name": "s", "version": 99}\n')
        with pytest.raises(DocStoreError):
            load_store(path)

    def test_unserializable_document_rejected(self, tmp_path):
        store = DocumentStore()
        store["c"].insert_one({"f": object()})
        with pytest.raises(DocStoreError):
            dump_store(store, tmp_path / "x.jsonl")


class TestEndToEnd:
    def test_campaign_store_round_trips(self, small_campaign, tmp_path):
        path = tmp_path / "campaign.jsonl"
        written = dump_store(small_campaign.server.store, path)
        assert written > 0
        loaded = load_store(path)
        original = small_campaign.server.data.collection.count()
        assert loaded["observations"].count() == original


class TestAtomicReplace:
    """A crash mid-dump must never destroy the previous snapshot."""

    def test_failed_dump_leaves_old_snapshot_intact(self, store, tmp_path):
        path = tmp_path / "snapshot.jsonl"
        written = dump_store(store, path)
        before = path.read_text()
        # second dump crashes midway: an unserializable doc raises
        # after several lines were already written to the temp file
        store["observations"].insert_one({"bad": object()})
        with pytest.raises(DocStoreError):
            dump_store(store, path)
        assert path.read_text() == before
        assert load_store(path)["observations"].count() == written - 1
        # and the aborted temp file did not leak
        assert [p.name for p in tmp_path.iterdir()] == ["snapshot.jsonl"]

    def test_fresh_dump_failure_leaves_no_target(self, tmp_path):
        store = DocumentStore()
        store["c"].insert_one({"f": object()})
        path = tmp_path / "snapshot.jsonl"
        with pytest.raises(DocStoreError):
            dump_store(store, path)
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_dump_replaces_previous_snapshot(self, store, tmp_path):
        path = tmp_path / "snapshot.jsonl"
        dump_store(store, path)
        store["observations"].insert_one({"model": "EXTRA", "taken_at": 9.0})
        dump_store(store, path)
        assert load_store(path)["observations"].count() == 3


class TestCorruption:
    def test_truncated_tail_line_rejected(self, store, tmp_path):
        path = tmp_path / "snapshot.jsonl"
        dump_store(store, path)
        data = path.read_text()
        path.write_text(data[: len(data) - 17])  # chop into the last record
        with pytest.raises(DocStoreError):
            load_store(path)

    def test_corrupt_middle_line_rejected(self, store, tmp_path):
        path = tmp_path / "snapshot.jsonl"
        dump_store(store, path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2][:-4] + '!!!'
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DocStoreError):
            load_store(path)


class TestLoadFastPath:
    def test_loaded_store_accepts_new_auto_ids(self, store, tmp_path):
        """Replayed integer _ids must advance the id counter.

        Before the durability work, a loaded store restarted its id
        counter at 1 and the next auto-id insert collided with a
        restored document.
        """
        path = tmp_path / "snapshot.jsonl"
        dump_store(store, path)
        loaded = load_store(path)
        new_id = loaded["observations"].insert_one({"model": "FRESH"})
        ids = [d["_id"] for d in loaded["observations"].find({})]
        assert len(ids) == len(set(ids))
        assert new_id == max(i for i in ids if isinstance(i, int))

    def test_large_restore_batches_inserts(self, tmp_path):
        store = DocumentStore()
        coll = store.collection("obs")
        coll.insert_many([{"n": i} for i in range(500)])
        path = tmp_path / "big.jsonl"
        dump_store(store, path)
        loaded = load_store(path)
        restored = loaded["obs"]
        assert restored.count() == 500
        assert restored.stats_snapshot().inserts == 500
        assert {d["n"] for d in restored.find({})} == set(range(500))


class TestStateRecords:
    def test_state_round_trips(self, store, tmp_path):
        from repro.docstore.persistence import load_snapshot

        path = tmp_path / "snapshot.jsonl"
        dump_store(store, path, state={"_wal": {"lsn": 41}}, wal_start=7)
        loaded, state, wal_start = load_snapshot(path)
        assert state == {"_wal": {"lsn": 41}}
        assert wal_start == 7
        assert loaded["observations"].count() == 2

    def test_plain_snapshot_defaults(self, store, tmp_path):
        from repro.docstore.persistence import load_snapshot

        path = tmp_path / "snapshot.jsonl"
        dump_store(store, path)
        _, state, wal_start = load_snapshot(path)
        assert state == {}
        assert wal_start == 1


# -- property-based round trip ------------------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st

FIELD_NAMES = st.sampled_from(
    ["model", "noise_dba", "taken_at", "label", "текст", "場所", "naïve"]
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=12),  # exercises unicode payloads
)
VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(FIELD_NAMES, children, max_size=3),
    ),
    max_leaves=8,
)
DOCUMENTS = st.dictionaries(FIELD_NAMES, VALUES, max_size=4)
INDEX_KINDS = st.sampled_from([("hash", False), ("hash", True), ("sorted", False)])


class TestRoundTripProperty:
    @settings(max_examples=40, deadline=None)
    @given(docs=st.lists(DOCUMENTS, max_size=12), index=INDEX_KINDS)
    def test_dump_load_preserves_everything(self, docs, index, tmp_path_factory):
        kind, unique = index
        store = DocumentStore(name="prop")
        coll = store.collection("observations")
        # a unique index over always-distinct values so inserts never clash
        coll.create_index("uniq" if unique else "model", kind=kind, unique=unique)
        for position, doc in enumerate(docs):
            coll.insert_one(dict(doc, uniq=position))

        path = tmp_path_factory.mktemp("prop") / "snapshot.jsonl"
        dump_store(store, path)
        loaded = load_store(path)
        restored = loaded["observations"]

        original = {d["_id"]: d for d in coll.find({})}
        replayed = {d["_id"]: d for d in restored.find({})}
        assert replayed == original  # documents and _ids survive exactly

        assert restored.index_specs() == coll.index_specs()
        if unique and docs:
            with pytest.raises(DuplicateKeyError):
                restored.insert_one({"uniq": 0})
