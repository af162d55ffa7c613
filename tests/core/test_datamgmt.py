"""Crowd-sensed data-management tests."""

import json

import pytest

from repro.core.datamgmt import DataManager, DataQuery
from repro.core.errors import ValidationError
from repro.core.privacy import PrivacyPolicy
from repro.docstore.store import DocumentStore


@pytest.fixture
def manager():
    policy = PrivacyPolicy(salt="t")
    policy.set_private_fields("SC", ["activity"])
    manager = DataManager(DocumentStore(), policy)
    docs = [
        {
            "user_id": "alice",
            "model": "A0001",
            "taken_at": 100.0,
            "mode": "opportunistic",
            "noise_dba": 55.0,
            "activity": {"label": "still"},
            "location": {"provider": "gps", "accuracy_m": 10.0, "x_m": 5.0, "y_m": 5.0},
        },
        {
            "user_id": "alice",
            "model": "A0001",
            "taken_at": 200.0,
            "mode": "manual",
            "noise_dba": 60.0,
            "activity": {"label": "foot"},
        },
        {
            "user_id": "bob",
            "model": "NEXUS 5",
            "taken_at": 300.0,
            "mode": "opportunistic",
            "noise_dba": 45.0,
            "activity": {"label": "still"},
            "location": {"provider": "network", "accuracy_m": 40.0, "x_m": 9.0, "y_m": 9.0},
        },
    ]
    for doc in docs:
        manager.ingest("SC", doc)
    return manager


class TestDedupLedger:
    def _manager(self):
        return DataManager(DocumentStore(), PrivacyPolicy(salt="t"))

    def test_duplicate_obs_id_skipped(self):
        manager = self._manager()
        doc = {"user_id": "u", "obs_id": "u:1", "taken_at": 1.0}
        assert manager.ingest("SC", doc) is not None
        assert manager.ingest("SC", dict(doc)) is None
        assert manager.collection.count({}) == 1
        assert manager.dedup_hits == 1
        assert manager.dedup_info()["size"] == 1

    def test_failed_insert_does_not_poison_ledger(self, monkeypatch):
        manager = self._manager()
        original = manager.collection.insert_many
        failures = ["store briefly down"]

        def flaky_insert(documents, **kwargs):
            if failures:
                raise RuntimeError(failures.pop())
            return original(documents, **kwargs)

        monkeypatch.setattr(manager.collection, "insert_many", flaky_insert)
        doc = {"user_id": "u", "obs_id": "u:1", "taken_at": 1.0}
        with pytest.raises(RuntimeError):
            manager.ingest("SC", doc)
        # the ledger must not remember an id that was never stored: the
        # client's at-least-once retry is a fresh ingest, not a dup
        assert manager.dedup_info()["size"] == 0
        assert manager.ingest("SC", dict(doc)) is not None
        assert manager.dedup_hits == 0
        assert manager.ingested == 1
        assert manager.collection.count({}) == 1


class TestIngest:
    def test_pseudonymized_at_rest(self, manager):
        stored = manager.collection.find_one({})
        assert "user_id" not in stored
        assert stored["contributor"].startswith("p")

    def test_app_id_attached(self, manager):
        assert manager.collection.count({"app_id": "SC"}) == 3

    def test_non_dict_rejected(self, manager):
        with pytest.raises(ValidationError):
            manager.ingest("SC", "not-a-doc")

    def test_right_to_erasure(self, manager):
        assert manager.delete_contributor_data("SC", "alice") == 2
        assert manager.collection.count() == 1


class TestQueries:
    def test_time_window(self, manager):
        assert manager.count(DataQuery(since=150.0, until=250.0)) == 1

    def test_by_model(self, manager):
        assert manager.count(DataQuery(model="A0001")) == 2

    def test_by_mode(self, manager):
        assert manager.count(DataQuery(mode="manual")) == 1

    def test_by_provider(self, manager):
        assert manager.count(DataQuery(provider="gps")) == 1

    def test_by_accuracy(self, manager):
        assert manager.count(DataQuery(max_accuracy_m=20.0)) == 1

    def test_localized_only(self, manager):
        assert manager.count(DataQuery(localized_only=True)) == 2

    def test_by_contributor(self, manager):
        policy = PrivacyPolicy(salt="t")
        pseudonym = policy.pseudonym("alice")
        assert manager.count(DataQuery(contributor=pseudonym)) == 2

    def test_retrieve_newest_first(self, manager):
        docs = manager.retrieve(DataQuery())
        taken = [d["taken_at"] for d in docs]
        assert taken == sorted(taken, reverse=True)

    def test_retrieve_limit(self, manager):
        assert len(manager.retrieve(DataQuery(), limit=2)) == 2


class TestSharingAndPackaging:
    def test_cross_app_retrieval_strips_private_fields(self, manager):
        docs = manager.retrieve(DataQuery(app_id="SC"), share_with_app="OtherApp")
        assert all("activity" not in d for d in docs)

    def test_same_app_keeps_private_fields(self, manager):
        docs = manager.retrieve(DataQuery(app_id="SC"), share_with_app="SC")
        assert all("activity" in d for d in docs)

    def test_json_stream_is_valid_json_lines(self, manager):
        lines = list(manager.as_json_stream(DataQuery()))
        assert len(lines) == 3
        for line in lines:
            parsed = json.loads(line)
            assert "noise_dba" in parsed

    def test_as_file_joins_lines(self, manager):
        content = manager.as_file(DataQuery(model="A0001"))
        assert len(content.splitlines()) == 2

    def test_open_data_coarsened_and_anonymous(self, manager):
        exported = manager.as_open_data("SC", DataQuery(localized_only=True))
        for doc in exported:
            assert "contributor" not in doc
            assert "activity" not in doc  # private field stripped
            assert doc["location"]["x_m"] % 500.0 == 0.0
