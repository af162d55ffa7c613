"""MaterializedAnalytics: pulled tails, rebuilds, degrade.

The view is built by its first reader and then, at each read, folds the
documents inserted since its marker (``Collection.inserted_since``).
Nothing notifies it of a write, so these tests only insert and read.
"""

import pytest

from repro.core.datamgmt import DataManager
from repro.core.materialized import MaterializedAnalytics
from repro.core.privacy import PrivacyPolicy
from repro.docstore.collection import Collection
from repro.docstore.columnar import numpy_available
from repro.docstore.store import DocumentStore


def _obs(model, contributor, taken_at, provider=None, location=None):
    doc = {"model": model, "contributor": contributor, "taken_at": taken_at}
    if provider is not None:
        doc["location"] = {"provider": provider, "accuracy_m": 5.0}
    elif location is not None:
        doc["location"] = location
    return doc


@pytest.fixture
def collection():
    return Collection("observations")


class TestIncrementalFold:
    def test_counts_follow_observed_inserts(self, collection):
        view = MaterializedAnalytics(collection)
        assert view.totals() == {"total": 0, "localized": 0}  # built
        for doc in [
            _obs("A", "p1", 100.0, provider="gps"),
            _obs("A", "p2", 86400.0 + 5.0),
            _obs("B", "p1", 200.0, provider="network"),
        ]:
            collection.insert_one(doc)
        assert view.totals() == {"total": 3, "localized": 2}
        assert view.day_counts() == [
            {"_id": 0, "count": 2},
            {"_id": 1, "count": 1},
        ]
        assert view.provider_counts() == [
            {"_id": "gps", "count": 1},
            {"_id": "network", "count": 1},
        ]
        rows = {row["_id"]: row for row in view.per_model_groups()}
        assert rows["A"] == {
            "_id": "A", "measurements": 2, "devices": 2, "localized": 1
        }
        assert view.info()["incremental_updates"] == 3
        assert view.info()["fresh"] is True

    def test_observe_stays_incremental_without_rebuilds(self, collection):
        view = MaterializedAnalytics(collection)
        view.totals()
        baseline = view.rebuilds
        for i in range(20):
            collection.insert_one(_obs("A", f"p{i % 3}", float(i)))
            if i % 4 == 0:
                assert view.totals()["total"] == i + 1
        assert view.totals()["total"] == 20
        assert view.rebuilds == baseline
        assert view.info()["incremental_updates"] == 20

    def test_first_reader_builds_the_view(self, collection):
        view = MaterializedAnalytics(collection)
        collection.insert_many([_obs("A", "p1", 0.0), _obs("B", "p2", 1.0)])
        assert view.rebuilds == 0
        assert view.info()["fresh"] is False  # unbuilt
        assert view.totals() == {"total": 2, "localized": 0}
        assert view.rebuilds == 1
        assert view.info()["incremental_updates"] == 0
        assert view.info()["fresh"] is True

    def test_empty_location_counts_present_but_not_localized_per_model(
        self, collection
    ):
        # {"$exists": True} vs $ifNull-truthiness: an empty location dict
        # is "localized" for totals but not for the per-model column.
        view = MaterializedAnalytics(collection)
        view.totals()
        collection.insert_one(_obs("A", "p1", 0.0, location={}))
        assert view.totals() == {"total": 1, "localized": 1}
        assert view.per_model_groups()[0]["localized"] == 0
        assert view.provider_counts() == [{"_id": None, "count": 1}]


class TestInvalidation:
    def test_insert_after_a_read_is_folded_as_a_tail(self, collection):
        view = MaterializedAnalytics(collection)
        assert view.totals() == {"total": 0, "localized": 0}
        rebuilds = view.rebuilds
        collection.insert_one(_obs("A", "p1", 0.0))
        assert view.info()["fresh"] is True  # only inserts moved it
        assert view.totals() == {"total": 1, "localized": 0}
        assert view.rebuilds == rebuilds
        assert view.info()["incremental_updates"] == 1

    def test_direct_inserts_between_reads_fold_once_in_order(self, collection):
        view = MaterializedAnalytics(collection)
        collection.insert_one(_obs("A", "p1", 0.0))
        view.totals()
        rebuilds = view.rebuilds
        collection.insert_one(_obs("C", "p3", 0.0))
        collection.insert_many([_obs("B", "p2", 86400.0), _obs("C", "p1", 1.0)])
        assert view.totals()["total"] == 4  # from the tail, not double-count
        assert view.rebuilds == rebuilds
        # group first-seen order is insertion order, as the pipeline's
        assert [row["_id"] for row in view.per_model_groups()] == ["A", "C", "B"]

    def test_delete_invalidates_and_rebuild_reflects_it(self, collection):
        view = MaterializedAnalytics(collection)
        view.totals()
        for i in range(4):
            collection.insert_one(_obs("A", "p1", float(i), provider="gps"))
        assert view.totals()["total"] == 4
        rebuilds = view.rebuilds
        collection.delete_many({"contributor": "p1"})
        assert view.info()["fresh"] is False
        assert view.totals() == {"total": 0, "localized": 0}
        assert view.provider_counts() == []
        assert view.rebuilds == rebuilds + 1
        assert view.info()["invalidations"] == 1

    def test_update_invalidates(self, collection):
        view = MaterializedAnalytics(collection)
        view.totals()
        collection.insert_one(_obs("A", "p1", 0.0))
        collection.update_one({"model": "A"}, {"$set": {"model": "B"}})
        assert [row["_id"] for row in view.per_model_groups()] == ["B"]

    def test_drop_rebuilds(self, collection):
        view = MaterializedAnalytics(collection)
        collection.insert_many([_obs("A", "p1", 0.0), _obs("B", "p2", 1.0)])
        assert view.totals()["total"] == 2
        collection.drop()
        assert view.info()["fresh"] is False
        assert view.totals() == {"total": 0, "localized": 0}
        collection.insert_one(_obs("C", "p3", 2.0))
        assert [row["_id"] for row in view.per_model_groups()] == ["C"]


class TestDegrade:
    def test_boolean_taken_at_degrades_day_counts_only(self, collection):
        view = MaterializedAnalytics(collection)
        view.totals()
        collection.insert_one(_obs("A", "p1", True))
        assert view.day_counts() is None
        assert view.totals() == {"total": 1, "localized": 0}
        assert view.per_model_groups() is not None
        assert view.info()["degraded"] is True

    def test_missing_taken_at_counts_as_day_zero(self, collection):
        view = MaterializedAnalytics(collection)
        view.totals()
        collection.insert_one({"model": "A", "contributor": "p1"})
        assert view.day_counts() == [{"_id": 0, "count": 1}]

    def test_rebuild_clears_degradation(self, collection):
        view = MaterializedAnalytics(collection)
        collection.insert_one(_obs("A", "p1", True))
        assert view.day_counts() is None
        collection.delete_many({"taken_at": True})
        assert view.day_counts() == []
        assert view.info()["degraded"] is False


class TestIngestFeedsNoView:
    """The write path calls into no view: reads pull what was inserted."""

    TOP_K = [
        {"$group": {"_id": "$model", "n": {"$sum": 1}}},
        {"$sort": {"n": -1}},
        {"$limit": 3},
    ]

    @staticmethod
    def _observation(seq):
        return {
            "user_id": f"user-{seq % 4}",
            "obs_id": f"obs:{seq}",
            "model": f"m{seq % 3}",
            "taken_at": float(seq),
            "noise_dba": 50.0 + seq % 7,
        }

    def test_ingest_folds_nothing_until_a_reader_pulls(self):
        data = DataManager(DocumentStore(), PrivacyPolicy())
        view = data.materialized
        mirror = data.collection._columnar
        # build both views, then write with no read in between
        assert view.totals() == {"total": 0, "localized": 0}
        data.collection.aggregate(self.TOP_K)
        rebuilds = view.rebuilds
        calls = 6
        for seq in range(calls):
            data.ingest_many("SC", [self._observation(seq)])
        assert view.info()["incremental_updates"] == 0
        assert mirror.appends == 0
        assert view.info()["fresh"] is True
        # the first read folds exactly the N ingested documents, once
        assert view.totals()["total"] == calls
        assert view.info()["incremental_updates"] == calls
        assert view.totals()["total"] == calls
        assert view.info()["incremental_updates"] == calls
        assert view.rebuilds == rebuilds
        if numpy_available():
            data.collection.aggregate(self.TOP_K)
            assert mirror.appends == calls
            assert mirror.rebuilds == 1

    def test_direct_insert_is_folded_as_a_tail(self):
        data = DataManager(DocumentStore(), PrivacyPolicy())
        view = data.materialized
        data.ingest_many("SC", [self._observation(seq) for seq in range(4)])
        assert view.totals()["total"] == 4
        rebuilds = view.rebuilds
        # a write that bypasses DataManager is still just an insert
        data.collection.insert_many([{"model": "m9", "taken_at": 9.0}] * 3)
        assert view.totals()["total"] == 7
        assert view.rebuilds == rebuilds
        assert view.info()["incremental_updates"] == 3
        assert view.info()["invalidations"] == 0
