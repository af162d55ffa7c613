"""Leading-``$match`` index pushdown in ``Collection.aggregate``."""

import pytest

from repro.docstore.collection import AggregationResult, Collection
from repro.docstore.naive import naive_aggregate


@pytest.fixture
def collection():
    coll = Collection("observations")
    coll.create_index("model", kind="hash")
    coll.create_index("taken_at", kind="sorted")
    for i in range(40):
        coll.insert_one(
            {
                "model": "A" if i % 4 == 0 else "B",
                "taken_at": float(i),
                "dba": 40.0 + i,
            }
        )
    return coll


GROUP = {"$group": {"_id": "$model", "n": {"$sum": 1}, "mean": {"$avg": "$dba"}}}


class TestPushdown:
    def test_leading_match_on_indexed_field_reports_index(self, collection):
        rows = collection.aggregate([{"$match": {"model": "A"}}, GROUP])
        assert isinstance(rows, AggregationResult)
        assert rows.explain["strategy"] == "index"
        assert rows.explain["pushdown"] is True
        assert rows.explain["candidates"] == 10
        assert rows.explain["examined_share"] == pytest.approx(0.25)
        assert rows == [{"_id": "A", "n": 10, "mean": pytest.approx(58.0)}]

    def test_leading_range_match_uses_sorted_index(self, collection):
        rows = collection.aggregate(
            [{"$match": {"taken_at": {"$gte": 30.0}}}, {"$count": "n"}]
        )
        assert rows.explain["strategy"] == "index"
        assert rows == [{"n": 10}]

    def test_unindexed_leading_match_reports_scan(self, collection):
        rows = collection.aggregate([{"$match": {"dba": {"$gte": 70.0}}}, GROUP])
        assert rows.explain["strategy"] == "scan"
        assert rows.explain["pushdown"] is False
        assert sum(r["n"] for r in rows) == 10

    def test_pipeline_without_leading_match_reports_scan(self, collection):
        rows = collection.aggregate([GROUP])
        assert rows.explain["strategy"] == "scan"
        assert sum(r["n"] for r in rows) == 40

    def test_non_leading_match_is_not_pushed_down(self, collection):
        rows = collection.aggregate(
            [{"$sort": {"taken_at": 1}}, {"$match": {"model": "A"}}]
        )
        assert rows.explain["strategy"] == "scan"
        assert len(rows) == 10

    def test_pushdown_result_matches_scan_result(self, collection):
        pipeline = [
            {"$match": {"model": "B"}},
            {"$group": {"_id": "$model", "total": {"$sum": "$dba"}}},
        ]
        indexed = collection.aggregate(pipeline)
        collection.drop_index("model")
        scanned = collection.aggregate(pipeline)
        assert indexed.explain["strategy"] == "index"
        assert scanned.explain["strategy"] == "scan"
        assert list(indexed) == list(scanned)

    def test_pushdown_counts_an_index_hit(self, collection):
        before = collection.stats.index_hits
        collection.aggregate([{"$match": {"model": "A"}}, {"$count": "n"}])
        assert collection.stats.index_hits == before + 1

    def test_explain_contract_on_index_path(self, collection):
        """All four explain fields, fully populated on the index path."""
        rows = collection.aggregate([{"$match": {"model": "B"}}, {"$count": "n"}])
        assert set(rows.explain) == {
            "strategy",
            "pushdown",
            "candidates",
            "examined_share",
        }
        assert rows.explain["strategy"] == "index"
        assert rows.explain["pushdown"] is True
        assert rows.explain["candidates"] == 30
        assert rows.explain["examined_share"] == pytest.approx(0.75)

    def test_explain_contract_on_scan_path(self, collection):
        """Same four fields on the scan path, with the null sentinels."""
        rows = collection.aggregate([{"$match": {"dba": 41.0}}, {"$count": "n"}])
        assert set(rows.explain) == {
            "strategy",
            "pushdown",
            "candidates",
            "examined_share",
        }
        assert rows.explain["strategy"] == "scan"
        assert rows.explain["pushdown"] is False
        assert rows.explain["candidates"] is None
        assert rows.explain["examined_share"] is None

    def test_explain_with_zero_candidates_still_reports_index(self, collection):
        rows = collection.aggregate([{"$match": {"model": "Z"}}, {"$count": "n"}])
        assert rows.explain["strategy"] == "index"
        assert rows.explain["pushdown"] is True
        assert rows.explain["candidates"] == 0
        assert rows.explain["examined_share"] == 0.0
        assert rows == [{"n": 0}]

    def test_pushdown_feeds_candidates_in_id_order(self):
        """Order-sensitive accumulators see the scan's order on the index
        path too: ids 10..12 come after 9, not after 1 as in str order."""
        coll = Collection("observations")
        coll.create_index("model", kind="hash")
        coll.insert_many([{"model": "X", "tag": f"t{i}"} for i in range(12)])
        pipeline = [
            {"$match": {"model": "X"}},
            {
                "$group": {
                    "_id": "$model",
                    "last": {"$last": "$tag"},
                    "tags": {"$push": "$tag"},
                }
            },
        ]
        rows = coll.aggregate(pipeline)
        assert rows.explain["strategy"] == "index"
        tags = [f"t{i}" for i in range(12)]
        assert list(rows) == [{"_id": "X", "last": "t11", "tags": tags}]
        assert list(rows) == naive_aggregate(coll.iter_documents(), pipeline)

    def test_verification_still_applies_residual_predicates(self, collection):
        # planner narrows on the indexed field; the non-indexed part of
        # the same $match must still filter the candidates.
        rows = collection.aggregate(
            [
                {"$match": {"model": "A", "dba": {"$gte": 60.0}}},
                {"$count": "n"},
            ]
        )
        assert rows.explain["strategy"] == "index"
        assert rows == [{"n": 5}]
