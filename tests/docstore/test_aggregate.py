"""Aggregation-pipeline tests."""

import pytest

from repro.docstore.aggregate import aggregate
from repro.docstore.errors import QuerySyntaxError

DOCS = [
    {"_id": 1, "model": "A", "dba": 40.0, "hour": 9, "tags": ["x", "y"]},
    {"_id": 2, "model": "A", "dba": 60.0, "hour": 14, "tags": ["x"]},
    {"_id": 3, "model": "B", "dba": 50.0, "hour": 9, "tags": []},
    {"_id": 4, "model": "B", "dba": 70.0, "hour": 22, "tags": ["z"]},
    {"_id": 5, "model": "B", "dba": 55.0, "hour": 14},
]


class TestMatchSortLimit:
    def test_match(self):
        out = aggregate(DOCS, [{"$match": {"model": "A"}}])
        assert [d["_id"] for d in out] == [1, 2]

    def test_sort_desc(self):
        out = aggregate(DOCS, [{"$sort": {"dba": -1}}])
        assert [d["_id"] for d in out] == [4, 2, 5, 3, 1]

    def test_limit_and_skip(self):
        out = aggregate(DOCS, [{"$sort": {"_id": 1}}, {"$skip": 1}, {"$limit": 2}])
        assert [d["_id"] for d in out] == [2, 3]

    def test_count(self):
        out = aggregate(DOCS, [{"$match": {"model": "B"}}, {"$count": "n"}])
        assert out == [{"n": 3}]


class TestGroup:
    def test_group_sum_and_avg(self):
        out = aggregate(
            DOCS,
            [
                {
                    "$group": {
                        "_id": "$model",
                        "n": {"$sum": 1},
                        "mean": {"$avg": "$dba"},
                    }
                },
                {"$sort": {"_id": 1}},
            ],
        )
        assert out[0] == {"_id": "A", "n": 2, "mean": 50.0}
        assert out[1]["n"] == 3
        assert out[1]["mean"] == pytest.approx(58.333, abs=0.001)

    def test_group_min_max_first_last(self):
        out = aggregate(
            DOCS,
            [
                {
                    "$group": {
                        "_id": None,
                        "lo": {"$min": "$dba"},
                        "hi": {"$max": "$dba"},
                        "first": {"$first": "$model"},
                        "last": {"$last": "$model"},
                    }
                }
            ],
        )
        assert out == [{"_id": None, "lo": 40.0, "hi": 70.0, "first": "A", "last": "B"}]

    def test_group_push_and_add_to_set(self):
        out = aggregate(
            DOCS,
            [
                {
                    "$group": {
                        "_id": "$hour",
                        "models": {"$push": "$model"},
                        "distinct": {"$addToSet": "$model"},
                    }
                },
                {"$sort": {"_id": 1}},
            ],
        )
        nine = next(d for d in out if d["_id"] == 9)
        assert nine["models"] == ["A", "B"]
        assert nine["distinct"] == ["A", "B"]

    def test_group_by_expression(self):
        out = aggregate(
            DOCS,
            [
                {
                    "$group": {
                        "_id": {"$floor": {"$divide": ["$hour", 12]}},
                        "n": {"$sum": 1},
                    }
                },
                {"$sort": {"_id": 1}},
            ],
        )
        assert out == [{"_id": 0, "n": 2}, {"_id": 1, "n": 3}]

    def test_group_requires_id(self):
        with pytest.raises(QuerySyntaxError):
            aggregate(DOCS, [{"$group": {"n": {"$sum": 1}}}])

    def test_sum_of_field(self):
        out = aggregate(
            DOCS, [{"$group": {"_id": None, "total": {"$sum": "$dba"}}}]
        )
        assert out[0]["total"] == pytest.approx(275.0)


class TestProjectAddFields:
    def test_project_inclusion(self):
        out = aggregate(DOCS[:1], [{"$project": {"model": 1}}])
        assert out == [{"_id": 1, "model": "A"}]

    def test_project_exclusion(self):
        out = aggregate(DOCS[:1], [{"$project": {"tags": 0, "hour": 0}}])
        assert out == [{"_id": 1, "model": "A", "dba": 40.0}]

    def test_project_computed(self):
        out = aggregate(
            DOCS[:1],
            [{"$project": {"_id": 0, "louder": {"$add": ["$dba", 10]}}}],
        )
        assert out == [{"louder": 50.0}]

    def test_project_mixing_rejected(self):
        with pytest.raises(QuerySyntaxError):
            aggregate(DOCS, [{"$project": {"a": 1, "b": 0}}])

    def test_add_fields_keeps_document(self):
        out = aggregate(
            DOCS[:1], [{"$addFields": {"half": {"$divide": ["$dba", 2]}}}]
        )
        assert out[0]["half"] == 20.0
        assert out[0]["model"] == "A"


class TestUnwind:
    def test_unwind_expands(self):
        out = aggregate(DOCS, [{"$unwind": "$tags"}])
        assert [d["tags"] for d in out] == ["x", "y", "x", "z"]

    def test_unwind_drops_empty_by_default(self):
        out = aggregate(DOCS, [{"$unwind": "$tags"}])
        assert all("tags" in d for d in out)
        assert len(out) == 4

    def test_unwind_preserve_empty(self):
        out = aggregate(
            DOCS,
            [{"$unwind": {"path": "$tags", "preserveNullAndEmptyArrays": True}}],
        )
        assert len(out) == 6  # 4 expansions + doc 3 (empty) + doc 5 (missing)

    def test_unwind_requires_dollar_path(self):
        with pytest.raises(QuerySyntaxError):
            aggregate(DOCS, [{"$unwind": "tags"}])


class TestExpressions:
    def test_arithmetic(self):
        doc = [{"a": 10.0, "b": 4.0}]
        out = aggregate(
            doc,
            [
                {
                    "$project": {
                        "sum": {"$add": ["$a", "$b"]},
                        "diff": {"$subtract": ["$a", "$b"]},
                        "prod": {"$multiply": ["$a", "$b"]},
                        "quot": {"$divide": ["$a", "$b"]},
                        "mod": {"$mod": ["$a", "$b"]},
                        "abs": {"$abs": -3},
                    }
                }
            ],
        )
        assert out[0]["sum"] == 14.0
        assert out[0]["diff"] == 6.0
        assert out[0]["prod"] == 40.0
        assert out[0]["quot"] == 2.5
        assert out[0]["mod"] == 2.0
        assert out[0]["abs"] == 3

    def test_divide_by_zero_rejected(self):
        with pytest.raises(QuerySyntaxError):
            aggregate([{"a": 1}], [{"$project": {"x": {"$divide": ["$a", 0]}}}])

    def test_cond_and_ifnull(self):
        docs = [{"v": 5}, {"v": None}]
        out = aggregate(
            docs,
            [
                {
                    "$project": {
                        "flag": {"$cond": [{"$ifNull": ["$v", False]}, "yes", "no"]},
                    }
                }
            ],
        )
        assert [d["flag"] for d in out] == ["yes", "no"]

    def test_concat_and_size(self):
        out = aggregate(
            [{"a": "x", "tags": [1, 2, 3]}],
            [
                {
                    "$project": {
                        "joined": {"$concat": ["$a", "-suffix"]},
                        "n": {"$size": "$tags"},
                    }
                }
            ],
        )
        assert out[0]["joined"] == "x-suffix"
        assert out[0]["n"] == 3

    def test_is_number_matches_mongodb_semantics(self):
        from repro.docstore.naive import naive_aggregate

        docs = [{"v": 1}, {"v": 2.5}, {"v": True}, {"v": None}, {}, {"v": "1"}, {"v": [1]}]
        pipeline = [
            {
                "$project": {
                    "_id": 0,
                    "bare": {"$isNumber": "$v"},
                    "listed": {"$isNumber": ["$v"]},
                }
            }
        ]
        expected = [True, True, False, False, False, False, False]
        for engine in (aggregate, naive_aggregate):
            out = engine(docs, pipeline)
            assert [row["bare"] for row in out] == expected
            assert [row["listed"] for row in out] == expected
        with pytest.raises(QuerySyntaxError):
            aggregate(docs, [{"$project": {"x": {"$isNumber": ["$v", "$v"]}}}])

    def test_unknown_stage_rejected(self):
        with pytest.raises(QuerySyntaxError):
            aggregate(DOCS, [{"$teleport": {}}])


class TestCompiledExecutorRegressions:
    """Regressions fixed alongside the compiled streaming executor."""

    def test_equal_dicts_group_together_regardless_of_key_order(self):
        # repr({"a":1,"b":2}) != repr({"b":2,"a":1}) — the old repr-based
        # group key split equal composite ids into separate groups.
        docs = [
            {"k": {"a": 1, "b": 2}},
            {"k": {"b": 2, "a": 1}},
        ]
        out = aggregate(docs, [{"$group": {"_id": "$k", "n": {"$sum": 1}}}])
        assert len(out) == 1
        assert out[0]["n"] == 2

    def test_bool_and_int_group_ids_stay_distinct(self):
        docs = [{"k": True}, {"k": 1}, {"k": False}, {"k": 0}]
        out = aggregate(docs, [{"$group": {"_id": "$k", "n": {"$sum": 1}}}])
        assert len(out) == 4

    def test_add_to_set_unhashable_values_first_seen_order(self):
        docs = [
            {"v": {"p": 1}},
            {"v": "s"},
            {"v": {"p": 2}},
            {"v": {"p": 1}},
            {"v": "s"},
        ]
        out = aggregate(
            docs, [{"$group": {"_id": None, "vals": {"$addToSet": "$v"}}}]
        )
        assert out[0]["vals"] == [{"p": 1}, "s", {"p": 2}]

    def test_fused_sort_limit_matches_sort_then_limit(self):
        docs = [
            {"a": i % 7, "b": -(i % 3), "i": i} for i in range(50)
        ]
        fused = aggregate(docs, [{"$sort": {"a": 1, "b": -1}}, {"$limit": 9}])
        unfused = aggregate(docs, [{"$sort": {"a": 1, "b": -1}}])[:9]
        assert fused == unfused

    def test_fused_sort_limit_is_stable_on_ties(self):
        docs = [{"a": 1, "i": i} for i in range(10)]
        out = aggregate(docs, [{"$sort": {"a": 1}}, {"$limit": 4}])
        assert [d["i"] for d in out] == [0, 1, 2, 3]

    def test_sort_limit_zero(self):
        assert aggregate(DOCS, [{"$sort": {"dba": 1}}, {"$limit": 0}]) == []

    def test_results_are_decoupled_from_inputs(self):
        docs = [{"_id": 1, "nested": {"x": [1, 2]}}]
        out = aggregate(docs, [{"$match": {}}])
        out[0]["nested"]["x"].append(3)
        assert docs[0]["nested"]["x"] == [1, 2]
