"""Unit tests for the columnar mirror and its kernels.

The row-exactness guarantee is held by the property oracle
(``tests/property/test_aggregate_oracle.py``); these tests pin the
*contract* around it: when the kernels run, when and why they decline,
how the mirror tracks collection writes, and that everything degrades
to the row engines when numpy is missing.
"""

import math
import threading

import pytest

from repro.docstore import columnar
from repro.docstore.aggregate import aggregate
from repro.docstore.collection import Collection
from repro.docstore.columnar import ColumnarMirror, _Column, numpy_available
from repro.docstore.errors import DocStoreError
from repro.docstore.naive import naive_aggregate

needs_numpy = pytest.mark.skipif(not numpy_available(), reason="numpy unavailable")

GROUP_PIPELINE = [
    {
        "$group": {
            "_id": "$model",
            "n": {"$count": {}},
            "avg": {"$avg": "$noise_dba"},
            "localized": {"$sum": {"$cond": [{"$ifNull": ["$location", False]}, 1, 0]}},
        }
    }
]


def _docs(count=40):
    return [
        {
            "model": f"m{i % 4}",
            "noise_dba": 40.0 + i,
            "taken_at": float(i),
            "location": {"provider": "gps"} if i % 3 else None,
        }
        for i in range(count)
    ]


def _mirrored(docs=None):
    collection = Collection("c")
    collection.enable_columnar(["model", "noise_dba", "taken_at", "location"])
    if docs is None:
        docs = _docs()
    collection.insert_many(docs)
    return collection


def _check(collection, pipeline):
    snapshot = collection.iter_documents()
    result = collection.aggregate(pipeline)
    assert list(result) == aggregate(snapshot, pipeline)
    assert list(result) == naive_aggregate(snapshot, pipeline)
    return result


class TestConfiguration:
    def test_rejects_empty_and_bogus_fields(self):
        collection = Collection("c")
        with pytest.raises(DocStoreError):
            collection.enable_columnar([])
        with pytest.raises(DocStoreError):
            collection.enable_columnar(["$bad"])
        with pytest.raises(DocStoreError):
            collection.enable_columnar([""])

    @needs_numpy
    def test_id_is_mirrored_but_never_vectorized(self):
        collection = Collection("c")
        collection.create_index("model", kind="hash")
        mirror = collection.enable_columnar(["_id", "model"])
        assert mirror.fields == ("_id", "model")
        collection.insert_many(_docs(10))
        # the scatter's first-seen marker is kernel-covered ...
        marker = _check(
            collection, [{"$group": {"_id": "$model", "first": {"$min": "$_id"}}}]
        )
        assert marker.explain["strategy"] == "columnar"
        assert [row["first"] for row in marker] == [1, 2, 3, 4]
        # ... but a $match on _id stays with the planner's id step
        for match in ({"_id": 3}, {"_id": 3, "model": "m2"}):
            result = _check(collection, [{"$match": match}, {"$count": "n"}])
            assert result.explain["strategy"] == "index"
            assert "_id" in result.explain["columnar"]["reason"]

    def test_info_without_mirror(self):
        collection = Collection("c")
        info = collection.columnar_info()
        assert info["enabled"] is False
        assert info["reason"] == "no mirror attached"


@needs_numpy
class TestKernelDispatch:
    def test_group_kernel_covers_figure_query(self):
        collection = _mirrored()
        result = _check(collection, GROUP_PIPELINE)
        assert result.explain["strategy"] == "columnar"
        detail = result.explain["columnar"]
        assert detail["covered"] is True
        assert detail["kernel"] == "group"
        assert detail["rows"] == len(collection)

    def test_sort_and_match_kernels(self):
        collection = _mirrored()
        sort_result = _check(
            collection,
            [{"$match": {"model": "m1"}}, {"$sort": {"noise_dba": -1}}, {"$limit": 5}],
        )
        assert sort_result.explain["columnar"]["kernel"] == "sort"
        count_result = _check(
            collection, [{"$match": {"taken_at": {"$gte": 10.0}}}, {"$count": "rows"}]
        )
        assert count_result.explain["columnar"]["kernel"] == "match"
        assert count_result.explain["candidates"] == 30

    def test_structural_fallback_states_reason(self):
        collection = _mirrored()
        result = _check(collection, [{"$project": {"model": 1}}])
        assert result.explain["strategy"] != "columnar"
        detail = result.explain["columnar"]
        assert detail["covered"] is False
        assert detail["reason"]

    def test_unmirrored_field_falls_back(self):
        collection = _mirrored()
        result = _check(
            collection,
            [{"$match": {"nope": 1}}, {"$group": {"_id": "$model", "n": {"$sum": 1}}}],
        )
        assert result.explain["strategy"] != "columnar"
        assert "not mirrored" in result.explain["columnar"]["reason"]

    def test_nan_column_declines_numeric_kernel(self):
        collection = _mirrored(_docs(10) + [{"model": "m0", "noise_dba": float("nan")}])
        result = collection.aggregate(
            [{"$group": {"_id": "$model", "avg": {"$avg": "$noise_dba"}}}]
        )
        assert result.explain["strategy"] != "columnar"
        assert "float64-exact" in result.explain["columnar"]["reason"]

    def test_mixed_type_sort_declines(self):
        collection = _mirrored(_docs(5) + [{"model": "m0", "taken_at": [1, 2]}])
        result = _check(collection, [{"$sort": {"taken_at": 1}}, {"$limit": 3}])
        assert result.explain["strategy"] != "columnar"
        assert "orderable" in result.explain["columnar"]["reason"]


@needs_numpy
class TestWriteTracking:
    def test_inserts_append_without_rebuild(self):
        collection = _mirrored()
        mirror = collection._columnar
        _check(collection, GROUP_PIPELINE)
        rebuilds = mirror.rebuilds
        collection.insert_one({"model": "m9", "noise_dba": 1.0})
        collection.insert_many(_docs(10))
        _check(collection, GROUP_PIPELINE)
        assert mirror.rebuilds == rebuilds
        assert mirror.appends >= 11

    def test_pending_rows_counted_before_drain(self):
        collection = _mirrored()
        mirror = collection._columnar
        # the first reader builds the mirror
        assert collection.columnar_info()["fresh"] is False
        assert collection.columnar_info()["rows"] is None
        _check(collection, GROUP_PIPELINE)
        collection.insert_many(_docs(7))
        info = collection.columnar_info()
        assert info["fresh"] is True
        assert info["rows"] == len(collection)  # the tail not yet pulled
        assert mirror.appends == 0
        _check(collection, GROUP_PIPELINE)
        assert mirror.appends == 7
        assert collection.columnar_info()["rows"] == len(collection)

    def test_update_invalidates_then_rebuilds(self):
        collection = _mirrored()
        mirror = collection._columnar
        _check(collection, GROUP_PIPELINE)
        collection.update_many({"model": "m1"}, {"$set": {"noise_dba": 0.0}})
        assert collection.columnar_info()["fresh"] is False
        rebuilds = mirror.rebuilds
        result = _check(collection, GROUP_PIPELINE)
        assert result.explain["columnar"]["rebuilt"] is True
        assert mirror.rebuilds == rebuilds + 1

    def test_delete_and_drop_invalidate(self):
        collection = _mirrored()
        _check(collection, GROUP_PIPELINE)
        collection.delete_many({"model": "m2"})
        assert collection.columnar_info()["fresh"] is False
        _check(collection, GROUP_PIPELINE)
        collection.drop()
        assert collection.columnar_info()["fresh"] is False
        assert list(collection.aggregate(GROUP_PIPELINE)) == []

    def test_noop_update_keeps_mirror_fresh(self):
        collection = _mirrored()
        _check(collection, GROUP_PIPELINE)
        collection.update_many({"model": "no-such"}, {"$set": {"x": 1}})
        assert collection.columnar_info()["fresh"] is True


@needs_numpy
class TestLazyColumns:
    TOP_K = [
        {"$match": {"noise_dba": {"$gte": 50.0}}},
        {"$group": {"_id": "$model", "n": {"$sum": 1}}},
        {"$sort": {"n": -1}},
        {"$limit": 2},
    ]

    @staticmethod
    def _built(mirror):
        return {field: mirror._columns[field].rows for field in mirror.fields}

    def test_columns_are_built_on_first_read(self):
        collection = Collection("c")
        mirror = collection.enable_columnar(
            ["_id", "model", "noise_dba", "taken_at", "location"]
        )
        collection.insert_many(_docs())
        assert set(self._built(mirror).values()) == {0}
        assert _check(collection, self.TOP_K).explain["strategy"] == "columnar"
        # only the plan's columns hold rows
        assert self._built(mirror) == {
            "_id": 0, "model": 40, "noise_dba": 40, "taken_at": 0, "location": 0,
        }
        # one 40-row chunk each: int64 codes, float64 nums, three bool masks
        assert collection.columnar_info()["column_bytes"] == 2 * 40 * (8 + 8 + 3)
        # a later kernel over other columns builds them, from row 0
        collection.insert_many(_docs(5))
        result = _check(collection, GROUP_PIPELINE)
        assert result.explain["strategy"] == "columnar"
        assert result.explain["columnar"]["rebuilt"] is False
        assert self._built(mirror) == {
            "_id": 0, "model": 45, "noise_dba": 45, "taken_at": 0, "location": 45,
        }
        # an update writes nothing to the mirror: the next read finds the
        # marker moved, resets every column and fills the reader's
        collection.update_many({"model": "m2"}, {"$set": {"noise_dba": 55.0}})
        assert self._built(mirror)["location"] == 45
        result = _check(collection, self.TOP_K)
        assert result.explain["columnar"]["rebuilt"] is True
        assert self._built(mirror) == {
            "_id": 0, "model": 45, "noise_dba": 45, "taken_at": 0, "location": 0,
        }
        result = _check(collection, GROUP_PIPELINE)
        assert result.explain["strategy"] == "columnar"
        assert result.explain["columnar"]["rebuilt"] is False
        assert self._built(mirror)["location"] == len(collection)


@needs_numpy
class TestInPlaceGrowth:
    COUNT = [{"$match": {"noise_dba": {"$gte": 0.0}}}, {"$count": "n"}]

    def test_small_write_keeps_the_buffer(self):
        import numpy as np

        collection = _mirrored()
        column = collection._columnar._columns["noise_dba"]
        # the first read stores one 40-row chunk; the 41st row doubles it to 80
        _check(collection, self.COUNT)
        collection.insert_one({"model": "m9", "noise_dba": 1.0})
        _check(collection, self.COUNT)
        for i in range(3):
            before = column.arrays()[0]
            collection.insert_one({"model": "m9", "noise_dba": float(i)})
            assert _check(collection, self.COUNT).explain["strategy"] == "columnar"
            after = column.arrays()[0]
            assert after.size == before.size + 1
            assert (after[: before.size] == before).all()
            assert np.shares_memory(before, after)

    def test_reallocations_are_logarithmic(self):
        collection = _mirrored(_docs(1))
        column = collection._columnar._columns["noise_dba"]
        rounds = 512
        buffers = []  # held, so no buffer's id is reused
        for i in range(rounds):
            collection.insert_one({"model": "m0", "noise_dba": float(i)})
            result = collection.aggregate(self.COUNT)
            assert list(result) == [{"n": i + 2}]
            codes = column.arrays()[0]
            root = codes if codes.base is None else codes.base
            if not any(root is seen for seen in buffers):
                buffers.append(root)
        assert result.explain["strategy"] == "columnar"
        assert len(buffers) <= math.log2(rounds) + 2


@needs_numpy
class TestExactIntLiterals:
    """Int literals past 2**53 round in float64; the kernels decline them."""

    @staticmethod
    def _collection(values):
        collection = Collection("c")
        collection.enable_columnar(["f"])
        collection.insert_many([{"f": value} for value in values])
        return collection

    def test_range_operand_past_two_to_the_53(self):
        collection = self._collection([1.0, 2.0**53])
        result = _check(collection, [{"$match": {"f": {"$lt": 2**53 + 1}}}, {"$count": "n"}])
        assert list(result) == [{"n": 2}]
        assert "float64-exact" in result.explain["columnar"]["reason"]

    def test_range_operand_past_float_range(self):
        collection = self._collection([1.0, 2.0])
        result = _check(collection, [{"$match": {"f": {"$lt": 10**400}}}, {"$count": "n"}])
        assert list(result) == [{"n": 2}]
        assert "float64-exact" in result.explain["columnar"]["reason"]

    def test_divisor_past_two_to_the_53(self):
        collection = self._collection([2**53])
        pipeline = [
            {"$addFields": {"b": {"$floor": {"$divide": ["$f", 2**53 + 1]}}}},
            {"$group": {"_id": "$b", "n": {"$count": {}}}},
        ]
        result = _check(collection, pipeline)
        assert list(result) == [{"_id": 0, "n": 1}]
        assert "float64-exact" in result.explain["columnar"]["reason"]


@needs_numpy
class TestBulkColumnBuild:
    def test_extend_matches_append_on_mixed_values(self):
        docs = [
            {"f": 1},
            {"f": 2.5},
            {"f": "s"},
            {"f": None},
            {"f": True},
            {"f": float("nan")},
            {"f": float("inf")},
            {"f": [1]},
            {"f": {"x": 1}},
            {"other": 0},
            {"f": 10**400},
            {"f": 2.0**60},
        ]
        for shape in (docs, docs[:2], docs[2:4], docs[5:7], docs[8:10], []):
            one = _Column("f")
            for doc in shape:
                one.append(doc)
            bulk = _Column("f")
            bulk.extend(shape)
            assert one.rows == bulk.rows == len(shape)
            names = ("codes", "nums", "numeric", "truthy", "is_float")
            for name, left, right in zip(names, one.arrays(), bulk.arrays()):
                assert left.dtype == right.dtype, name
                assert repr(left.tolist()) == repr(right.tolist()), name
            for attribute in (
                "decode", "has_list", "has_opaque", "has_nan", "has_inf",
                "has_nonnum", "abs_int_total", "big_float",
            ):
                left, right = getattr(one, attribute), getattr(bulk, attribute)
                assert repr(left) == repr(right), attribute


class TestWithoutNumpy:
    def test_mirror_disables_and_row_engines_serve(self, monkeypatch):
        monkeypatch.setattr(columnar, "np", None)
        collection = Collection("c")
        mirror = collection.enable_columnar(["model", "noise_dba", "location"])
        assert mirror.enabled is False
        assert mirror.disabled_reason == "numpy unavailable"
        collection.insert_many(_docs())
        result = _check(collection, GROUP_PIPELINE)
        assert result.explain["strategy"] != "columnar"
        assert result.explain["columnar"] == {
            "covered": False,
            "reason": "numpy unavailable",
        }
        info = collection.columnar_info()
        assert info["enabled"] is False


@needs_numpy
class TestConcurrentMirror:
    def test_writers_and_readers_triangulate(self):
        collection = _mirrored()
        errors = []

        def writer(seed):
            try:
                for i in range(30):
                    collection.insert_one(
                        {"model": f"m{(seed + i) % 5}", "noise_dba": float(i)}
                    )
                    if i % 7 == 3:
                        collection.update_many(
                            {"model": f"m{seed % 5}"}, {"$inc": {"noise_dba": 1}}
                        )
                    if i % 11 == 5:
                        collection.delete_many({"noise_dba": float(seed)})
            except Exception as exc:  # noqa: BLE001 - surface in main thread
                errors.append(repr(exc))

        def reader():
            try:
                for _ in range(20):
                    list(collection.aggregate(GROUP_PIPELINE))
            except Exception as exc:  # noqa: BLE001
                errors.append(repr(exc))

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(4)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        _check(collection, GROUP_PIPELINE)
        info = collection.columnar_info()
        assert info["fresh"] is True
        assert info["rows"] == len(collection)
