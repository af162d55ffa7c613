"""Compiled streaming executor vs the retained naive interpreter.

``repro.docstore.naive`` is the original list-materializing,
interpret-per-document pipeline implementation, kept as the executable
specification. These properties generate random documents and random
*valid* pipelines and require the compiled executor to produce exactly
the same output — same rows, same order, same values.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.docstore.aggregate import aggregate
from repro.docstore.collection import Collection
from repro.docstore.columnar import numpy_available
from repro.docstore.naive import naive_aggregate

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-1000, max_value=1000),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.sampled_from(["alpha", "beta", "gamma", ""]),
)

DOCUMENTS = st.lists(
    st.fixed_dictionaries(
        {},
        optional={
            "k": st.sampled_from(["a", "b", "c", "d"]),
            "v": st.integers(min_value=-50, max_value=50),
            "w": st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
            "flag": st.booleans(),
            "tags": st.lists(
                st.sampled_from(["x", "y", "z"]), max_size=3
            ),
            "nested": st.fixed_dictionaries(
                {"p": st.integers(min_value=0, max_value=5)}
            ),
            "misc": SCALARS,
        },
    ),
    max_size=30,
)

MATCH_STAGES = st.sampled_from(
    [
        {"$match": {}},
        {"$match": {"k": "a"}},
        {"$match": {"v": {"$gte": 0}}},
        {"$match": {"w": {"$lt": 10.0}}},
        {"$match": {"flag": True}},
        {"$match": {"nested.p": {"$lte": 3}}},
        {"$match": {"misc": {"$exists": True}}},
    ]
)
PROJECT_STAGES = st.sampled_from(
    [
        {"$project": {"k": 1, "v": 1}},
        {"$project": {"misc": 0}},
        {"$project": {"sum": {"$add": [{"$ifNull": ["$v", 0]}, 1]}, "_id": 0}},
        {"$project": {"label": {"$cond": [{"$ifNull": ["$flag", False]}, "on", "off"]}}},
    ]
)
ADD_FIELDS_STAGES = st.sampled_from(
    [
        {"$addFields": {"vv": {"$ifNull": ["$v", -1]}}},
        {"$addFields": {"bucketed": {"$floor": {"$divide": [{"$ifNull": ["$v", 0]}, 7]}}}},
    ]
)
GROUP_STAGES = st.sampled_from(
    [
        {
            "$group": {
                "_id": "$k",
                "n": {"$sum": 1},
                "total": {"$sum": "$v"},
                "mean": {"$avg": "$w"},
            }
        },
        {
            "$group": {
                "_id": {"k": "$k", "flag": "$flag"},
                "lo": {"$min": "$v"},
                "hi": {"$max": "$v"},
            }
        },
        {
            "$group": {
                "_id": "$nested",
                "first": {"$first": "$v"},
                "last": {"$last": "$v"},
                "vals": {"$push": "$k"},
                "distinct": {"$addToSet": "$misc"},
            }
        },
        {"$group": {"_id": None, "n": {"$count": {}}}},
    ]
)
SORT_STAGES = st.sampled_from(
    [
        {"$sort": {"v": 1}},
        {"$sort": {"w": -1, "v": 1}},
        {"$sort": {"k": 1, "flag": -1}},
    ]
)
TAIL_STAGES = st.sampled_from(
    [
        {"$limit": 5},
        {"$skip": 3},
        {"$count": "rows"},
    ]
)
UNWIND_STAGES = st.sampled_from(
    [
        {"$unwind": "$tags"},
        {"$unwind": {"path": "$tags", "preserveNullAndEmptyArrays": True}},
    ]
)

PIPELINES = st.one_of(
    # filter/transform chains
    st.lists(
        st.one_of(MATCH_STAGES, PROJECT_STAGES, ADD_FIELDS_STAGES, UNWIND_STAGES),
        max_size=3,
    ),
    # filter → group → order/trim, the figure-query shape
    st.tuples(
        MATCH_STAGES, st.one_of(ADD_FIELDS_STAGES, UNWIND_STAGES), GROUP_STAGES
    ).map(list),
    st.tuples(MATCH_STAGES, GROUP_STAGES, SORT_STAGES, TAIL_STAGES).map(list),
    st.tuples(SORT_STAGES, TAIL_STAGES).map(list),
)


class TestCompiledMatchesNaive:
    @settings(max_examples=120, deadline=None)
    @given(DOCUMENTS, PIPELINES)
    def test_same_rows_same_order(self, docs, pipeline):
        assert aggregate(docs, pipeline) == naive_aggregate(docs, pipeline)

    @settings(max_examples=60, deadline=None)
    @given(DOCUMENTS)
    def test_sort_by_count_agrees(self, docs):
        pipeline = [{"$sortByCount": "$k"}]
        assert aggregate(docs, pipeline) == naive_aggregate(docs, pipeline)

    @settings(max_examples=60, deadline=None)
    @given(DOCUMENTS)
    def test_is_number_agrees(self, docs):
        # the scatter's $avg count rides on $isNumber: every field shape
        # the generator makes (ints, floats, bools, None, str, lists,
        # documents, missing) must classify the same in both engines
        pipeline = [
            {
                "$group": {
                    "_id": "$k",
                    **{
                        f"n_{field}": {
                            "$sum": {"$cond": [{"$isNumber": f"${field}"}, 1, 0]}
                        }
                        for field in ("v", "w", "flag", "tags", "nested", "misc")
                    },
                }
            }
        ]
        assert aggregate(docs, pipeline) == naive_aggregate(docs, pipeline)

    @settings(max_examples=60, deadline=None)
    @given(DOCUMENTS)
    def test_bucket_agrees(self, docs):
        pipeline = [
            {
                "$bucket": {
                    "groupBy": "$v",
                    "boundaries": [-50, -10, 0, 10, 50, 51],
                    "default": "other",
                    "output": {
                        "count": {"$sum": 1},
                        "mean": {"$avg": "$v"},
                    },
                }
            }
        ]
        assert aggregate(docs, pipeline) == naive_aggregate(docs, pipeline)

    @settings(max_examples=60, deadline=None)
    @given(DOCUMENTS)
    def test_neither_executor_mutates_input(self, docs):
        import copy

        snapshot = copy.deepcopy(docs)
        pipeline = [
            {"$addFields": {"vv": {"$ifNull": ["$v", -1]}}},
            {"$group": {"_id": "$k", "n": {"$sum": 1}}},
            {"$sort": {"n": -1}},
            {"$limit": 3},
        ]
        aggregate(docs, pipeline)
        naive_aggregate(docs, pipeline)
        assert docs == snapshot


#: every field the random documents can carry — the mirror sees it all,
#: including the array-valued and mixed-type ones that force per-column
#: data fallbacks.
MIRROR_FIELDS = ["k", "v", "w", "flag", "tags", "nested.p", "misc"]

#: a pipeline shape the columnar kernels cover structurally (whether it
#: actually runs vectorized still depends on the generated data).
COVERED_PIPELINES = st.sampled_from(
    [
        [
            {"$match": {"k": {"$in": ["a", "b"]}}},
            {
                "$group": {
                    "_id": "$k",
                    "n": {"$count": {}},
                    "total": {"$sum": "$v"},
                    "mean": {"$avg": "$w"},
                    "flags": {"$sum": {"$cond": [{"$ifNull": ["$flag", False]}, 1, 0]}},
                }
            },
        ],
        [
            {"$match": {"v": {"$gte": -10}}},
            {"$sort": {"v": 1, "k": -1}},
            {"$limit": 7},
        ],
        [{"$match": {"w": {"$lt": 50.0}, "flag": True}}, {"$count": "rows"}],
        [
            {"$group": {"_id": {"k": "$k", "p": "$nested.p"}, "lo": {"$min": "$v"}}},
            {"$sort": {"lo": 1}},
        ],
        [{"$sort": {"misc": -1, "v": 1}}, {"$skip": 2}, {"$limit": 5}],
    ]
)


def _triangulate(collection, pipeline):
    """Collection result (columnar or fallback) vs both row engines."""
    snapshot = collection.iter_documents()
    result = collection.aggregate(pipeline)
    rows = list(result)
    assert rows == aggregate(snapshot, pipeline)
    assert rows == naive_aggregate(snapshot, pipeline)
    return result


class TestThreeEngineTriangulation:
    """The collection's dispatcher — columnar kernels when covered, the
    compiled engine otherwise — must be row-exact against both row
    engines over the same snapshot, for any documents and pipeline."""

    @settings(max_examples=60, deadline=None)
    @given(DOCUMENTS, PIPELINES)
    def test_any_pipeline_any_docs(self, docs, pipeline):
        collection = Collection("oracle")
        collection.enable_columnar(MIRROR_FIELDS)
        collection.insert_many(docs)
        _triangulate(collection, pipeline)

    @settings(max_examples=60, deadline=None)
    @given(DOCUMENTS, COVERED_PIPELINES)
    def test_covered_shapes_exercise_kernels(self, docs, pipeline):
        collection = Collection("oracle")
        collection.enable_columnar(MIRROR_FIELDS)
        collection.insert_many(docs)
        result = _triangulate(collection, pipeline)
        detail = result.explain.get("columnar")
        if numpy_available():
            # the kernel either ran or declined with a stated reason —
            # silent degradation is a bug either way.
            assert detail is not None
            if not detail["covered"]:
                assert detail["reason"]

    @settings(max_examples=40, deadline=None)
    @given(DOCUMENTS, COVERED_PIPELINES)
    def test_mirror_survives_update_delete_insert(self, docs, pipeline):
        collection = Collection("oracle")
        collection.enable_columnar(MIRROR_FIELDS)
        collection.insert_many(docs)
        _triangulate(collection, pipeline)  # warm the mirror
        # in-place mutations invalidate; the next query must rebuild
        collection.update_many({"k": "a"}, {"$set": {"v": 999}})
        collection.delete_many({"flag": True})
        _triangulate(collection, pipeline)
        # post-rebuild inserts take the incremental append path
        collection.insert_many([{"k": "z", "v": 1, "w": 0.5}, {"k": "z", "v": 2}])
        _triangulate(collection, pipeline)
        # a drop moves the marker too: the next query rebuilds from the
        # empty store, and later inserts append to it
        collection.drop()
        _triangulate(collection, pipeline)
        collection.insert_many(docs[:3] + [{"k": "y", "v": 3}])
        _triangulate(collection, pipeline)

    @settings(max_examples=30, deadline=None)
    @given(DOCUMENTS, PIPELINES)
    def test_partial_mirror_falls_back_exactly(self, docs, pipeline):
        # only two fields mirrored: most pipelines reference unmirrored
        # fields and must take the row-engine fallback path, still exact
        collection = Collection("oracle")
        collection.enable_columnar(["k", "v"])
        collection.insert_many(docs)
        _triangulate(collection, pipeline)


