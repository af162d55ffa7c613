"""``SortedIndex``: keys no range can match, and what a read costs.

The index orders its keys on the first read after a write. Two things
follow that the CRUD tests do not pin: a NaN key must never reach the
sorted key list (one would leave it unsorted for every later bisect),
and the deferred sort must be paid once per write burst, counted in
``index_folds``, whatever the size of the standing corpus.
"""

import math
import random

import pytest

from repro.docstore.collection import Collection
from repro.docstore.index import HashIndex, SortedIndex


def _load(index, entries, how):
    if how == "insert_many":
        index.insert_many(entries)
    else:
        for doc_id, document in entries:
            index.insert(doc_id, document)


class TestNaNIsNotRangeIndexable:
    @pytest.mark.parametrize("how", ["insert", "insert_many"])
    @pytest.mark.parametrize("path", ["t", "a.t"])
    def test_one_nan_does_not_hide_the_other_keys(self, how, path):
        def document(value):
            return {"t": value} if path == "t" else {"a": {"t": value}}

        index = SortedIndex(path)
        values = [3.0, math.nan, 1.0, [math.nan, 2.0]]
        _load(index, [(i, document(v)) for i, v in enumerate(values)], how)
        assert index.range(low=2.5, high=3.5) == {0}
        assert index.range(low=0.0) == {0, 2, 3}
        assert index.range() == {0, 2, 3}
        assert index.lookup(math.nan) == set()
        assert len(index) == 3
        index.remove(1, document(math.nan))  # never indexed: a no-op
        assert index.range(high=1.0) == {2}

    @pytest.mark.parametrize("how", ["insert_one", "insert_many"])
    def test_document_is_stored_and_found_without_the_range_index(self, how):
        collection = Collection("obs")
        collection.create_index("taken_at", kind="sorted")
        collection.create_index("model", kind="hash")
        documents = [
            {"model": "m", "taken_at": t} for t in (3.0, math.nan, 1.0, 2.0)
        ]
        if how == "insert_many":
            collection.insert_many(documents)
        else:
            for document in documents:
                collection.insert_one(document)
        window = {"taken_at": {"$gte": 2.5, "$lte": 3.5}}
        assert [d["taken_at"] for d in collection.find(window)] == [3.0]
        assert collection.explain(window)["strategy"] == "index"
        assert collection.count() == 4
        assert collection.count({"model": "m"}) == 4  # hash index
        scanned = collection.find({"noise": {"$exists": False}}).to_list()
        assert sum(1 for d in scanned if d["taken_at"] != d["taken_at"]) == 1
        assert collection.delete_many({"model": "m"}) == 4
        assert collection.count() == 0


class TestClear:
    def test_clear_drops_entries_and_keeps_the_index_usable(self):
        for index in (HashIndex("v"), SortedIndex("v")):
            index.insert(1, {"v": 5})
            index.clear()
            assert len(index) == 0
            assert index.lookup(5) == set()
            index.insert(2, {"v": 5})
            assert index.lookup(5) == {2}


def _batches(rng, count, size, start_id):
    """Out-of-order ``taken_at`` batches, the Fig. 17 arrival pattern."""
    ids = iter(range(start_id, start_id + count * size))
    return [
        [{"_id": next(ids), "taken_at": rng.uniform(0.0, 1000.0)} for _ in range(size)]
        for _ in range(count)
    ]


def _folds_per_step(corpus_size):
    """``index_folds`` deltas over a fixed write/read script."""
    rng = random.Random(corpus_size)
    collection = Collection("obs")
    collection.create_index("taken_at", kind="sorted")
    collection.insert_many(
        [{"taken_at": rng.uniform(0.0, 1000.0)} for _ in range(corpus_size)],
        copy=False,
    )
    window = {"taken_at": {"$gte": 100.0, "$lt": 200.0}}
    collection.find(window)  # orders the standing corpus

    deltas = []

    def step(action):
        before = collection.stats_snapshot().index_folds
        action()
        deltas.append(collection.stats_snapshot().index_folds - before)

    def write_burst():
        for batch in _batches(rng, count=5, size=40, start_id=10**6):
            collection.insert_many(batch, copy=False)

    step(write_burst)  # writes never fold
    step(lambda: collection.find(window))  # 5 batches, 1 fold
    step(lambda: [collection.find(window) for _ in range(7)])  # nothing new
    step(lambda: collection.insert_one({"taken_at": 150.5}))
    step(lambda: collection.find(window))  # a write then a read
    step(lambda: collection.delete_many({"taken_at": {"$lt": 50.0}}))  # read inside
    step(lambda: collection.find(window))  # deletes leave nothing to order
    return deltas


class TestFoldCount:
    def test_one_fold_per_write_burst_whatever_the_corpus(self):
        small = _folds_per_step(1_000)
        assert small == [0, 1, 0, 0, 1, 0, 0]
        assert _folds_per_step(50_000) == small

    def test_count_survives_drop_and_drop_index(self):
        collection = Collection("obs")
        collection.create_index("taken_at", kind="sorted")
        collection.insert_one({"taken_at": 1.0})
        assert collection.count({"taken_at": {"$gte": 0.0}}) == 1
        collection.drop()
        assert collection.stats_snapshot().index_folds == 1
        collection.drop_index("taken_at")
        assert collection.stats_snapshot().index_folds == 1
