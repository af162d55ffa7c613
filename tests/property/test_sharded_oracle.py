"""Sharded scatter-gather vs the unsharded store, row-exact.

Extends the engine triangulation of ``test_aggregate_oracle``: the
fourth implementation is a :class:`ShardRouter` fleet. Hypothesis
generates random documents and random valid pipelines/filters, the
documents are ingested through a sharded server *and* an unsharded
one (same privacy salt, so the stored forms are identical), and every
read — aggregate, find, distinct, retrieve — must return exactly the
same rows in exactly the same order. The unsharded results are in turn
triangulated against the compiled and naive row engines, closing the
loop: sharded ≡ unsharded ≡ compiled ≡ naive.

Documents are spread over many regions (location grid cells, day
buckets, and the no-key fallback) so the fleet genuinely partitions
the data rather than degenerating to one shard.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.datamgmt import DataQuery
from repro.core.server import GoFlowServer
from repro.docstore.aggregate import aggregate
from repro.docstore.naive import naive_aggregate

from tests.property.test_aggregate_oracle import (
    DOCUMENTS,
    MATCH_STAGES,
    PIPELINES,
    SORT_STAGES,
)

APP = "oracle-app"

SHARD_COUNTS = st.sampled_from([2, 3, 5])

#: integer accumulators only, no suffix: stays on the partial-fold path
#: and shows the merged groups' first-seen order as it is
FOLD_PIPELINE = [
    {"$match": {"v": {"$gte": -40}}},
    {
        "$group": {
            "_id": "$k",
            "n": {"$count": {}},
            "total": {"$sum": "$v"},
            "lo": {"$min": "$v"},
            "hi": {"$max": "$v"},
            "mean_v": {"$avg": "$v"},
        }
    },
]


def _wire_documents(docs):
    """Stamp identity + routing spread onto the generated documents.

    Every document gets a unique obs_id (so nothing dedups away) and a
    deterministic position in the routing-key space: most get grid-cell
    locations across a 16x16 region lattice, every fifth gets only a
    taken_at (the day-bucket fallback), and every eleventh gets neither
    (the "default" region).
    """
    wire = []
    for index, doc in enumerate(docs):
        out = dict(doc)
        out["obs_id"] = f"obs-{index}"
        out["user_id"] = f"user{index % 4}"
        if index % 11 == 10:
            pass  # no routing hints at all: the "default" region
        elif index % 5 == 0:
            out["taken_at"] = float(index * 43200)
        else:
            out["location"] = {
                "x_m": float((index * 1237) % 16) * 600.0,
                "y_m": float((index * 911) % 16) * 600.0,
            }
        wire.append(out)
    return wire


def _servers(docs, shards):
    sharded = GoFlowServer(sharding=shards)
    sharded.register_app(APP)
    unsharded = GoFlowServer()
    unsharded.register_app(APP)
    wire = _wire_documents(docs)
    sharded.data.ingest_many(APP, [dict(doc) for doc in wire])
    unsharded.data.ingest_many(APP, [dict(doc) for doc in wire])
    return sharded, unsharded, wire


class TestShardedAggregateOracle:
    @settings(max_examples=50, deadline=None)
    @given(DOCUMENTS, PIPELINES, SHARD_COUNTS)
    def test_four_way_row_exact(self, docs, pipeline, shards):
        sharded, unsharded, _ = _servers(docs, shards)
        scattered = sharded.data.collection.aggregate(pipeline)
        rows = list(scattered)
        reference = list(unsharded.data.collection.aggregate(pipeline))
        assert rows == reference
        # close the triangulation loop over the unsharded snapshot
        snapshot = unsharded.data.collection.iter_documents()
        assert rows == aggregate(snapshot, pipeline)
        assert rows == naive_aggregate(snapshot, pipeline)
        # and the sharded explain names its strategy
        assert scattered.explain["strategy"] == "scattered"
        assert scattered.explain["merge"] in ("partial_folds", "central")
        assert set(scattered.explain["shards"]) == set(sharded.router.shards)

    @settings(max_examples=30, deadline=None)
    @given(DOCUMENTS, SHARD_COUNTS)
    def test_fold_merged_group_is_exact(self, docs, shards):
        """A pipeline that stays on the partial-fold path (integer
        accumulators only) merges to the same rows, same order."""
        pipeline = [
            {"$match": {"v": {"$gte": -40}}},
            {
                "$group": {
                    "_id": "$k",
                    "n": {"$count": {}},
                    "total": {"$sum": "$v"},
                    "lo": {"$min": "$v"},
                    "hi": {"$max": "$v"},
                    "mean_v": {"$avg": "$v"},
                }
            },
            {"$sort": {"n": -1, "total": 1}},
        ]
        sharded, unsharded, _ = _servers(docs, shards)
        scattered = sharded.data.collection.aggregate(pipeline)
        assert list(scattered) == list(
            unsharded.data.collection.aggregate(pipeline)
        )

    @settings(max_examples=30, deadline=None)
    @given(DOCUMENTS, PIPELINES, SHARD_COUNTS)
    def test_row_exact_after_add_shard(self, docs, pipeline, shards):
        """Rebalancing adopts documents region by region, so a new
        shard's insertion order is not ``_id`` order: neither the
        scatter's merge order nor a shard's engine may lean on it."""
        sharded, unsharded, _ = _servers(docs, shards)
        sharded.router.add_shard()
        sharded.router.add_shard()
        for each in (pipeline, FOLD_PIPELINE):
            scattered = sharded.data.collection.aggregate(each)
            assert list(scattered) == list(
                unsharded.data.collection.aggregate(each)
            )
            assert set(scattered.explain["shards"]) == set(sharded.router.shards)

    def test_add_shard_breaks_insertion_order_not_rows(self):
        docs = [{"k": "abcd"[i % 4], "v": i % 50 - 25} for i in range(120)]
        sharded, unsharded, _ = _servers(docs, 2)
        sharded.router.add_shard()
        sharded.router.add_shard()
        # the precondition the property above relies on
        assert any(
            [doc["_id"] for doc in shard.collection.iter_documents()]
            != sorted(doc["_id"] for doc in shard.collection.iter_documents())
            for shard in sharded.router.shards.values()
        )
        scattered = sharded.data.collection.aggregate(FOLD_PIPELINE)
        assert scattered.explain["merge"] == "partial_folds"
        assert list(scattered) == list(
            unsharded.data.collection.aggregate(FOLD_PIPELINE)
        )

    @settings(max_examples=40, deadline=None)
    @given(DOCUMENTS, MATCH_STAGES, SORT_STAGES, SHARD_COUNTS)
    def test_find_merge_row_exact(self, docs, match_stage, sort_stage, shards):
        sharded, unsharded, _ = _servers(docs, shards)
        filter_doc = match_stage["$match"]
        sort_spec = list(sort_stage["$sort"].items())
        assert (
            sharded.data.collection.find(filter_doc).to_list()
            == unsharded.data.collection.find(filter_doc).to_list()
        )
        # global sort + limit re-applied over the merged rows
        assert (
            sharded.data.collection.find(filter_doc)
            .sort(sort_spec)
            .limit(5)
            .to_list()
            == unsharded.data.collection.find(filter_doc)
            .sort(sort_spec)
            .limit(5)
            .to_list()
        )

    @settings(max_examples=30, deadline=None)
    @given(DOCUMENTS, SHARD_COUNTS)
    def test_distinct_count_retrieve_parity(self, docs, shards):
        sharded, unsharded, _ = _servers(docs, shards)
        assert sharded.data.collection.distinct(
            "k"
        ) == unsharded.data.collection.distinct("k")
        assert len(sharded.data.collection) == len(unsharded.data.collection)
        query = DataQuery(app_id=APP)
        assert sharded.data.retrieve(query, limit=7) == unsharded.data.retrieve(
            query, limit=7
        )
        assert sharded.data.count(query) == unsharded.data.count(query)

    @settings(max_examples=25, deadline=None)
    @given(DOCUMENTS, SHARD_COUNTS)
    def test_dedup_parity_under_retransmission(self, docs, shards):
        """Retransmitting every document dedups identically on both
        sides — the per-shard ledgers add up to the global one."""
        sharded, unsharded, wire = _servers(docs, shards)
        sharded_ids = sharded.data.ingest_many(APP, [dict(d) for d in wire])
        unsharded_ids = unsharded.data.ingest_many(APP, [dict(d) for d in wire])
        assert sharded_ids == [None] * len(wire)
        assert unsharded_ids == [None] * len(wire)
        assert (
            sharded.data.collection.iter_documents()
            == unsharded.data.collection.iter_documents()
        )

