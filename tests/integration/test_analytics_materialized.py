"""Materialized counters vs full-pipeline recomputation (acceptance).

Interleaves the real write paths — ``DataManager.ingest`` (including
dedup-dropped redeliveries of known ``obs_id``s), ``RetentionEnforcer``
deletes, and right-to-erasure — and after every phase requires the
materialized-served statistics to agree *exactly* with the engine's
retained ``_*_pipeline`` recomputations over the live store.
"""

import random

import pytest

from repro.core.analytics import AnalyticsEngine
from repro.core.datamgmt import DataManager
from repro.core.privacy import PrivacyPolicy
from repro.core.retention import RetentionEnforcer, RetentionPolicy
from repro.docstore.store import DocumentStore

MODELS = ["A0001", "NEXUS 5", "GT-I9505"]
PROVIDERS = ["gps", "network", "fused"]
APP = "SC"


def _observation(seq):
    return {
        "user_id": f"user-{seq % 3}",
        "obs_id": f"obs:{seq}",
        "model": MODELS[seq % len(MODELS)],
        "taken_at": 1000.0 + seq,
        "noise_dba": 50.0 + seq,
        "location": {"provider": "gps", "x_m": 10.0 * seq, "y_m": 20.0},
    }


def _assert_exact_agreement(engine):
    """Every materialized-served statistic == its pipeline recomputation."""
    assert engine.totals() == engine._totals_pipeline()
    assert engine.per_model_table() == engine._per_model_table_pipeline()
    assert engine.cumulative_by_day() == engine._cumulative_by_day_pipeline()
    assert engine.provider_shares() == engine._provider_shares_pipeline()


class TestMaterializedExactness:
    def test_interleaved_ingest_redelivery_and_retention(self):
        rng = random.Random(7)
        clock = {"now": 0.0}
        store = DocumentStore(clock=lambda: clock["now"])
        data = DataManager(store, PrivacyPolicy())
        engine = AnalyticsEngine(store, materialized=data.materialized)
        enforcer = RetentionEnforcer(
            store,
            RetentionPolicy(raw_retention_days=5.0, inactive_grace_days=8.0),
            clock=lambda: clock["now"],
        )

        def make_doc(seq, day):
            doc = {
                "user_id": f"user-{rng.randrange(12)}",
                "obs_id": f"obs:{seq}",
                "model": MODELS[rng.randrange(len(MODELS))],
                "taken_at": day * 86400.0 + rng.uniform(0.0, 86400.0),
                "noise_dba": rng.uniform(35.0, 85.0),
                "mode": "opportunistic",
            }
            if rng.random() < 0.5:
                doc["location"] = {
                    "provider": PROVIDERS[rng.randrange(3)],
                    "accuracy_m": rng.uniform(2.0, 300.0),
                    "x_m": rng.uniform(0.0, 5000.0),
                    "y_m": rng.uniform(0.0, 5000.0),
                }
            return doc

        ingested = []
        seq = 0
        for day in range(12):
            clock["now"] = day * 86400.0
            # ingest a batch, redelivering ~every third document
            for _ in range(40):
                doc = make_doc(seq, day)
                assert data.ingest("app", dict(doc)) is not None
                ingested.append(doc)
                if seq % 3 == 0:
                    # at-least-once uplink: same obs_id arrives again and
                    # must be dropped by the ledger, not double-counted
                    assert data.ingest("app", dict(doc)) is None
                seq += 1
            _assert_exact_agreement(engine)
            # retention runs every few days and deletes behind the
            # materialized view's back
            if day % 4 == 3:
                report = enforcer.run()
                if day >= 7:
                    assert report["deleted"] > 0
                _assert_exact_agreement(engine)

        # right-to-erasure mid-stream
        erased = data.delete_contributor_data("app", "user-3")
        assert erased > 0
        _assert_exact_agreement(engine)

        # the view earned its keep: it served incrementally between
        # rebuild-forcing deletes rather than rescanning every query
        info = data.materialized.info()
        assert info["incremental_updates"] > 0
        assert info["rebuilds"] < 12
        assert engine.totals()["total"] == store.collection("observations").count()

    def test_dedup_drop_never_reaches_the_view(self):
        store = DocumentStore()
        data = DataManager(store, PrivacyPolicy())
        engine = AnalyticsEngine(store, materialized=data.materialized)
        doc = {
            "user_id": "u",
            "obs_id": "only-one",
            "model": "A0001",
            "taken_at": 10.0,
            "noise_dba": 50.0,
        }
        assert data.ingest("app", dict(doc)) is not None
        for _ in range(5):
            assert data.ingest("app", dict(doc)) is None
        assert engine.totals() == {"total": 1, "localized": 0}
        assert data.materialized.info()["fresh"] is True
        _assert_exact_agreement(engine)

    def test_shared_view_on_the_server_ingest_path(self):
        # the server wires one view into both DataManager and analytics
        from repro.core.server import GoFlowServer

        server = GoFlowServer()
        assert server.analytics._materialized is server.data.materialized
        # a new server's view stays unbuilt until something reads it
        stats = server.middleware_stats()["materialized"]
        assert stats["fresh"] is False
        assert stats["rebuilds"] == 0
        server.register_app(APP)
        server.data.ingest_many(APP, [_observation(i) for i in range(3)])
        assert server.middleware_stats()["materialized"]["rebuilds"] == 0
        assert server.analytics.totals()["total"] == 3
        stats = server.middleware_stats()["materialized"]
        assert stats["fresh"] is True
        assert stats["rebuilds"] == 1
        _assert_exact_agreement(server.analytics)


class TestDropReachesTheViews:
    """``Collection.drop`` moves the write marker, so every view kept
    beside it — the materialized counters and the tile scopes — serves
    the now-empty store at its next read."""

    def test_drop_empties_counters_and_tiles(self):
        from repro.core.server import GoFlowServer
        from repro.streaming.tiles import tiles_from_documents

        server = GoFlowServer()
        server.register_app(APP)
        server.data.ingest_many(APP, [_observation(i) for i in range(5)])
        analytics, streaming = server.analytics, server.streaming
        assert analytics.totals()["total"] == 5
        tiles = streaming.tiles_snapshot(app_id=APP)
        assert sum(tile["count"] for tile in tiles.values()) == 5

        collection = server.data.collection
        collection.drop()
        assert len(collection) == 0
        assert analytics.totals() == analytics._totals_pipeline()
        assert analytics.totals() == {"total": 0, "localized": 0}
        _assert_exact_agreement(analytics)
        assert streaming.tiles_snapshot(app_id=APP) == tiles_from_documents(
            collection.iter_documents(), streaming.cell_m
        )
        assert streaming.tiles_snapshot(app_id=APP) == {}
