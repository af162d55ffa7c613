"""Durable-mode regression: subscriptions and the live map across a
kill -9.

Subscriptions are deliberately *transient* — a push cursor names
positions in a live fan-out stream, not rows in the store, so
journaling them would only manufacture phantom state. Tiles are not
state of their own either, but for the opposite reason: a tile scope is
built from the store at its first reader, so the recovered store brings
the live map back with it. The contract after a crash is therefore:

- recovery drops every subscription cleanly: the old ids 404, the
  streaming counters start from zero (no phantom cursors);
- a re-subscribe on the recovered server sees only *post-recovery*
  deltas — the at-least-once retransmit of already-stored observations
  dedups and pushes nothing;
- push ≡ poll still holds for what the crash committed: the stored
  documents plus the post-recovery event stream re-derive each other;
- the live map is whole: a snapshot on the recovered server equals the
  from-scratch tile recompute over the recovered documents.
"""

import random

import pytest

from repro.core.errors import NotFoundError
from repro.sharding.region import region_of
from repro.core.server import GoFlowServer
from repro.streaming import observation_event, tiles_from_documents

from tests.integration.test_crash_recovery import (
    APP,
    arm,
    ingest_until_crash,
    kill,
    make_observations,
    make_server,
)


def drain(server, sub_id):
    events = []
    cursor = 0
    while True:
        response = server.streaming.next_events(sub_id, ack=cursor, limit=200)
        events.extend(response["events"])
        cursor = max(cursor, response["cursor"])
        if not response["events"] and response["pending"] == 0:
            return events


def stored_ids(server):
    return {doc["_id"] for doc in server.data.collection.iter_documents()}


def stored_documents(server):
    return sorted(
        server.data.collection.iter_documents(), key=lambda doc: doc["_id"]
    )


class TestSubscriptionsAcrossCrash:
    @pytest.mark.parametrize("kill_at", [3, 9, 17])
    def test_recovery_drops_subscriptions_cleanly(self, tmp_path, kill_at):
        server = make_server(tmp_path)
        server.register_app(APP)
        sub = server.streaming.subscribe()
        docs = make_observations(24)
        arm(server, "append", kill_at)
        acked = ingest_until_crash(server, docs)
        # the stream kept up with ingest right until the kill
        pre_crash = drain(server, sub)
        assert len(pre_crash) == server.streaming.stats()["fanned_out"]
        kill(server)

        recovered = make_server(tmp_path)
        # no phantom cursors: the old subscription is gone...
        with pytest.raises(NotFoundError):
            recovered.streaming.next_events(sub)
        with pytest.raises(NotFoundError):
            recovered.streaming.unsubscribe(sub)
        # ...and the recovered plane starts from zero
        stats = recovered.middleware_stats()["streaming"]
        assert stats["subscriptions"] == 0
        assert stats["created"] == 0
        assert stats["fanned_out"] == 0
        # while the committed documents all survived
        assert len(stored_ids(recovered)) == len(acked)

    def test_resubscribe_sees_only_post_recovery_deltas(self, tmp_path):
        server = make_server(tmp_path)
        server.register_app(APP)
        docs = make_observations(30)
        arm(server, "append", 11)
        ingest_until_crash(server, docs)
        kill(server)

        recovered = make_server(tmp_path)
        committed = stored_ids(recovered)
        sub = recovered.streaming.subscribe()
        # the at-least-once uplink retransmits the *full* workload;
        # already-committed observations dedup and push nothing
        fresh_ids = [
            doc_id
            for doc_id in recovered.data.ingest_many(
                APP, [dict(doc) for doc in docs]
            )
            if doc_id is not None
        ]
        events = drain(recovered, sub)
        assert [event["_id"] for event in events] == fresh_ids
        assert all(event["_id"] not in committed for event in events)
        # the union is whole: pre-crash commits + post-recovery pushes
        assert committed | set(fresh_ids) == stored_ids(recovered)
        assert len(committed) + len(fresh_ids) == len(docs)

    def test_push_equals_poll_after_recovery(self, tmp_path):
        """Acked-and-stored observations still satisfy push ≡ poll:
        replaying the whole store through a fresh subscription's oracle
        projection re-derives the post-recovery event stream."""
        server = make_server(tmp_path)
        server.register_app(APP)
        docs = make_observations(20)
        arm(server, "append", 7)
        ingest_until_crash(server, docs)
        kill(server)

        recovered = make_server(tmp_path)
        sub = recovered.streaming.subscribe(tiles=True)
        recovered.data.ingest_many(APP, [dict(doc) for doc in docs])
        events = drain(recovered, sub)
        observations = [e for e in events if e["kind"] == "observation"]
        cell_m = recovered.streaming.cell_m
        by_id = {
            doc["_id"]: doc
            for doc in recovered.data.collection.iter_documents()
        }
        for event in observations:
            document = by_id[event["_id"]]
            expected = observation_event(
                document, document["_id"], APP, region_of(document, cell_m)
            )
            projected = {
                key: value
                for key, value in event.items()
                if key not in ("cursor", "emitted_at", "emitted_wall")
            }
            assert projected == expected
        # cursors restart from 1 on the recovered plane
        assert [e["cursor"] for e in events] == list(range(1, len(events) + 1))

    def test_crash_mid_stream_with_active_consumer(self, tmp_path):
        """A consumer mid-poll when the server dies simply loses its
        subscription — the durable plane (the store) is unaffected."""
        rng = random.Random(99)
        server = make_server(tmp_path)
        server.register_app(APP)
        sub = server.streaming.subscribe()
        docs = make_observations(16)
        arm(server, "append", rng.randrange(2, 14))
        acked = ingest_until_crash(server, docs)
        consumed = drain(server, sub)  # consumer was actively acking
        assert len(consumed) == len(acked)
        kill(server)

        recovered = make_server(tmp_path)
        assert len(stored_ids(recovered)) == len(acked)
        # a second crash-free pass: re-subscribe, retransmit, re-drain
        sub2 = recovered.streaming.subscribe()
        recovered.data.ingest_many(APP, [dict(doc) for doc in docs])
        events = drain(recovered, sub2)
        assert len(events) == len(docs) - len(acked)

    @pytest.mark.parametrize("kill_at", [5, 13])
    def test_live_map_comes_back_from_the_store(self, tmp_path, kill_at):
        server = make_server(tmp_path)
        server.register_app(APP)
        docs = make_observations(24)
        arm(server, "append", kill_at)
        acked = ingest_until_crash(server, docs)
        assert server.streaming.tiles_snapshot(app_id=APP)
        kill(server)

        recovered = make_server(tmp_path)
        cell_m = recovered.streaming.cell_m
        documents = stored_documents(recovered)
        assert len(documents) == len(acked) > 0
        expected = tiles_from_documents(documents, cell_m)
        assert recovered.streaming.tiles_snapshot(app_id=APP) == expected
        assert recovered.streaming.tiles_snapshot() == expected
        # the rebuilt scope folds the retransmit's fresh observations
        recovered.data.ingest_many(APP, [dict(doc) for doc in docs])
        assert recovered.streaming.tiles_snapshot(
            app_id=APP
        ) == tiles_from_documents(stored_documents(recovered), cell_m)

    def test_sharded_restart_rebuilds_the_map(self, tmp_path):
        server = GoFlowServer(sharding=2, durable=True, data_dir=tmp_path)
        server.register_app(APP)
        server.data.ingest_many(APP, make_observations(12))
        server.data.close()

        restarted = GoFlowServer(sharding=2, durable=True, data_dir=tmp_path)
        documents = stored_documents(restarted)
        assert len(documents) == 12
        assert restarted.streaming.tiles_snapshot(
            app_id=APP
        ) == tiles_from_documents(documents, restarted.streaming.cell_m)
