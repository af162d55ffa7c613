"""Live subscription plane: continuous queries end to end.

Covers the delivery hook path on both ingest planes (unsharded
listener, sharded router delta stream), filtering, the REST surface,
the client-side consumer, and the broker delivery tap.
"""

import pytest

from repro.client.subscriber import StreamConsumer, StreamError
from repro.client.uplink import RestBatchUplink
from repro.core.accounts import Role
from repro.core.api import Request
from repro.core.datamgmt import DataQuery
from repro.core.errors import NotFoundError, ValidationError
from repro.core.channels import GOFLOW_QUEUE
from repro.core.server import GoFlowServer
from repro.streaming import (
    FilterSpec,
    SubscriptionManager,
    fold_tile_deltas,
    tiles_from_documents,
)
from repro.webapp.server import SoundCityApp

APP = "SC"


def make_server(**kwargs):
    server = GoFlowServer(**kwargs)
    server.register_app(APP)
    return server


def ingest(server, documents):
    """Drive the real ingest plane (router when sharded)."""
    return server.data.ingest_many(APP, documents)


def stored(server):
    """Everything stored for APP, in global insertion (_id) order."""
    documents = server.data.retrieve(DataQuery(app_id=APP))
    return sorted(documents, key=lambda d: d["_id"])


def doc(i, x_m=0.0, y_m=0.0, **extra):
    base = {
        "obs_id": f"o{i}",
        "user_id": "alice",
        "taken_at": 100.0 + i,
        "noise_dba": 50.0 + i,
        "location": {"x_m": x_m, "y_m": y_m},
    }
    base.update(extra)
    return base


class TestFanOut:
    def test_matching_observations_are_pushed(self):
        server = make_server()
        sub = server.streaming.subscribe(FilterSpec(app_id=APP))
        ingest(server, [doc(0), doc(1)])
        result = server.streaming.next_events(sub)
        assert [e["kind"] for e in result["events"]] == [
            "observation",
            "observation",
        ]
        assert [e["cursor"] for e in result["events"]] == [1, 2]
        assert result["state"] == "live"

    def test_event_projection_has_no_identifiers(self):
        server = make_server()
        sub = server.streaming.subscribe()
        ingest(server, [doc(0, model="nexus5")])
        (event,) = server.streaming.next_events(sub)["events"]
        assert "user_id" not in event and "obs_id" not in event
        assert "contributor" not in event
        assert event["model"] == "nexus5"
        assert event["noise_dba"] == 50.0
        assert event["region"] == "g0:0"

    def test_ack_pops_prefix_and_reserves_rest(self):
        server = make_server()
        sub = server.streaming.subscribe()
        ingest(server, [doc(i) for i in range(5)])
        first = server.streaming.next_events(sub, limit=2)
        assert [e["cursor"] for e in first["events"]] == [1, 2]
        assert first["pending"] == 3
        # unacked events are re-served
        again = server.streaming.next_events(sub, limit=2)
        assert [e["cursor"] for e in again["events"]] == [1, 2]
        rest = server.streaming.next_events(sub, ack=first["cursor"])
        assert [e["cursor"] for e in rest["events"]] == [3, 4, 5]

    def test_every_subscriber_gets_every_event(self):
        # 64 dashboards over 16x16 cells; the tile consumer drains
        # between batches, the rest once at the end
        server = make_server()
        count = 200
        tiles = server.streaming.subscribe(tiles=True, capacity=2 * count)
        others = [server.streaming.subscribe(capacity=count) for _ in range(63)]
        kinds, cursor = [], 0
        for start in range(0, count, 50):
            ingest(
                server,
                [
                    doc(i, x_m=(i * 1237 % 16) * 500.0, y_m=(i * 911 % 16) * 500.0)
                    for i in range(start, start + 50)
                ],
            )
            result = server.streaming.next_events(tiles, ack=cursor, limit=1000)
            kinds += [event["kind"] for event in result["events"]]
            cursor = result["cursor"]
        assert kinds.count("observation") == kinds.count("tile") == count
        for sub in others:
            events = server.streaming.next_events(sub, limit=1000)["events"]
            assert [e["kind"] for e in events] == ["observation"] * count
        stats = server.middleware_stats()["streaming"]
        assert stats["dropped"] == 0 and stats["evicted"] == 0

    def test_unknown_subscription_404s(self):
        server = make_server()
        with pytest.raises(NotFoundError):
            server.streaming.next_events("sub-999")
        with pytest.raises(NotFoundError):
            server.streaming.unsubscribe("sub-999")

    def test_subscribe_validation(self):
        server = make_server()
        with pytest.raises(ValidationError):
            server.streaming.subscribe(observations=False, tiles=False)
        with pytest.raises(ValidationError):
            server.streaming.subscribe(capacity=0)
        with pytest.raises(ValidationError):
            server.streaming.subscribe(max_overruns=-1)
        with pytest.raises(ValidationError):
            server.streaming.next_events(
                server.streaming.subscribe(), limit=0
            )

    def test_unsubscribed_stops_delivery(self):
        server = make_server()
        sub = server.streaming.subscribe()
        ingest(server, [doc(0)])
        server.streaming.unsubscribe(sub)
        ingest(server, [doc(1)])
        with pytest.raises(NotFoundError):
            server.streaming.next_events(sub)
        stats = server.middleware_stats()["streaming"]
        assert stats["subscriptions"] == 0
        assert stats["unsubscribed"] == 1

    def test_duplicate_ingest_emits_no_event(self):
        server = make_server()
        sub = server.streaming.subscribe()
        ingest(server, [doc(0)])
        ingest(server, [doc(0)])  # dedup ledger absorbs it
        result = server.streaming.next_events(sub)
        assert len(result["events"]) == 1


class TestFanOutCost:
    """``on_stored`` pays for the subscriptions an observation's
    ``(app, region)`` selects, not for the ones registered. Counts
    only — no wall clock, nothing to flake."""

    @staticmethod
    def _costs(bystanders):
        server = make_server()
        watcher = server.streaming.subscribe(
            FilterSpec(app_id=APP, regions=frozenset({"g0:0"})), tiles=True
        )
        for index in range(bystanders):
            # dashboards on other cells (9 each, like the live map's),
            # other apps, and one that filters everything out
            server.streaming.subscribe(
                FilterSpec(
                    app_id=APP if index % 2 else "other-app",
                    regions=frozenset(
                        f"g{7 + index % 5 + dx}:{3 + dy}"
                        for dx in range(3)
                        for dy in range(3)
                    ),
                ),
                tiles=True,
            )
        server.streaming.subscribe(FilterSpec(regions=frozenset()))
        ingest(server, [doc(i) for i in range(20)])
        stats = server.middleware_stats()["streaming"]
        received = len(server.streaming.next_events(watcher, limit=100)["events"])
        return stats["candidates"], stats["fanned_out"], received

    def test_cost_is_independent_of_uninterested_subscribers(self):
        # one candidate per stored observation; an observation and a
        # tile event pushed for each
        assert self._costs(0) == (20, 40, 40)
        assert self._costs(64) == (20, 40, 40)
        assert self._costs(512) == (20, 40, 40)

    def test_candidates_count_residual_rejections(self):
        """A candidate the residual predicate turns down was still
        examined: ``candidates`` counts attempts, ``fanned_out`` the
        useful outcomes."""
        server = make_server()
        server.streaming.subscribe(FilterSpec(app_id=APP, model="nexus5"))
        ingest(server, [doc(0, model="iphone6"), doc(1, model="nexus5")])
        stats = server.middleware_stats()["streaming"]
        assert (stats["candidates"], stats["fanned_out"]) == (2, 1)


class TestFilters:
    def test_region_filter(self):
        server = make_server()
        sub = server.streaming.subscribe(
            FilterSpec(regions=frozenset({"g0:0"}))
        )
        ingest(server, [doc(0, x_m=0.0), doc(1, x_m=900.0)])
        events = server.streaming.next_events(sub)["events"]
        assert [e["region"] for e in events] == ["g0:0"]

    def test_model_and_window_filter(self):
        server = make_server()
        sub = server.streaming.subscribe(
            FilterSpec(model="nexus5", since=100.0, until=102.0)
        )
        ingest(
            server,
            [
                doc(0, model="nexus5"),  # taken_at 100 -> in window
                doc(1, model="iphone6"),  # wrong model
                doc(2, model="nexus5"),  # taken_at 102 -> out of window
            ],
        )
        events = server.streaming.next_events(sub)["events"]
        assert len(events) == 1
        assert events[0]["taken_at"] == 100.0

    def test_tile_only_subscription(self):
        server = make_server()
        sub = server.streaming.subscribe(observations=False, tiles=True)
        ingest(server, [doc(0), doc(1)])
        events = server.streaming.next_events(sub)["events"]
        assert {e["kind"] for e in events} == {"tile"}
        folded = fold_tile_deltas(events)
        assert folded == tiles_from_documents(
            stored(server), server.streaming.cell_m
        )


class TestShardedParity:
    def test_sharded_stream_matches_poll(self):
        server = make_server(sharding=4)
        sub = server.streaming.subscribe(tiles=True)
        documents = [doc(i, x_m=300.0 * i, y_m=200.0 * (i % 3)) for i in range(12)]
        ingest(server, documents)
        events = server.streaming.next_events(sub, limit=1000)["events"]
        obs = [e for e in events if e["kind"] == "observation"]
        # router-stamped ids arrive in global order, cursors contiguous
        assert [e["_id"] for e in obs] == sorted(e["_id"] for e in obs)
        assert [e["cursor"] for e in events] == list(
            range(1, len(events) + 1)
        )
        kept = stored(server)
        assert {e["_id"] for e in obs} == {d["_id"] for d in kept}
        folded = fold_tile_deltas(events)
        assert folded == tiles_from_documents(kept, server.streaming.cell_m)

    def test_single_ingest_also_streams(self):
        server = make_server(sharding=2)
        sub = server.streaming.subscribe()
        server.data.ingest(APP, doc(0))
        events = server.streaming.next_events(sub)["events"]
        assert len(events) == 1


class TestRestSurface:
    def login(self, server):
        return server.enroll_user(APP, "alice", "pw")["token"]

    def test_subscribe_poll_unsubscribe(self):
        server = make_server()
        token = self.login(server)
        resp = server.handle(
            Request(
                "POST",
                f"/apps/{APP}/stream/subscriptions",
                body={"tiles": True},
                token=token,
            )
        )
        assert resp.status == 200
        sub_id = resp.body["subscription_id"]
        ingest(server, [doc(0)])
        events = server.handle(
            Request(
                "GET",
                f"/apps/{APP}/stream/subscriptions/{sub_id}/events",
                token=token,
            )
        )
        assert events.status == 200
        assert [e["kind"] for e in events.body["events"]] == [
            "observation",
            "tile",
        ]
        gone = server.handle(
            Request(
                "DELETE",
                f"/apps/{APP}/stream/subscriptions/{sub_id}",
                token=token,
            )
        )
        assert gone.status == 200 and gone.body["removed"]

    def test_requires_auth(self):
        server = make_server()
        resp = server.handle(
            Request("POST", f"/apps/{APP}/stream/subscriptions", body={})
        )
        assert resp.status == 401

    def test_bad_bodies_400(self):
        server = make_server()
        token = self.login(server)

        def post(body):
            return server.handle(
                Request(
                    "POST",
                    f"/apps/{APP}/stream/subscriptions",
                    body=body,
                    token=token,
                )
            ).status

        assert post({"regions": "g0:0"}) == 400
        assert post({"since": "yesterday"}) == 400
        assert post({"capacity": "big"}) == 400
        assert post({"observations": False, "tiles": False}) == 400
        assert post([1, 2, 3]) == 400

    def test_non_bool_flags_400(self):
        server = make_server()
        token = self.login(server)
        for body in ({"observations": "false"}, {"tiles": 1}, {"tiles": None}):
            resp = server.handle(
                Request(
                    "POST",
                    f"/apps/{APP}/stream/subscriptions",
                    body=body,
                    token=token,
                )
            )
            assert resp.status == 400
        assert server.streaming.stats()["subscriptions"] == 0

    def test_bad_query_params_400(self):
        server = make_server()
        token = self.login(server)
        sub_id = server.streaming.subscribe()
        resp = server.handle(
            Request(
                "GET",
                f"/apps/{APP}/stream/subscriptions/{sub_id}/events",
                params={"ack": "soon"},
                token=token,
            )
        )
        assert resp.status == 400

    def test_unknown_subscription_404(self):
        server = make_server()
        token = self.login(server)
        resp = server.handle(
            Request(
                "GET",
                f"/apps/{APP}/stream/subscriptions/sub-404/events",
                token=token,
            )
        )
        assert resp.status == 404

    def test_cross_app_access_404s(self):
        """Sub ids are guessable; another app's principal gets a 404
        indistinguishable from a bogus id — never the event stream."""
        server = make_server()
        server.register_app("OTHER")
        alice = self.login(server)
        bob = server.enroll_user("OTHER", "bob", "pw")["token"]
        resp = server.handle(
            Request(
                "POST",
                f"/apps/{APP}/stream/subscriptions",
                body={},
                token=alice,
            )
        )
        sub_id = resp.body["subscription_id"]
        ingest(server, [doc(0)])
        for method, path in [
            ("GET", f"/apps/OTHER/stream/subscriptions/{sub_id}/events"),
            ("DELETE", f"/apps/OTHER/stream/subscriptions/{sub_id}"),
        ]:
            stolen = server.handle(Request(method, path, token=bob))
            assert stolen.status == 404
        # a cross-app poll must not ack/discard events either: the
        # owner still sees everything.
        mine = server.handle(
            Request(
                "GET",
                f"/apps/{APP}/stream/subscriptions/{sub_id}/events",
                token=alice,
            )
        )
        assert mine.status == 200
        assert len(mine.body["events"]) == 1

    def test_same_app_other_user_404s(self):
        server = make_server()
        alice = self.login(server)
        mallory = server.enroll_user(APP, "mallory", "pw")["token"]
        resp = server.handle(
            Request(
                "POST",
                f"/apps/{APP}/stream/subscriptions",
                body={},
                token=alice,
            )
        )
        sub_id = resp.body["subscription_id"]
        probe = server.handle(
            Request(
                "GET",
                f"/apps/{APP}/stream/subscriptions/{sub_id}/events",
                token=mallory,
            )
        )
        assert probe.status == 404
        gone = server.handle(
            Request(
                "DELETE",
                f"/apps/{APP}/stream/subscriptions/{sub_id}",
                token=mallory,
            )
        )
        assert gone.status == 404

    def test_returned_events_are_copies(self):
        """Mutating a polled event can't corrupt the queued original
        that an unacked re-poll serves again (in-process transport
        hands the response back un-serialized)."""
        server = make_server()
        sub = server.streaming.subscribe()
        ingest(server, [doc(0)])
        (event,) = server.streaming.next_events(sub)["events"]
        event["noise_dba"] = 999.0
        event.clear()
        (again,) = server.streaming.next_events(sub)["events"]
        assert again["noise_dba"] == 50.0
        assert again["kind"] == "observation"

    def test_shared_event_is_not_aliased_across_subscribers(self):
        """Every recipient's outbox references the one event built per
        stored observation (and the one tile event per scope): a
        consumer mutating what it was handed must reach neither its
        own re-served copy nor another subscriber's."""
        server = make_server()
        first = server.streaming.subscribe(FilterSpec(app_id=APP), tiles=True)
        second = server.streaming.subscribe(FilterSpec(app_id=APP), tiles=True)
        ingest(server, [doc(0)])
        for event in server.streaming.next_events(first)["events"]:
            event["region"] = "tampered"
            event["cursor"] = 99
            event.pop("emitted_wall")
        for sub in (first, second):
            observation, tile = server.streaming.next_events(sub)["events"]
            assert (observation["kind"], observation["cursor"]) == ("observation", 1)
            assert (tile["kind"], tile["cursor"]) == ("tile", 2)
            assert observation["region"] == tile["region"] == "g0:0"
            assert "emitted_wall" in observation and "emitted_wall" in tile
            assert tile["count"] == 1


class TestClientConsumer:
    def test_consumer_tracks_cursor(self):
        server = make_server()
        token = server.enroll_user(APP, "alice", "pw")["token"]
        consumer = StreamConsumer(server, app_id=APP, token=token)
        uplink = RestBatchUplink(server, app_id=APP, token=token)
        uplink.send([doc(i) for i in range(4)])
        events = consumer.drain(limit=3)
        assert consumer.events_received == 4
        assert consumer.cursor == 4
        assert [e["cursor"] for e in events] == [1, 2, 3, 4]
        # polling again re-serves nothing: everything got acked
        assert consumer.poll() == []
        assert consumer.close()["removed"]
        with pytest.raises(StreamError):
            consumer._request(
                "GET",
                f"/apps/{APP}/stream/subscriptions/"
                f"{consumer.subscription_id}/events",
            )

    def test_rejected_subscription_raises(self):
        server = make_server()
        token = server.enroll_user(APP, "alice", "pw")["token"]
        with pytest.raises(StreamError):
            StreamConsumer(
                server,
                app_id=APP,
                token=token,
                observations=False,
                tiles=False,
            )


class TestBrokerTap:
    def test_goflow_queue_counts_confirmed_deliveries(self):
        server = make_server()
        sub = server.streaming.subscribe()
        credentials = server.enroll_user(APP, "alice", "pw")
        channel = server.broker.connect("tap-test").channel()
        for i in range(3):
            channel.basic_publish(
                credentials["exchange"],
                "Z0-0.NoiseObservation",
                doc(i),
            )
        # the GoFlow queue's own counters are the delivery evidence
        queue_stats = server.broker.get_queue(GOFLOW_QUEUE).stats
        assert queue_stats.enqueued == 3
        assert queue_stats.delivered == 3
        # by the time the publish returned, the events were fanned out
        assert server.middleware_stats()["streaming"]["fanned_out"] == 3
        assert len(server.streaming.next_events(sub)["events"]) == 3


class TestLiveMap:
    def test_live_map_served_from_tile_engine(self):
        server = make_server()
        app = SoundCityApp(server)
        token = server.enroll_user(APP, "alice", "pw")["token"]
        ingest(server, [doc(0, x_m=0.0), doc(1, x_m=900.0)])
        resp = app.handle(Request("GET", "/map/live", token=token))
        assert resp.status == 200
        assert resp.body["cell_m"] == 500.0
        assert resp.body["tiles"] == tiles_from_documents(stored(server), 500.0)
        one = app.handle(
            Request("GET", "/map/live", params={"region": "g0:0"}, token=token)
        )
        assert list(one.body["tiles"]) == ["g0:0"]


class TestErasureLeavesTheMap:
    """CNIL erasure moves the write marker: a built tile scope is
    rebuilt from the store, never served with the erased rows."""

    def manager_token(self, server):
        server.enroll_user(APP, "boss", "pw")
        server.accounts.set_role(APP, "boss", Role.MANAGER)
        return server.handle(
            Request(
                "POST",
                "/auth/login",
                body={"app_id": APP, "user_id": "boss", "password": "pw"},
            )
        ).body["token"]

    def erasure_server(self, sharding):
        """alice's 50/51/52 and bob's 50/51 dB(A), all in cell g0:0."""
        server = make_server(sharding=sharding)
        server.enroll_user(APP, "alice", "pw")
        server.enroll_user(APP, "bob", "pw")
        ingest(server, [doc(i) for i in range(3)])
        ingest(
            server,
            [doc(10 + i, user_id="bob", noise_dba=50.0 + i) for i in range(2)],
        )
        return server

    def erase_alice(self, server):
        resp = server.handle(
            Request(
                "DELETE",
                f"/apps/{APP}/users/alice",
                token=self.manager_token(server),
            )
        )
        assert resp.status == 200
        assert resp.body["deleted_observations"] == 3

    @pytest.mark.parametrize("sharding", [None, 4])
    def test_erased_contributor_leaves_the_live_map(self, sharding):
        server = self.erasure_server(sharding)
        # a reader built the scope before the erasure
        assert server.streaming.tiles_snapshot(app_id=APP)["g0:0"]["count"] == 5
        self.erase_alice(server)
        after = server.streaming.tiles_snapshot(app_id=APP)
        assert after == tiles_from_documents(stored(server), server.streaming.cell_m)
        tile = after["g0:0"]
        assert (tile["count"], tile["sum_dba"], tile["max_dba"]) == (2, 101.0, 51.0)
        assert server.data.materialized.totals()["total"] == 2

    @pytest.mark.parametrize("sharding", [None, 4])
    def test_tile_subscriber_scope_rebuilds_at_the_next_batch(self, sharding):
        server = self.erasure_server(sharding)
        sub = server.streaming.subscribe(
            FilterSpec(app_id=APP), observations=False, tiles=True
        )
        self.erase_alice(server)
        # the batch after the erasure finds the marker moved: the scope
        # is rebuilt from the store (which holds the batch) and the
        # subscriber's delta carries the rebuilt state
        ingest(server, [doc(20, user_id="bob", noise_dba=49.0)])
        expected = tiles_from_documents(stored(server), server.streaming.cell_m)
        (event,) = server.streaming.next_events(sub, limit=1000)["events"]
        assert fold_tile_deltas([event]) == expected
        assert event["count"] == 3
        assert server.streaming.tiles_snapshot(app_id=APP) == expected


class TestTileIsolation:
    """An app-scoped subscription's tiles carry that app's data only."""

    def other_doc(self, i):
        return {
            "obs_id": f"x{i}",
            "user_id": "eve",
            "taken_at": 500.0 + i,
            "noise_dba": 90.0,
            "location": {"x_m": 0.0, "y_m": 0.0},
        }

    def two_app_server(self):
        server = make_server()
        server.register_app("OTHER")
        server.data.ingest_many(APP, [doc(0), doc(1, x_m=900.0)])
        server.data.ingest_many("OTHER", [self.other_doc(i) for i in range(3)])
        return server

    def stored_for(self, server, app_id):
        documents = server.data.retrieve(DataQuery(app_id=app_id))
        return sorted(documents, key=lambda d: d["_id"])

    def test_rest_tile_stream_excludes_other_apps(self):
        server = make_server()
        server.register_app("OTHER")
        token = server.enroll_user(APP, "alice", "pw")["token"]
        resp = server.handle(
            Request(
                "POST",
                f"/apps/{APP}/stream/subscriptions",
                body={"observations": False, "tiles": True},
                token=token,
            )
        )
        sub_id = resp.body["subscription_id"]
        server.data.ingest_many(APP, [doc(0), doc(1, x_m=900.0)])
        server.data.ingest_many("OTHER", [self.other_doc(i) for i in range(3)])
        events = server.handle(
            Request(
                "GET",
                f"/apps/{APP}/stream/subscriptions/{sub_id}/events",
                params={"limit": "1000"},
                token=token,
            )
        ).body["events"]
        # only APP's two observations produced tile deltas here
        assert len(events) == 2
        folded = fold_tile_deltas(events)
        assert folded == tiles_from_documents(
            self.stored_for(server, APP), server.streaming.cell_m
        )
        # OTHER's 90 dB(A) samples at g0:0 never entered the fold
        assert folded["g0:0"]["max_dba"] == 50.0

    def test_scoped_and_global_snapshots(self):
        server = self.two_app_server()
        cell_m = server.streaming.cell_m
        assert server.streaming.tiles_snapshot(
            app_id=APP
        ) == tiles_from_documents(self.stored_for(server, APP), cell_m)
        assert server.streaming.tiles_snapshot(
            app_id="OTHER"
        ) == tiles_from_documents(self.stored_for(server, "OTHER"), cell_m)
        assert server.streaming.tiles_snapshot() == tiles_from_documents(
            self.stored_for(server, APP)
            + self.stored_for(server, "OTHER"),
            cell_m,
        )
        assert server.streaming.tiles_snapshot(app_id="unseen-app") == {}

    def test_unscoped_subscription_still_sees_global_map(self):
        server = make_server()
        server.register_app("OTHER")
        sub = server.streaming.subscribe(observations=False, tiles=True)
        server.data.ingest_many(APP, [doc(0)])
        server.data.ingest_many("OTHER", [self.other_doc(0)])
        events = server.streaming.next_events(sub, limit=100)["events"]
        assert len(events) == 2
        assert fold_tile_deltas(events) == server.streaming.tiles_snapshot()

    def test_live_map_is_app_scoped(self):
        server = self.two_app_server()
        app = SoundCityApp(server)
        token = server.enroll_user(APP, "alice", "pw")["token"]
        resp = app.handle(Request("GET", "/map/live", token=token))
        assert resp.body["tiles"] == tiles_from_documents(
            self.stored_for(server, APP), server.streaming.cell_m
        )


class TestManagerClockIsolation:
    def test_events_carry_sim_and_wall_stamps(self):
        ticks = iter([5.0, 6.0])
        manager = SubscriptionManager(
            clock=lambda: next(ticks), wall_clock=lambda: 42.0
        )
        sub = manager.subscribe()
        manager.on_stored(APP, [(doc(0), 1)])
        (event,) = manager.next_events(sub)["events"]
        assert event["emitted_at"] == 5.0
        assert event["emitted_wall"] == 42.0
