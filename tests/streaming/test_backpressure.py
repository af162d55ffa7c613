"""Backpressure battery: bounded outboxes, lagged markers, eviction.

The policy under test (seeded, deterministic):

1. a subscriber's outbox is bounded (``capacity``);
2. when full, the *oldest* unacked event is dropped and the gap is
   surfaced as a one-time ``lagged`` marker on the next poll;
3. every drop counts as an overrun; after ``max_overruns`` overruns
   the subscription is evicted (a terminal ``evicted`` event);
4. a slow consumer never blocks ingest or other subscribers
   (no head-of-line blocking).
"""

import random

import pytest

from repro.core.server import GoFlowServer
from repro.streaming import FilterSpec, SubscriptionManager

APP = "SC"
SEED = 4242


def make_server():
    server = GoFlowServer()
    server.register_app(APP)
    return server


def doc(i, **extra):
    base = {
        "obs_id": f"bp{i}",
        "user_id": "alice",
        "taken_at": 100.0 + i,
        "noise_dba": 40.0 + (i % 30),
        "location": {"x_m": 50.0 * (i % 7), "y_m": 0.0},
    }
    base.update(extra)
    return base


class TestLagged:
    def test_overflow_drops_oldest_and_marks_lag(self):
        server = make_server()
        sub = server.streaming.subscribe(capacity=4, max_overruns=0)
        server.data.ingest_many(APP, [doc(i) for i in range(10)])
        result = server.streaming.next_events(sub, limit=100)
        marker, *events = result["events"]
        assert marker["kind"] == "lagged"
        assert marker["missed_from"] == 1
        assert marker["missed_to"] == 6
        assert marker["missed"] == 6
        # the four freshest survived, in order
        assert [e["cursor"] for e in events] == [7, 8, 9, 10]
        assert result["state"] == "live"

    def test_lag_marker_is_one_time(self):
        server = make_server()
        sub = server.streaming.subscribe(capacity=2, max_overruns=0)
        server.data.ingest_many(APP, [doc(i) for i in range(5)])
        first = server.streaming.next_events(sub)
        assert first["events"][0]["kind"] == "lagged"
        # nothing new dropped since: the marker must not repeat
        again = server.streaming.next_events(sub)
        assert all(e["kind"] != "lagged" for e in again["events"])

    def test_keeping_up_never_lags(self):
        rng = random.Random(SEED)
        server = make_server()
        sub = server.streaming.subscribe(capacity=8, max_overruns=0)
        cursor = 0
        received = 0
        for start in range(0, 64, 4):
            server.data.ingest_many(
                APP, [doc(start + j) for j in range(rng.randint(1, 4))]
            )
            result = server.streaming.next_events(sub, ack=cursor, limit=100)
            assert all(e["kind"] == "observation" for e in result["events"])
            received += len(result["events"])
            cursor = result["cursor"]
        info = server.streaming.subscription_info(sub)
        assert info["dropped"] == 0
        assert info["lagged_markers"] == 0
        assert received == info["delivered"]


class TestEviction:
    def test_eviction_after_overrun_budget(self):
        server = make_server()
        sub = server.streaming.subscribe(capacity=3, max_overruns=5)
        # 3 fill the outbox, the next 5 each drop one -> budget spent
        server.data.ingest_many(APP, [doc(i) for i in range(8)])
        info = server.streaming.subscription_info(sub)
        assert info["state"] == "evicted"
        assert info["dropped"] == 5
        assert info["overruns"] == 5
        result = server.streaming.next_events(sub)
        assert result["state"] == "evicted"
        assert result["events"] == [{"kind": "evicted", "overruns": 5}]
        assert result["pending"] == 0
        # terminal: the marker is delivered exactly once
        assert server.streaming.next_events(sub)["events"] == []
        stats = server.middleware_stats()["streaming"]
        assert stats["evicted"] == 1
        assert stats["subscriptions"] == 0

    def test_evicted_subscriber_receives_nothing_further(self):
        server = make_server()
        sub = server.streaming.subscribe(capacity=1, max_overruns=1)
        server.data.ingest_many(APP, [doc(0), doc(1)])
        assert server.streaming.subscription_info(sub)["state"] == "evicted"
        delivered_at_eviction = server.streaming.subscription_info(sub)[
            "delivered"
        ]
        server.data.ingest_many(APP, [doc(2), doc(3)])
        assert (
            server.streaming.subscription_info(sub)["delivered"]
            == delivered_at_eviction
        )

    def test_evicted_subscriber_stops_costing_ingest(self):
        """Eviction takes the subscription out of the fan-out index —
        not just out of the deliveries: ingest examines it no more,
        though it stays registered until its client deletes it."""
        server = make_server()
        sub = server.streaming.subscribe(capacity=1, max_overruns=1)
        server.data.ingest_many(APP, [doc(0), doc(1)])
        assert server.streaming.subscription_info(sub)["state"] == "evicted"
        examined = server.middleware_stats()["streaming"]["candidates"]
        assert examined == 2
        server.data.ingest_many(APP, [doc(i) for i in range(2, 12)])
        stats = server.middleware_stats()["streaming"]
        assert stats["candidates"] == examined
        assert stats["subscriptions"] == 0
        # still there for its one-time marker and a clean delete
        assert server.streaming.next_events(sub)["events"] == [
            {"kind": "evicted", "overruns": 1}
        ]
        assert server.streaming.unsubscribe(sub) == {
            "removed": True,
            "state": "evicted",
        }
        assert server.middleware_stats()["streaming"]["subscriptions"] == 0

    def test_zero_budget_disables_eviction(self):
        server = make_server()
        sub = server.streaming.subscribe(capacity=2, max_overruns=0)
        server.data.ingest_many(APP, [doc(i) for i in range(50)])
        info = server.streaming.subscription_info(sub)
        assert info["state"] == "live"
        assert info["dropped"] == 48

    def test_acking_consumer_spends_no_budget(self):
        server = make_server()
        # acks trail ingest by one poll, so the outbox must hold two
        # batches: one unacked-but-returned, one freshly fanned out
        sub = server.streaming.subscribe(capacity=8, max_overruns=3)
        cursor = 0
        for start in range(0, 40, 4):
            server.data.ingest_many(APP, [doc(start + j) for j in range(4)])
            result = server.streaming.next_events(sub, ack=cursor, limit=10)
            cursor = result["cursor"]
        info = server.streaming.subscription_info(sub)
        assert info["state"] == "live"
        assert info["overruns"] == 0


class TestNoHeadOfLineBlocking:
    def test_fast_subscriber_unaffected_by_slow_one(self):
        rng = random.Random(SEED)
        server = make_server()
        slow = server.streaming.subscribe(capacity=2, max_overruns=10)
        fast = server.streaming.subscribe()  # default 1024-deep outbox
        total = 0
        fast_cursor = 0
        fast_seen = 0
        for _ in range(12):
            batch = [doc(total + j) for j in range(rng.randint(2, 5))]
            total += len(batch)
            server.data.ingest_many(APP, batch)
            result = server.streaming.next_events(
                fast, ack=fast_cursor, limit=100
            )
            assert all(e["kind"] == "observation" for e in result["events"])
            fast_seen += len(result["events"])
            fast_cursor = result["cursor"]
            # the slow consumer never polls
        assert fast_seen == total
        fast_info = server.streaming.subscription_info(fast)
        assert fast_info["dropped"] == 0 and fast_info["state"] == "live"
        assert server.streaming.subscription_info(slow)["state"] == "evicted"
        # ingest itself never blocked: everything got stored
        stats = server.middleware_stats()["streaming"]
        assert stats["evicted"] == 1

    def test_default_capacity_absorbs_bursts(self):
        server = make_server()
        sub = server.streaming.subscribe()  # default 1024-deep outbox
        server.data.ingest_many(APP, [doc(i) for i in range(500)])
        info = server.streaming.subscription_info(sub)
        assert info["dropped"] == 0
        assert info["pending"] == 500


class TestStatsConsistency:
    def test_counters_add_up(self):
        server = make_server()
        bounded = server.streaming.subscribe(capacity=5, max_overruns=0)
        unbounded = server.streaming.subscribe(capacity=10_000)
        count = 37
        server.data.ingest_many(APP, [doc(i) for i in range(count)])
        server.streaming.next_events(bounded, limit=100)
        stats = server.middleware_stats()["streaming"]
        assert stats["fanned_out"] == 2 * count
        assert stats["dropped"] == count - 5
        assert stats["lagged_markers"] == 1
        b = server.streaming.subscription_info(bounded)
        u = server.streaming.subscription_info(unbounded)
        assert b["delivered"] + u["delivered"] == stats["fanned_out"]
        assert b["dropped"] + u["dropped"] == stats["dropped"]

    def test_manager_level_defaults_apply(self):
        manager = SubscriptionManager(
            clock=lambda: 0.0,
            default_capacity=2,
            default_max_overruns=3,
        )
        sub = manager.subscribe(FilterSpec())
        for i in range(5):
            manager.on_stored(APP, [(doc(i), i + 1)])
        info = manager.subscription_info(sub)
        assert info["state"] == "evicted"
        assert info["capacity"] == 2
        assert info["max_overruns"] == 3
