"""Push ≡ poll, row-exact, under hypothesis.

The live subscription plane must be a *view* of the store, never a
second source of truth. Two oracles pin that down:

1. **Subscription oracle**: whatever a subscriber received must equal a
   brute-force re-filter of everything ingested — same rows, same
   global (``_id``) order — for random documents and random filter
   specs, on the unsharded ingest plane and through the sharded
   router's delta stream alike.
2. **Tile oracle**: folding the incremental tile deltas a subscriber
   received must reproduce the from-scratch tile recompute over the
   stored documents, bit-exact (both are the same left fold in ``_id``
   order).
3. **Late-built scopes**: a tile scope is built from the store at its
   first reader and kept by the write marker, so whenever it is read —
   after ingest, subscriber churn or erasure — it equals that
   recompute over the scope's stored documents; and a server nobody
   reads tiles from folds none.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.datamgmt import DataQuery
from repro.core.errors import NotFoundError
from repro.core.server import GoFlowServer
from repro.sharding.region import region_of
from repro.streaming import (
    FilterSpec,
    fold_tile_deltas,
    observation_event,
    tiles_from_documents,
)

APP = "oracle-app"

DOCUMENTS = st.lists(
    st.fixed_dictionaries(
        {
            "noise_dba": st.one_of(
                st.none(),
                st.integers(min_value=30, max_value=90),
                st.floats(
                    min_value=30.0, max_value=100.0, allow_nan=False
                ),
            ),
            "model": st.sampled_from([None, "nexus5", "iphone6", "pixel"]),
            "datatype": st.sampled_from([None, "Observation", "BatteryLevel"]),
        }
    ),
    max_size=40,
)

REGION_KEYS = ["g0:0", "g1:0", "g2:1", "g0:1", "default", "d1"]

SPECS = st.builds(
    FilterSpec,
    app_id=st.sampled_from([None, APP, "other-app"]),
    datatype=st.sampled_from([None, "Observation", "BatteryLevel"]),
    model=st.sampled_from([None, "nexus5", "pixel"]),
    regions=st.one_of(
        st.none(),
        st.sets(st.sampled_from(REGION_KEYS), max_size=4).map(frozenset),
    ),
    since=st.one_of(
        st.none(), st.floats(min_value=0.0, max_value=2e5, allow_nan=False)
    ),
    until=st.one_of(
        st.none(), st.floats(min_value=0.0, max_value=2e5, allow_nan=False)
    ),
)


def _wire_documents(docs):
    """Stamp identity + routing spread (same lattice as the sharded
    oracle: grid cells, day buckets, and the no-key fallback)."""
    wire = []
    for index, doc in enumerate(docs):
        out = {k: v for k, v in doc.items() if v is not None}
        out["obs_id"] = f"obs-{index}"
        out["user_id"] = f"user{index % 4}"
        if index % 11 == 10:
            pass  # no routing hints: the "default" region
        elif index % 5 == 0:
            out["taken_at"] = float(index * 43200)
        else:
            out["taken_at"] = float(index * 100)
            out["location"] = {
                "x_m": float((index * 1237) % 4) * 600.0,
                "y_m": float((index * 911) % 4) * 600.0,
            }
        wire.append(out)
    return wire


def _drain(server, sub_id, chunk=7):
    """Consume a subscription with ack cursors, in small chunks."""
    events = []
    cursor = 0
    while True:
        result = server.streaming.next_events(sub_id, ack=cursor, limit=chunk)
        events.extend(result["events"])
        cursor = result["cursor"]
        if not result["events"] and result["pending"] == 0:
            return events


def _strip(events):
    """Drop delivery-time stamps, keeping the data projection."""
    projected = []
    for event in events:
        out = dict(event)
        out.pop("cursor", None)
        out.pop("emitted_at", None)
        out.pop("emitted_wall", None)
        projected.append(out)
    return projected


def _stored(server):
    documents = server.data.retrieve(DataQuery(app_id=APP))
    return sorted(documents, key=lambda d: d["_id"])


def _brute_force(server, spec, cell_m):
    """The oracle: re-filter everything stored, in global order."""
    expected = []
    for document in _stored(server):
        region = region_of(document, cell_m)
        if spec.matches(APP, document, region):
            expected.append(
                observation_event(document, document["_id"], APP, region)
            )
    return expected


class TestSubscriptionOracle:
    @settings(max_examples=50, deadline=None)
    @given(DOCUMENTS, SPECS)
    def test_push_equals_brute_force_refilter(self, docs, spec):
        server = GoFlowServer()
        server.register_app(APP)
        sub = server.streaming.subscribe(spec)
        server.data.ingest_many(APP, _wire_documents(docs))
        received = _drain(server, sub)
        assert all(e["kind"] == "observation" for e in received)
        # cursors are contiguous from 1 — no gaps, no duplicates
        assert [e["cursor"] for e in received] == list(
            range(1, len(received) + 1)
        )
        assert _strip(received) == _brute_force(
            server, spec, server.streaming.cell_m
        )

    @settings(max_examples=25, deadline=None)
    @given(DOCUMENTS, SPECS, st.sampled_from([2, 3, 5]))
    def test_sharded_push_matches_unsharded(self, docs, spec, shards):
        sharded = GoFlowServer(sharding=shards)
        sharded.register_app(APP)
        unsharded = GoFlowServer()
        unsharded.register_app(APP)
        wire = _wire_documents(docs)
        sharded_sub = sharded.streaming.subscribe(spec)
        unsharded_sub = unsharded.streaming.subscribe(spec)
        sharded.data.ingest_many(APP, [dict(d) for d in wire])
        unsharded.data.ingest_many(APP, [dict(d) for d in wire])
        from_sharded = _strip(_drain(sharded, sharded_sub))
        from_unsharded = _strip(_drain(unsharded, unsharded_sub))
        # the router's global-order merge makes the planes row-exact
        assert from_sharded == from_unsharded
        assert from_sharded == _brute_force(
            sharded, spec, sharded.streaming.cell_m
        )

    @settings(max_examples=30, deadline=None)
    @given(DOCUMENTS, st.integers(min_value=1, max_value=7))
    def test_interleaved_ingest_and_polls(self, docs, batch):
        """Polling mid-stream changes nothing about the union."""
        server = GoFlowServer()
        server.register_app(APP)
        spec = FilterSpec(app_id=APP)
        sub = server.streaming.subscribe(spec)
        wire = _wire_documents(docs)
        received = []
        cursor = 0
        for start in range(0, len(wire), batch):
            server.data.ingest_many(APP, wire[start : start + batch])
            result = server.streaming.next_events(sub, ack=cursor, limit=3)
            received.extend(result["events"])
            cursor = result["cursor"]
        while True:
            result = server.streaming.next_events(sub, ack=cursor, limit=3)
            received.extend(result["events"])
            cursor = result["cursor"]
            if not result["events"] and result["pending"] == 0:
                break
        assert [e["cursor"] for e in received] == list(
            range(1, len(received) + 1)
        )
        assert _strip(received) == _brute_force(
            server, spec, server.streaming.cell_m
        )


#: one of each index placement: everything, region-unscoped within the
#: app, app-unscoped within two cells, and fully scoped
MIXED_SCOPES = [
    FilterSpec(),
    FilterSpec(app_id=APP),
    FilterSpec(regions=frozenset({"g0:0", "g1:0"})),
    FilterSpec(app_id=APP, regions=frozenset({"g0:0", "d1"})),
]


class TestMixedScopeOracle:
    """Scoped and unscoped subscriptions side by side: each stream is
    its own re-filter, and one leaving mid-stream moves no other."""

    @pytest.mark.parametrize("sharding", [None, 3])
    @settings(max_examples=20, deadline=None)
    @given(
        docs=DOCUMENTS,
        extra=st.lists(SPECS, max_size=3),
        leaver=st.integers(min_value=0, max_value=3),
    )
    def test_each_stream_is_its_own_refilter(self, sharding, docs, extra, leaver):
        server = GoFlowServer(sharding=sharding)
        server.register_app(APP)
        specs = MIXED_SCOPES + extra
        subs = [server.streaming.subscribe(spec) for spec in specs]
        wire = _wire_documents(docs)
        half = len(wire) // 2
        server.data.ingest_many(APP, wire[:half])
        before_leaving = _strip(_drain(server, subs[leaver]))
        stored_then = len(_stored(server))
        server.streaming.unsubscribe(subs[leaver])
        server.data.ingest_many(APP, wire[half:])
        cell_m = server.streaming.cell_m
        for index, (sub, spec) in enumerate(zip(subs, specs)):
            expected = _brute_force(server, spec, cell_m)
            if index == leaver:
                with pytest.raises(NotFoundError):
                    server.streaming.next_events(sub)
                # it saw exactly the first half's matches, then nothing
                stored_ids = {d["_id"] for d in _stored(server)[:stored_then]}
                assert before_leaving == [
                    e for e in expected if e["_id"] in stored_ids
                ]
                continue
            received = _drain(server, sub)
            assert [e["cursor"] for e in received] == list(
                range(1, len(received) + 1)
            )
            assert _strip(received) == expected
        assert server.middleware_stats()["streaming"]["subscriptions"] == (
            len(specs) - 1
        )


class TestTileOracle:
    @settings(max_examples=50, deadline=None)
    @given(DOCUMENTS)
    def test_folded_deltas_equal_recompute(self, docs):
        server = GoFlowServer()
        server.register_app(APP)
        sub = server.streaming.subscribe(observations=False, tiles=True)
        server.data.ingest_many(APP, _wire_documents(docs))
        events = _drain(server, sub)
        assert all(e["kind"] == "tile" for e in events)
        folded = fold_tile_deltas(events)
        recomputed = tiles_from_documents(
            _stored(server), server.streaming.cell_m
        )
        # bit-exact: both are the same left fold in _id order
        assert folded == recomputed
        # the engine's own snapshot agrees too
        assert server.streaming.tiles_snapshot() == recomputed

    @settings(max_examples=25, deadline=None)
    @given(DOCUMENTS, st.sampled_from([2, 3]))
    def test_sharded_tile_deltas_fold_exactly(self, docs, shards):
        server = GoFlowServer(sharding=shards)
        server.register_app(APP)
        sub = server.streaming.subscribe(observations=False, tiles=True)
        server.data.ingest_many(APP, _wire_documents(docs))
        folded = fold_tile_deltas(_drain(server, sub))
        assert folded == tiles_from_documents(
            _stored(server), server.streaming.cell_m
        )


OTHER = "other-app"
USERS = ["user0", "user1", "user2", "user3"]
#: None is the global scope
SCOPES = [None, APP, OTHER]

STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("ingest"), st.sampled_from([APP, OTHER]), DOCUMENTS),
        st.tuples(st.just("subscribe"), st.sampled_from(SCOPES)),
        st.tuples(st.just("unsubscribe"), st.integers(min_value=0, max_value=5)),
        st.tuples(st.just("snapshot"), st.sampled_from(SCOPES)),
        # an erasure, then the app's next batch (possibly empty): the
        # batch meets a moved marker before any reader does
        st.tuples(
            st.just("erase"),
            st.sampled_from([APP, OTHER]),
            st.sampled_from(USERS),
            DOCUMENTS,
        ),
    ),
    max_size=10,
)


def _scope_documents(server, scope):
    """The scope's stored documents in global ``_id`` order."""
    return sorted(
        (
            doc
            for doc in server.data.collection.iter_documents()
            if scope is None or doc.get("app_id") == scope
        ),
        key=lambda doc: doc["_id"],
    )


class TestLateBuiltScopes:
    @pytest.mark.parametrize("sharding", [None, 4])
    @settings(max_examples=40, deadline=None)
    @given(steps=STEPS)
    def test_every_read_scope_equals_recompute(self, sharding, steps):
        server = GoFlowServer(sharding=sharding)
        server.register_app(APP)
        server.register_app(OTHER)
        cell_m = server.streaming.cell_m
        sent = 0
        subs = []
        read = set()

        def ingest(app_id, docs):
            nonlocal sent
            wire = _wire_documents(docs)
            for doc in wire:
                doc["obs_id"] = f"obs-{sent}"
                sent += 1
            server.data.ingest_many(app_id, wire)

        for step in steps:
            kind = step[0]
            if kind == "ingest":
                ingest(step[1], step[2])
            elif kind == "subscribe":
                subs.append(
                    server.streaming.subscribe(
                        FilterSpec(app_id=step[1]), observations=False, tiles=True
                    )
                )
                read.add(step[1])
            elif kind == "unsubscribe" and subs:
                server.streaming.unsubscribe(subs.pop(step[1] % len(subs)))
            elif kind == "snapshot":
                read.add(step[1])
            elif kind == "erase":
                server.data.delete_contributor_data(step[1], step[2])
                ingest(step[1], step[3])
            for scope in read:
                assert server.streaming.tiles_snapshot(
                    app_id=scope
                ) == tiles_from_documents(_scope_documents(server, scope), cell_m)
        assert server.streaming.stats()["tiles"]["app_engines"] <= 2

    @pytest.mark.parametrize("sharding", [None, 4])
    def test_no_tile_reader_folds_nothing(self, sharding):
        server = GoFlowServer(sharding=sharding)
        server.register_app(APP)
        # an observation-only subscriber is not a tile reader
        sub = server.streaming.subscribe(FilterSpec(app_id=APP))
        wire = _wire_documents([{"noise_dba": 40 + i} for i in range(30)])
        server.data.ingest_many(APP, wire)
        assert len(_drain(server, sub)) == 30
        assert server.streaming.stats()["tiles"] == {
            "regions": 0,
            "deltas": 0,
            "app_engines": 0,
        }
        # the first read builds the scope: one fold per stored document
        snapshot = server.streaming.tiles_snapshot(app_id=APP)
        tiles = server.streaming.stats()["tiles"]
        assert (tiles["deltas"], tiles["app_engines"]) == (30, 1)
        assert tiles["regions"] == len(snapshot)
        # kept: a second read rescans nothing
        server.streaming.tiles_snapshot(app_id=APP)
        assert server.streaming.stats()["tiles"]["deltas"] == 30
