"""The one write body: what folding per-op ingest into the batch of one
guarantees, on both topologies.

- an observation's ``_id`` is the server's to assign — a wire ``_id``
  (hostile or merely confused) never reaches the store;
- the stored form of an observation does not depend on the uplink that
  carried it;
- delivery counters live in the data plane: every surface that reports
  them reads the same numbers;
- ``middleware_stats()`` keeps its whole key tree.
"""

import copy
import json

import pytest

from repro.core.api import Request
from repro.core.privacy import PrivacyPolicy
from repro.core.server import GoFlowServer
from repro.sharding.router import ShardRouter, ShardingConfig

APP = "SC"
USER = "alice"

TOPOLOGIES = pytest.mark.parametrize(
    "sharding", [None, 2], ids=["unsharded", "sharded"]
)


def _server(sharding):
    server = GoFlowServer(sharding=sharding)
    server.register_app(APP)
    credentials = server.enroll_user(APP, USER, "pw")
    return server, credentials


def _observation(n, **extra):
    return {
        "app_id": APP,
        "obs_id": f"{USER}:{n}",
        "user_id": USER,
        "model": f"m{n % 3}",
        "taken_at": float(n),
        "noise_dba": 40.0 + n,
        # one grid cell per observation: a sharded server spreads them
        "location": {"provider": "gps", "x_m": 600.0 * n, "y_m": 0.0},
        **extra,
    }


def _post_dict(server, credentials, documents):
    return server.handle(
        Request(
            "POST",
            f"/apps/{APP}/observations/batch",
            body={"observations": documents},
            token=credentials["token"],
        )
    )


def _post_text(server, credentials, documents):
    return server.handle(
        Request(
            "POST",
            f"/apps/{APP}/observations/batch",
            body=json.dumps({"observations": documents}),
            token=credentials["token"],
        )
    )


def _publish(server, credentials, documents):
    """One confirmed broker publish per document."""
    channel = server.broker.connect().channel()
    channel.confirm_select()
    for document in documents:
        seq = channel.basic_publish(
            credentials["exchange"], "Z0-0.NoiseObservation", document
        )
        assert channel.confirmed(seq)


def _send(route):
    """Uniform ``send(server, credentials, documents)`` over the routes;
    REST routes also assert the 200."""
    if route == "broker":
        return _publish

    post = _post_dict if route == "rest_dict" else _post_text

    def send(server, credentials, documents):
        response = post(server, credentials, documents)
        assert response.status == 200, response.body
        return response

    return send


def _stored(server):
    return server.data.collection.iter_documents()


def _without_id(document):
    return {key: value for key, value in document.items() if key != "_id"}


class TestServerAssignsIds:
    @TOPOLOGIES
    @pytest.mark.parametrize("route", ["rest_dict", "rest_text", "broker"])
    @pytest.mark.parametrize(
        "wire_id", [1, [1, 2], 10**12, "x"], ids=["taken", "list", "huge", "str"]
    )
    def test_wire_id_is_dropped(self, sharding, route, wire_id):
        server, credentials = _server(sharding)
        send = _send(route)
        send(server, credentials, [_observation(0), _observation(1)])
        last_id = max(document["_id"] for document in _stored(server))
        hostile = _observation(2, _id=wire_id)
        keepsake = copy.deepcopy(hostile)
        send(server, credentials, [hostile])
        if route != "rest_text":
            assert hostile == keepsake  # caller-retained: never mutated
        documents = _stored(server)
        assert len(documents) == 3
        ids = [document["_id"] for document in documents]
        assert all(type(doc_id) is int for doc_id in ids)
        assert len(set(ids)) == 3
        [stored] = [d for d in documents if d["taken_at"] == 2.0]
        # the allocator did not move: each next id is the previous + 1
        assert stored["_id"] == last_id + 1
        send(server, credentials, [_observation(3)])
        [after] = [d for d in _stored(server) if d["taken_at"] == 3.0]
        assert after["_id"] == stored["_id"] + 1
        # a retransmit (same hostile _id) dedupes
        send(server, credentials, [copy.deepcopy(keepsake)])
        assert len(_stored(server)) == 4
        assert server.ingested == 4
        assert server.deduped == 1


class TestStoredFormIsUplinkIndependent:
    #: a tuple value, an int-keyed sub-dict, a legacy user-embedding stamp
    WIRE = _observation(7, tags=("a", "b"), extra={1: "x"})

    def _store_via(self, sharding, route):
        server, credentials = _server(sharding)
        document = copy.deepcopy(self.WIRE)
        if route == "ingest":
            assert server.data.ingest(APP, document) is not None
        else:
            _send(route)(server, credentials, [document])
        [stored] = _stored(server)
        return _without_id(stored)

    @TOPOLOGIES
    def test_same_document_whichever_way_it_travelled(self, sharding):
        via_broker = self._store_via(sharding, "broker")
        assert via_broker["tags"] == ("a", "b")
        assert via_broker["extra"] == {1: "x"}
        assert via_broker["obs_id"] == PrivacyPolicy().pseudonym(USER) + ":7"
        assert "user_id" not in via_broker
        assert self._store_via(sharding, "ingest") == via_broker
        assert self._store_via(sharding, "rest_dict") == via_broker
        # JSON text can only carry the JSON image of the same document
        assert self._store_via(sharding, "rest_text") == json.loads(
            json.dumps(via_broker)
        )


class TestRouterFailedInsert:
    def test_failed_insert_does_not_poison_ledger(self, monkeypatch):
        router = ShardRouter(PrivacyPolicy(salt="t"), config=ShardingConfig(shards=2))
        doc = {"user_id": "u", "obs_id": "u:1", "taken_at": 1.0}
        collection = router.shards[router.shard_for(doc)].collection
        original = collection.insert_many
        failures = ["store briefly down"]

        def flaky_insert(documents, **kwargs):
            if failures:
                raise RuntimeError(failures.pop())
            return original(documents, **kwargs)

        monkeypatch.setattr(collection, "insert_many", flaky_insert)
        with pytest.raises(RuntimeError):
            router.ingest(APP, doc)
        assert router.dedup_info()["size"] == 0
        assert router.ingested == 0
        # the client's at-least-once retry is a fresh ingest, not a dup
        assert router.ingest(APP, dict(doc)) is not None
        assert router.ingested == 1
        assert router.dedup_hits == 0
        assert router.collection.count(None) == 1


class TestCountersAreOneThing:
    @TOPOLOGIES
    def test_every_surface_reads_the_data_plane(self, sharding):
        server, credentials = _server(sharding)
        _publish(server, credentials, [_observation(n) for n in range(4)])
        _publish(server, credentials, [_observation(1)])  # redelivery
        response = _post_dict(
            server, credentials, [_observation(n) for n in range(2, 8)]
        )
        assert (response.body["ingested"], response.body["deduped"]) == (4, 2)
        response = _post_text(
            server, credentials, [_observation(n) for n in range(6, 10)]
        )
        assert (response.body["ingested"], response.body["deduped"]) == (2, 2)
        # direct callers of the data plane are counted like anyone else
        assert server.data.ingest(APP, _observation(10)) is not None
        assert server.data.ingest(APP, _observation(10)) is None
        assert server.data.ingest_many(
            APP, [_observation(11), _observation(11), _observation(0)]
        )[1:] == [None, None]
        stats = server.middleware_stats()
        assert (
            server.ingested
            == stats["ingested"]
            == server.data.ingested
            == len(server.data.collection)
            == 12
        )
        assert (
            server.deduped
            == stats["reliability"]["deduped"]
            == stats["reliability"]["dedup_ledger"]["hits"]
            == server.data.dedup_hits
            == 8
        )
        assert stats["reliability"]["dedup_ledger"]["size"] == 12

    def test_reliability_section_has_one_shape(self):
        unsharded, _ = _server(None)
        sharded, _ = _server(2)
        assert _key_tree(unsharded.middleware_stats()["reliability"]) == _key_tree(
            sharded.middleware_stats()["reliability"]
        )
        assert set(unsharded.data.reliability_snapshot()) == set(
            sharded.data.reliability_snapshot()
        )


def _key_tree(value):
    if isinstance(value, dict):
        return {key: _key_tree(inner) for key, inner in value.items()}
    return None


def _leaves(*keys):
    return dict.fromkeys(keys)


_COLUMNAR = _leaves(
    "enabled", "reason", "fields", "rows", "fresh", "rebuilds", "appends",
    "invalidations", "kernel_hits", "fallbacks", "column_bytes",
)  # fmt: skip

#: what both topologies share, key for key
_COMMON_TREE = {
    "ingested": None,
    "reliability": {
        "deduped": None,
        "dedup_ledger": _leaves("size", "hits"),
        "redeliveries": None,
        "delayed_in_flight": None,
        "faults": None,
    },
    "broker": {
        "publishes": None,
        "routed": None,
        "unroutable": None,
        "route_cache": _leaves(
            "size", "capacity", "hits", "misses", "topology_version"
        ),
        "topic_cache_hits": None,
        "topic_cache_misses": None,
    },
    "observations": _leaves(
        "inserts", "queries", "index_hits", "full_scans", "plan_cache_hits",
        "plan_cache_misses", "index_folds",
    ),  # fmt: skip
    "streaming": {
        **_leaves(
            "subscriptions", "created", "unsubscribed", "evicted", "fanned_out",
            "candidates", "dropped", "lagged_markers", "polls",
        ),  # fmt: skip
        "tiles": _leaves("regions", "deltas", "app_engines"),
    },
}

_MATERIALIZED = _leaves(
    "fresh", "rebuilds", "incremental_updates", "invalidations", "degraded"
)

_SHARD_NAMES = ("shard-00", "shard-01")


class TestMiddlewareStatsKeyTree:
    def _stats(self, sharding):
        server, credentials = _server(sharding)
        _publish(server, credentials, [_observation(n) for n in range(6)])
        _post_text(server, credentials, [_observation(n) for n in range(4, 9)])
        return server.middleware_stats()

    def test_unsharded(self):
        assert _key_tree(self._stats(None)) == {
            **_COMMON_TREE,
            "materialized": _MATERIALIZED,
            "columnar": _COLUMNAR,
            "durability": _leaves("enabled"),
            "sharding": _leaves("enabled"),
        }

    def test_sharded(self):
        stats = self._stats(2)
        assert _key_tree(stats) == {
            **_COMMON_TREE,
            "materialized": _MATERIALIZED,
            "columnar": {
                **_leaves("enabled", "fresh", "sharded", "rows", "column_bytes"),
                "shards": {name: _COLUMNAR for name in _SHARD_NAMES},
            },
            "durability": {
                **_leaves("enabled", "sharded"),
                "shards": {name: _leaves("enabled") for name in _SHARD_NAMES},
            },
            "sharding": {
                "enabled": None,
                "shards": {
                    name: _leaves("documents", "ingested", "deduped", "ledger")
                    for name in _SHARD_NAMES
                },
                "ring": _leaves("nodes", "vnodes"),
                "router": {
                    "routes": _leaves(*_SHARD_NAMES),
                    **_leaves(
                        "fanout_queries", "single_shard_batches", "split_batches"
                    ),
                },
                "rebalance": _leaves("moves", "handoffs", "repaired"),
            },
        }
        # the per-shard counters are the shard data managers' own
        shards = stats["sharding"]["shards"]
        assert sum(shard["ingested"] for shard in shards.values()) == 9
        assert sum(shard["documents"] for shard in shards.values()) == 9
        assert sum(shard["deduped"] for shard in shards.values()) == 2
        assert sum(shard["ledger"] for shard in shards.values()) == 9
