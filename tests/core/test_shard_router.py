"""The shard router's operational surface.

Row-exactness against an unsharded store is the property oracle's job
(``tests/property/test_sharded_oracle.py``) and crash safety is
``tests/integration/test_rebalance_crash.py``'s; these tests pin what
neither covers — sharing applied through the router, the packaging
verbs it shares with ``DataManager``, the per-shard region feed,
rebalance + retransmit, the stats shape, and shard names as hostile
input on the admin REST surface.
"""

import os

import pytest

from repro.core.accounts import Role
from repro.core.api import Request
from repro.core.datamgmt import DataManager, DataQuery
from repro.core.errors import ValidationError
from repro.core.privacy import PrivacyPolicy
from repro.core.server import GoFlowServer
from repro.docstore.store import DocumentStore
from repro.sharding.router import RETIRED_SUFFIX, ShardRouter, ShardingConfig

APP = "SC"


def _documents(count, prefix="p"):
    return [
        {
            "obs_id": f"{prefix}:{n}",
            "user_id": f"u{n % 6}",
            "model": f"M{n % 3}",
            "taken_at": float((n * 7919) % 1000),
            "noise_dba": 40.0 + (n % 25),
            "location": {
                "x_m": float(n % 9) * 500.0,
                "y_m": float(n % 7) * 500.0,
            },
        }
        for n in range(count)
    ]


@pytest.fixture
def router():
    return ShardRouter(PrivacyPolicy(), config=ShardingConfig(shards=2))


def _ingest_one_by_one(router, documents):
    for document in documents:
        router.ingest(APP, document)


def _ingest_batch(router, documents):
    router.ingest_many(APP, documents)


def _drain(broker, queue):
    channel = broker.connect().channel()
    bodies = []
    delivery = channel.basic_get(queue)
    while delivery is not None:
        bodies.append(delivery.body)
        delivery = channel.basic_get(queue)
    return bodies


class TestRouter:
    def test_sharing_strips_late_private_fields(self, router):
        router.ingest_many(APP, _documents(40), owned=True)
        router._privacy.set_private_fields(APP, ["noise_dba"])
        shared = router.retrieve(
            DataQuery(app_id=APP), limit=10, share_with_app="other-app"
        )
        assert shared and all("noise_dba" not in doc for doc in shared)
        own = router.retrieve(DataQuery(app_id=APP), limit=10)
        assert own and all("noise_dba" in doc for doc in own)

    @pytest.mark.parametrize(
        "ingest", [_ingest_one_by_one, _ingest_batch], ids=["per_op", "batch"]
    )
    def test_region_feed_notifies_stored_only(self, router, ingest):
        name = sorted(router.shards)[0]
        broker = router.subscribe(name, "q-feed", "#")
        ingest(router, _documents(60, prefix="sub"))
        bodies = _drain(broker, "q-feed")
        for body in bodies:
            assert set(body) == {"_id", "region", "app_id", "datatype", "taken_at"}
            assert body["app_id"] == APP
        stored_ids = {
            doc["_id"] for doc in router.shards[name].collection.iter_documents()
        }
        # only the subscribed shard's documents notify, once each
        assert 0 < len(stored_ids) < 60
        assert sorted(body["_id"] for body in bodies) == sorted(stored_ids)
        # a retransmission is deduplicated and notifies nobody
        ingest(router, _documents(60, prefix="sub"))
        assert _drain(broker, "q-feed") == []

    def test_add_shard_then_retransmit_stores_nothing(self, router):
        router.ingest_many(APP, _documents(200), owned=True)
        outcome = router.add_shard()
        assert len(router.shards) == 3
        assert outcome["moved"] > 0
        assert router.collection.count(None) == 200
        # ledger entries moved with their documents
        assert router.ingest_many(APP, _documents(200)) == [None] * 200
        assert router.collection.count(None) == 200

    def test_packaging_matches_unsharded(self, router):
        unsharded = DataManager(DocumentStore(), PrivacyPolicy())
        unsharded.ingest_many(APP, _documents(40))
        router.ingest_many(APP, _documents(40))
        query = DataQuery(app_id=APP, since=100.0)
        packaged = router.as_file(query)
        assert packaged.count("\n") > 10
        assert packaged == unsharded.as_file(query)
        assert router.as_open_data(APP, query) == unsharded.as_open_data(APP, query)

    def test_config_rejects_bad_names(self):
        for bad in (["ok", "../up"], ["a/b"], [""], [7], [f"x{RETIRED_SUFFIX}"]):
            with pytest.raises(ValidationError):
                ShardingConfig(shards=bad)
        assert ShardingConfig(shards=["eu-1", "us_2"]).names == ["eu-1", "us_2"]


def _twins(count=200):
    """A 4-shard server and an unsharded one over the same documents."""
    documents = [
        dict(doc, level=n % 7, tags=["a", "b"][: n % 3])
        for n, doc in enumerate(_documents(count))
    ]
    servers = []
    for sharding in (4, None):
        server = GoFlowServer(sharding=sharding)
        server.register_app(APP)
        server.data.ingest_many(APP, [dict(doc) for doc in documents])
        servers.append(server)
    return servers


class TestScatter:
    def test_top_k_runs_every_shards_columnar_kernel(self, monkeypatch):
        sharded, unsharded = _twins()
        shards = sharded.router.shards
        hits = {
            name: shard.collection.columnar_info()["kernel_hits"]
            for name, shard in shards.items()
        }
        captured = []
        scatter = sharded.router.scatter_aggregate
        monkeypatch.setattr(
            sharded.router,
            "scatter_aggregate",
            lambda pipeline: captured.append(scatter(pipeline)) or captured[-1],
        )
        top = sharded.analytics.top_contributors("M1")
        assert top and top == unsharded.analytics.top_contributors("M1")
        (result,) = captured
        assert result.explain["merge"] == "partial_folds"
        assert set(result.explain["shards"]) == set(shards)
        for detail in result.explain["shards"].values():
            assert detail["strategy"] == "columnar"
        assert {
            name: shard.collection.columnar_info()["kernel_hits"]
            for name, shard in shards.items()
        } == {name: before + 1 for name, before in hits.items()}

    @pytest.mark.parametrize(
        "pipeline, merge",
        [
            (
                [
                    {"$match": {"level": {"$gte": 1}}},
                    {
                        "$group": {
                            "_id": "$model",
                            "mean": {"$avg": "$level"},
                            "n": {"$count": {}},
                            "lo": {"$min": "$taken_at"},
                        }
                    },
                ],
                "partial_folds",
            ),
            (
                [{"$group": {"_id": "$level", "total": {"$sum": "$noise_dba"}}}],
                "central",
            ),
            (
                [{"$unwind": "$tags"}, {"$group": {"_id": "$tags", "n": {"$sum": 1}}}],
                "central",
            ),
        ],
        ids=["int-avg", "float-sum", "unwind-prefix"],
    )
    def test_merge_kind_follows_value_types(self, pipeline, merge):
        sharded, unsharded = _twins()
        result = sharded.data.collection.aggregate(pipeline)
        assert result.explain["merge"] == merge
        assert list(result) == list(unsharded.data.collection.aggregate(pipeline))

    def test_nan_min_partial_gathers_centrally(self):
        """A sequential $min ignores a NaN unless it comes first, so a
        shard whose group starts with NaN hides its smaller values: the
        merge must decline rather than answer 4.0."""
        sharded, unsharded = GoFlowServer(sharding=2), GoFlowServer()
        owners = {}
        for n in range(100):
            owners.setdefault(sharded.router.ring.node_for(f"r{n}"), f"r{n}")
        early, late = (owners[name] for name in sorted(owners))
        documents = [
            {"obs_id": f"nan:{n}", "user_id": "u0", "region": region, "k": "x", "v": v}
            for n, (region, v) in enumerate(
                [(early, 4.0), (late, float("nan")), (late, 3.0)]
            )
        ]
        pipeline = [{"$group": {"_id": "$k", "lo": {"$min": "$v"}}}]
        for server in (sharded, unsharded):
            server.register_app(APP)
            server.data.ingest_many(APP, [dict(doc) for doc in documents])
        result = sharded.data.collection.aggregate(pipeline)
        assert result.explain["merge"] == "central"
        assert list(result) == list(unsharded.data.collection.aggregate(pipeline))
        assert list(result) == [{"_id": "x", "lo": 3.0}]


def _manager_server(**kwargs):
    server = GoFlowServer(sharding=2, **kwargs)
    server.register_app(APP)
    server.enroll_user(APP, "boss", "pw")
    server.accounts.set_role(APP, "boss", Role.MANAGER)
    token = server.handle(
        Request(
            "POST",
            "/auth/login",
            body={"app_id": APP, "user_id": "boss", "password": "pw"},
        )
    ).body["token"]
    return server, token


def _tree(root):
    return sorted(
        os.path.relpath(os.path.join(parent, name), root)
        for parent, dirs, files in os.walk(root)
        for name in dirs + files
    )


class TestAdmin:
    def test_sharding_stats_shape_and_endpoint(self):
        server, token = _manager_server()
        server.data.ingest_many(APP, _documents(30))
        stats = server.middleware_stats()["sharding"]
        assert set(stats) == {"enabled", "shards", "ring", "router", "rebalance"}
        resp = server.handle(
            Request("GET", f"/apps/{APP}/admin/sharding", token=token)
        )
        assert resp.status == 200
        assert resp.body == stats

    @pytest.mark.parametrize(
        "name",
        ["../../victim", 7, "", "a/b", f"shard-09{RETIRED_SUFFIX}"],
        ids=["traversal", "int", "empty", "nested", "retired"],
    )
    def test_hostile_shard_name_is_400(self, tmp_path, name):
        data_dir = tmp_path / "outer" / "inner" / "server"
        server, token = _manager_server(durable=True, data_dir=str(data_dir))
        server.data.ingest_many(APP, _documents(30))
        shards_before = server.router.sharding_stats()["shards"]
        ring_before = server.router.sharding_stats()["ring"]
        inside_before = _tree(data_dir / "shards")
        outside_before = _tree(tmp_path)
        resp = server.handle(
            Request(
                "POST", f"/apps/{APP}/admin/shards", body={"name": name}, token=token
            )
        )
        assert resp.status == 400
        assert server.router.sharding_stats()["shards"] == shards_before
        assert server.router.sharding_stats()["ring"] == ring_before
        # same directories (files may grow; none may appear)
        assert _tree(data_dir / "shards") == inside_before
        assert _tree(tmp_path) == outside_before
        server.router.close()

    def test_remove_cannot_reach_outside_data_dir(self, tmp_path):
        data_dir = tmp_path / "outer" / "inner" / "server"
        # what ``shards/../../victim`` resolves to
        precious = data_dir.parent / "victim" / "precious.txt"
        precious.parent.mkdir(parents=True)
        precious.write_text("keep me")
        server, token = _manager_server(durable=True, data_dir=str(data_dir))
        server.handle(
            Request(
                "POST",
                f"/apps/{APP}/admin/shards",
                body={"name": "../../victim"},
                token=token,
            )
        )
        with pytest.raises(ValidationError):
            server.router.remove_shard("../../victim")
        assert precious.read_text() == "keep me"
        server.router.close()
