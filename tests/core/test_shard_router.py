"""The shard router's operational surface.

Row-exactness against an unsharded store is the property oracle's job
(``tests/property/test_sharded_oracle.py``) and crash safety is
``tests/integration/test_rebalance_crash.py``'s; these tests pin what
neither covers — sharing applied through the router, the packaging
verbs and the ingest-listener contract it shares with ``DataManager``,
the tie order of a limited retrieve, rebalance + retransmit, the stats
shape, and shard names as hostile input on the admin REST surface.
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
    def test_ingest_listener_sees_stored_only(self, router, ingest):
        calls = []
        router.add_ingest_listener(lambda app_id, pairs: calls.append((app_id, pairs)))
        ingest(router, _documents(60, prefix="sub"))
        assert calls and all(app_id == APP for app_id, _ in calls)
        assert all(pairs for _, pairs in calls)  # never an empty call
        heard = [stored_id for _, pairs in calls for _, stored_id in pairs]
        stored = [doc["_id"] for doc in router.collection.iter_documents()]
        # every stored document once, in _id order, across both shards
        assert len({router.shard_for(doc) for doc in _documents(60, "sub")}) == 2
        assert heard == stored == sorted(stored) and len(stored) == 60
        for _, pairs in calls:
            assert all(doc["_id"] == stored_id for doc, stored_id in pairs)
        # a retransmission is deduplicated and calls nothing
        del calls[:]
        ingest(router, _documents(60, prefix="sub"))
        assert calls == []

    def test_limited_retrieve_breaks_ties_in_id_order(self):
        """Twelve observations share one ``taken_at``: the index path,
        the scan and the router must all keep the first four stored.
        ``_id`` 4 shares a shard with 1, 10, 11 and 12, which sort
        before it as strings: a shard that cut ties by ``str(_id)``
        would drop it from its limit prefilter."""
        unsharded = DataManager(DocumentStore(), PrivacyPolicy())
        router = ShardRouter(PrivacyPolicy(), config=ShardingConfig(shards=3))
        owners = {}
        for n in range(100):
            owners.setdefault(router.ring.node_for(f"r{n}"), f"r{n}")
        crowded, *others = (owners[name] for name in sorted(owners))
        documents = [
            {
                "obs_id": f"o{n}",
                "user_id": "u0",
                "taken_at": 5.0,
                "region": crowded if n in (0, 3, 9, 10, 11) else others[n % 2],
            }
            for n in range(12)
        ]
        for plane in (unsharded, router):
            plane.ingest_many(APP, [dict(doc) for doc in documents])
        first_four = ["o0", "o1", "o2", "o3"]

        def obs_ids(plane, query):
            return [doc["obs_id"] for doc in plane.retrieve(query, limit=4)]

        indexed = DataQuery(app_id=APP, since=0.0)
        assert unsharded.collection.explain(indexed.to_filter())["strategy"] == "index"
        assert obs_ids(unsharded, indexed) == first_four
        assert obs_ids(unsharded, DataQuery(app_id=APP)) == first_four  # scan
        assert obs_ids(router, indexed) == first_four

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


class TestDashboard:
    def test_fig9_table_order_matches_unsharded(self):
        """Models tied on ``localized`` keep global first-seen order on
        a fleet, as on one store: the coordinator's one view folds the
        merged tail in ``_id`` order."""
        tables = []
        for sharding in (None, 3):
            server = GoFlowServer(sharding=sharding)
            for n, model in enumerate(["zeta", "alpha", "mid"]):
                server.data.ingest(
                    APP,
                    {
                        "obs_id": f"fig9:{n}",
                        "user_id": f"u{n}",
                        "model": model,
                        "taken_at": float(n),
                        "location": {"x_m": 600.0 * n, "y_m": 0.0},
                    },
                )
            tables.append(server.analytics.per_model_table())
        unsharded, sharded = tables
        assert [row["model"] for row in unsharded] == ["zeta", "alpha", "mid"]
        assert sharded == unsharded


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
