"""The store is the dedup ledger: exactly-once with no window.

Each observations collection carries a unique index on the stored
``obs_id``, so deduplication holds for as long as the document does —
across 100k later observations, a durable restart, a checkpoint and a
shard rebalance — and nothing but the pseudonymised documents reaches
disk. Erasure leaves a tombstone, because deleting the documents alone
would forget their keys. Every scenario runs on both topologies.
"""

import pytest

from repro.core.api import Request
from repro.core.datamgmt import DataManager
from repro.core.errors import ValidationError
from repro.core.materialized import MaterializedAnalytics
from repro.core.privacy import PrivacyPolicy
from repro.core.server import GoFlowServer
from repro.docstore.store import DocumentStore

APP = "SC"
OTHER_APP = "OTHER"

TOPOLOGIES = pytest.mark.parametrize("sharding", [None, 2], ids=["unsharded", "2-shards"])


def _observation(user, n, app=APP, obs_id=None):
    return {
        "app_id": app,
        "user_id": user,
        "obs_id": obs_id if obs_id is not None else f"tok-{user}-{app}:{n}",
        "model": f"m{n % 3}",
        "taken_at": 1000.0 + n,
        "noise_dba": 40.0 + n,
        # one grid cell per observation: a sharded server spreads them
        "location": {"provider": "gps", "x_m": 600.0 * n, "y_m": 0.0},
    }


def _server(data_dir, sharding):
    return GoFlowServer(durable=True, data_dir=str(data_dir), sharding=sharding)


def _restart(server, data_dir, sharding):
    """Close the journals and recover a new server from ``data_dir``."""
    if server.router is not None:
        server.router.close()
    server.store.journal.close()
    return _server(data_dir, sharding)


def _planes(server):
    if server.router is not None:
        return [shard.data for shard in server.router.shards.values()]
    return [server.data]


def _assert_views_recompute(server):
    """Every data plane's materialized counters == a from-scratch fold."""
    for data in _planes(server):
        live = data.materialized
        recomputed = MaterializedAnalytics(data.collection)
        assert live.totals() == recomputed.totals()
        assert live.per_model_groups() == recomputed.per_model_groups()
        assert live.day_counts() == recomputed.day_counts()
        assert live.provider_counts() == recomputed.provider_counts()


def _stored(server, user, app=APP):
    contributor = server.privacy.pseudonym(user)
    return server.data.collection.count({"app_id": app, "contributor": contributor})


class TestNoRawUserIdAtRest:
    @TOPOLOGIES
    def test_legacy_obs_id_never_reaches_disk(self, tmp_path, sharding):
        server = _server(tmp_path, sharding)
        server.register_app(APP)
        legacy = {"user_id": "alice", "obs_id": "alice:1", "taken_at": 1.0}
        assert server.data.ingest(APP, legacy) is not None
        server.checkpoint()
        assert server.data.ingest(APP, {**legacy, "obs_id": "alice:2"}) is not None
        # a redelivery still deduplicates on the stored (rewritten) key
        assert server.data.ingest(APP, dict(legacy)) is None
        server.store.sync()
        if server.router is not None:
            for shard in server.router.shards.values():
                shard.store.sync()
        files = [path for path in tmp_path.rglob("*") if path.is_file()]
        assert files
        for path in files:
            assert b"alice" not in path.read_bytes(), path


class TestExactlyOnceWithoutWindow:
    def test_redelivery_after_100k_observations(self):
        data = DataManager(DocumentStore(), PrivacyPolicy(salt="t"))
        late = {"user_id": "u", "obs_id": "tok:late", "taken_at": 1.0}
        assert data.ingest(APP, dict(late)) is not None
        batch = 2000
        for start in range(0, 100_000, batch):
            data.ingest_many(
                APP,
                [{"obs_id": f"tok:{n}", "taken_at": float(n)}
                 for n in range(start, start + batch)],
                owned=True,
            )  # fmt: skip
        assert data.ingest(APP, dict(late)) is None
        assert data.collection.count({"obs_id": "tok:late"}) == 1
        assert len(data.collection) == 100_001
        assert data.dedup_info() == {"size": 100_001, "hits": 1}

    @TOPOLOGIES
    def test_redelivery_after_restart_and_checkpoint(self, tmp_path, sharding):
        server = _server(tmp_path, sharding)
        first = [_observation("u", n) for n in range(6)]
        second = [_observation("u", n) for n in range(6, 12)]
        assert None not in server.data.ingest_many(APP, first)
        server.checkpoint()
        assert None not in server.data.ingest_many(APP, second)
        server = _restart(server, tmp_path, sharding)
        # recovery rebuilt the index from the replayed documents
        assert server.data.dedup_info()["size"] == 12
        assert server.data.ingest_many(APP, first + second) == [None] * 12
        assert len(server.data.collection) == 12
        assert server.deduped == 12
        _assert_views_recompute(server)


class TestStoreWrittenBeforeTheIndex:
    """A data directory written before the unique ``obs_id`` index can
    hold two copies of one observation (the old bounded ledger's
    lapse). Opening it keeps the copy first admitted, then declares the
    index."""

    @pytest.mark.parametrize(
        "sharding, store_dir",
        [(None, "."), (1, "shards/shard-00")],
        ids=["unsharded", "shard-directory"],
    )
    def test_duplicate_obs_id_opens_with_one_copy(self, tmp_path, sharding, store_dir):
        wire = _observation("u", 0)
        stored = {
            key: value for key, value in wire.items() if key != "user_id"
        }
        store = DocumentStore.recover(tmp_path / store_dir)
        observations = store.collection("observations")
        observations.insert_many([dict(stored, contributor="p-old")])
        observations.insert_many([dict(stored, contributor="p-old", model="copy")])
        store.journal.close()
        for _ in range(2):  # the open, then a restart
            server = _server(tmp_path, sharding)
            copies = server.data.collection.find({"obs_id": wire["obs_id"]}).to_list()
            assert [doc["model"] for doc in copies] == [wire["model"]]
            # a retransmit stores nothing
            assert server.data.ingest_many(APP, [dict(wire)]) == [None]
            assert len(server.data.collection) == 1
            live = server.data.materialized
            recomputed = MaterializedAnalytics(server.data.collection)
            for probe in ("totals", "per_model_groups", "day_counts", "provider_counts"):
                assert getattr(live, probe)() == getattr(recomputed, probe)()
            _assert_views_recompute(server)
            if server.router is not None:
                server.router.close()
            server.store.journal.close()


class TestRebalanceMergesOneObsId:
    def test_reused_stamp_on_two_shards_keeps_one_copy(self):
        """A client reusing one ``obs_id`` from two regions leaves a copy
        on each shard; draining one shard into the other must not abort
        on the unique index — the destination keeps its own copy."""
        server = GoFlowServer(sharding=2)
        router = server.router
        first = _observation("u", 0, obs_id="reused")
        owners = {router.shard_for(first)}
        n = 1
        while True:
            second = _observation("u", n, obs_id="reused")
            if router.shard_for(second) not in owners:
                break
            n += 1
        assert server.data.ingest(APP, first) is not None
        assert server.data.ingest(APP, second) is not None
        assert server.data.collection.count({"obs_id": "reused"}) == 2
        victim = router.shard_for(first)
        router.remove_shard(victim)
        kept = server.data.collection.find({"obs_id": "reused"}).to_list()
        assert [doc["taken_at"] for doc in kept] == [second["taken_at"]]
        assert server.data.ingest(APP, dict(first)) is None
        _assert_views_recompute(server)


class TestErasureTombstones:
    def _seed(self, server):
        server.data.ingest_many(APP, [_observation("alice", n) for n in range(6)])
        server.data.ingest_many(APP, [_observation("bob", n) for n in range(3)])
        server.data.ingest_many(
            OTHER_APP, [_observation("alice", n, app=OTHER_APP) for n in range(3)]
        )

    def _assert_refused(self, server, step):
        """The erased contributor stays erased from APP, only there."""
        # a redelivery of an erased observation
        assert server.data.ingest(APP, _observation("alice", 0)) is None
        # a new observation of the erased contributor to the erased app
        fresh = _observation("alice", 100 + step)
        assert server.data.ingest(APP, fresh) is None
        assert _stored(server, "alice") == 0
        # the same contributor to another app, and another contributor
        other = _observation("alice", 100 + step, app=OTHER_APP)
        assert server.data.ingest(OTHER_APP, other) is not None
        assert server.data.ingest(APP, _observation("bob", 100 + step)) is not None
        _assert_views_recompute(server)

    @TOPOLOGIES
    def test_erasure_refuses_redelivery_and_new_uploads(self, tmp_path, sharding):
        server = _server(tmp_path, sharding)
        self._seed(server)
        assert server.data.delete_contributor_data(APP, "alice") == 6
        self._assert_refused(server, step=0)
        assert _stored(server, "alice", app=OTHER_APP) == 4
        server = _restart(server, tmp_path, sharding)
        self._assert_refused(server, step=1)
        assert _stored(server, "bob") == 5
        assert _stored(server, "alice", app=OTHER_APP) == 5

    def test_tombstones_follow_add_and_remove_shard(self, tmp_path):
        server = _server(tmp_path, 2)
        self._seed(server)
        assert server.data.delete_contributor_data(APP, "alice") == 6
        added = server.router.add_shard()["shard"]
        assert server.router.shards[added].data.erasures() == {
            (APP, server.privacy.pseudonym("alice"))
        }
        self._assert_refused(server, step=0)
        server.router.remove_shard("shard-00")
        self._assert_refused(server, step=1)
        server = _restart(server, tmp_path, 2)
        assert sorted(server.router.shards) == ["shard-01", added]
        self._assert_refused(server, step=2)
        assert _stored(server, "bob") == 6
        assert _stored(server, "alice", app=OTHER_APP) == 6


class TestHostileObsId:
    @TOPOLOGIES
    @pytest.mark.parametrize("obs_id", [["a", "b"], {"k": 1}, 7, None])
    def test_batch_endpoint_answers_400(self, sharding, obs_id):
        server = GoFlowServer(sharding=sharding)
        server.register_app(APP)
        credentials = server.enroll_user(APP, "phone", "pw")
        good = _observation("phone", 1)
        bad = {**_observation("phone", 2), "obs_id": obs_id}
        response = server.handle(
            Request(
                "POST",
                f"/apps/{APP}/observations/batch",
                body={"observations": [good, bad]},
                token=credentials["token"],
            )
        )
        assert response.status == 400
        # the batch is refused whole, on every shard
        assert len(server.data.collection) == 0
        with pytest.raises(ValidationError):
            server.data.ingest_many(APP, [good, bad])
        assert len(server.data.collection) == 0
        # a broker delivery has nobody to answer: it is dropped
        channel = server.broker.connect().channel()
        channel.basic_publish(credentials["exchange"], "Z0-0.NoiseObservation", bad)
        assert len(server.data.collection) == 0
        assert server.data.ingest(APP, good) is not None
