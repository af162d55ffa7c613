"""Batch ingest: DataManager fast path, REST endpoint, batch uplink.

The batch pipeline must keep the exactly-once contract of the per-op
path — idempotent per ``obs_id``, batch-atomic on failure, ledger
commits only after a durable insert — while amortizing the per-document
overhead it exists to remove.
"""

import pytest

from repro.client.client import GoFlowClient
from repro.client.uplink import RestBatchUplink, UplinkError
from repro.client.versions import AppVersion
from repro.core.api import Request
from repro.core.server import GoFlowServer
from repro.errors import ConfigurationError

APP = "SC"


def _server():
    server = GoFlowServer()
    server.register_app(APP)
    credentials = server.enroll_user(APP, "alice", "pw")
    return server, credentials


def _payload(i, user="alice"):
    return {
        "obs_id": f"o{i}",
        "user_id": user,
        "model": f"m{i % 3}",
        "taken_at": float(i),
        "noise_dba": 40.0 + i,
        "location": {"provider": "gps", "x_m": 1.0, "y_m": 2.0},
    }


class TestIngestMany:
    def test_ids_parallel_to_input(self):
        server, _ = _server()
        documents = [_payload(i) for i in range(5)]
        ids = server.data.ingest_many(APP, documents)
        assert len(ids) == 5
        assert all(doc_id is not None for doc_id in ids)
        assert len(server.data.collection) == 5

    def test_ledger_and_intra_batch_dedup(self):
        server, _ = _server()
        server.data.ingest_many(APP, [_payload(0)])
        # o0 known from the ledger; o1 repeated inside the batch: only
        # the first occurrence stores, later copies report None in place
        ids = server.data.ingest_many(
            APP, [_payload(0), _payload(1), _payload(1), _payload(2)]
        )
        assert ids[0] is None
        assert ids[1] is not None
        assert ids[2] is None
        assert ids[3] is not None
        assert len(server.data.collection) == 3
        assert server.data.dedup_hits == 2

    def test_batch_matches_per_op_result(self):
        batch_server, _ = _server()
        per_op_server, _ = _server()
        documents = [_payload(i) for i in range(12)]
        batch_server.data.ingest_many(APP, [dict(d) for d in documents])
        for document in documents:
            per_op_server.data.ingest(APP, dict(document))
        batch_docs = batch_server.data.collection.iter_documents()
        per_op_docs = per_op_server.data.collection.iter_documents()
        strip = lambda docs: [{k: v for k, v in d.items() if k != "_id"} for d in docs]
        assert strip(batch_docs) == strip(per_op_docs)
        assert (
            batch_server.data.materialized.per_model_groups()
            == per_op_server.data.materialized.per_model_groups()
        )

    def test_unowned_batch_never_mutates_caller_documents(self):
        server, _ = _server()
        documents = [_payload(i) for i in range(3)]
        keepsakes = [dict(d) for d in documents]
        server.data.ingest_many(APP, documents)
        assert documents == keepsakes  # user_id still present, unscrubbed
        for stored in server.data.collection.iter_documents():
            assert "user_id" not in stored
            assert stored["contributor"] != "alice"

    def test_atomic_rollback_then_retry_rolls_forward(self):
        server, _ = _server()
        collection = server.data.collection
        collection.create_index("slot", kind="hash", unique=True)
        bad = [dict(_payload(i), slot=i % 2) for i in range(4)]  # slot collides
        with pytest.raises(Exception):
            server.data.ingest_many(APP, bad)
        # nothing stored, nothing learned: the batch is cleanly retryable
        assert len(collection) == 0
        assert server.data.dedup_info()["size"] == 0
        good = [dict(_payload(i), slot=i) for i in range(4)]
        ids = server.data.ingest_many(APP, good)
        assert all(doc_id is not None for doc_id in ids)
        assert len(collection) == 4


class TestRestBatchEndpoint:
    def test_dict_body(self):
        server, credentials = _server()
        response = server.handle(
            Request(
                method="POST",
                path=f"/apps/{APP}/observations/batch",
                body={"observations": [_payload(i) for i in range(3)]},
                token=credentials["token"],
            )
        )
        assert response.ok
        assert response.body == {"accepted": [True, True, True], "ingested": 3, "deduped": 0}
        assert server.ingested == 3

    def test_wire_form_string_body(self):
        import json

        server, credentials = _server()
        body = json.dumps({"observations": [_payload(i) for i in range(4)]})
        response = server.handle(
            Request(
                method="POST",
                path=f"/apps/{APP}/observations/batch",
                body=body,
                token=credentials["token"],
            )
        )
        assert response.ok
        assert response.body["ingested"] == 4
        for stored in server.data.collection.iter_documents():
            assert "user_id" not in stored

    @pytest.mark.parametrize(
        "body",
        [
            "{not json",
            '["not", "an", "object"]',
            {"observations": "nope"},
            {"observations": [{"obs_id": "x"}, "not-a-dict"]},
            {},
        ],
    )
    def test_malformed_bodies_are_rejected(self, body):
        server, credentials = _server()
        response = server.handle(
            Request(
                method="POST",
                path=f"/apps/{APP}/observations/batch",
                body=body,
                token=credentials["token"],
            )
        )
        assert response.status == 400
        assert server.ingested == 0

    def test_requires_token(self):
        server, _ = _server()
        response = server.handle(
            Request(
                method="POST",
                path=f"/apps/{APP}/observations/batch",
                body={"observations": [_payload(0)]},
            )
        )
        assert response.status == 401

    def test_retransmit_is_idempotent(self):
        server, credentials = _server()
        request = Request(
            method="POST",
            path=f"/apps/{APP}/observations/batch",
            body={"observations": [_payload(i) for i in range(5)]},
            token=credentials["token"],
        )
        first = server.handle(request)
        second = server.handle(request)
        assert first.body["ingested"] == 5
        assert second.body == {"accepted": [False] * 5, "ingested": 0, "deduped": 5}
        assert len(server.data.collection) == 5

    @pytest.mark.parametrize("route", ["batch", "per_op"])
    def test_nan_taken_at_does_not_hide_other_rows(self, route):
        # json.loads accepts the literal NaN; a NaN key in the sorted
        # index used to leave it unsorted, and every later window query
        # bisected garbage: one contributor could hide everyone's rows.
        import json

        server, credentials = _server()
        stamps = [3.0, float("nan"), 1.0, 2.0]
        observations = [dict(_payload(i), taken_at=t) for i, t in enumerate(stamps)]
        if route == "batch":
            posted = server.handle(
                Request(
                    method="POST",
                    path=f"/apps/{APP}/observations/batch",
                    body=json.dumps({"observations": observations}),
                    token=credentials["token"],
                )
            )
            assert posted.body["ingested"] == 4
        else:
            channel = server.broker.connect("phone").channel()
            for observation in observations:
                channel.basic_publish(
                    credentials["exchange"],
                    "FR75013.NoiseObservation",
                    dict(observation, app_id=APP),
                )
            assert server.ingested == 4

        def window(**params):
            response = server.handle(
                Request(
                    method="GET",
                    path=f"/apps/{APP}/data",
                    params=params,
                    token=credentials["token"],
                )
            )
            assert response.ok
            return sorted(row["obs_id"] for row in response.body)

        assert window(since="2.5", until="3.5") == ["o0"]
        assert window(since="0.5") == ["o0", "o2", "o3"]
        assert len(window()) == 4  # the NaN row is stored, and scans find it


class TestRestBatchUplink:
    def test_delivers_and_confirms(self):
        server, credentials = _server()
        uplink = RestBatchUplink(server, token=credentials["token"])
        result = uplink.send([_payload(i) for i in range(6)])
        assert result.accepted == 6
        assert result.confirmed is True
        assert server.ingested == 6

    def test_empty_batch_rejected(self):
        server, credentials = _server()
        uplink = RestBatchUplink(server, token=credentials["token"])
        with pytest.raises(ConfigurationError):
            uplink.send([])

    def test_unserializable_batch_raises(self):
        server, credentials = _server()
        uplink = RestBatchUplink(server, token=credentials["token"])
        with pytest.raises(UplinkError, match="JSON-serializable"):
            uplink.send([{"obs_id": "x", "payload": object()}])

    @pytest.mark.parametrize("chunk", [1, 7, 30])
    def test_chunked_sends_store_and_fold_everything(self, chunk):
        server, credentials = _server()
        uplink = RestBatchUplink(server, token=credentials["token"])
        documents = [_payload(i) for i in range(30)]
        for start in range(0, len(documents), chunk):
            uplink.send(documents[start : start + chunk])
        assert server.ingested == 30
        assert server.data.materialized.totals() == {"total": 30, "localized": 30}

    def test_durable_post_journals_one_record(self, tmp_path):
        server = GoFlowServer(durable=True, data_dir=str(tmp_path))
        server.register_app(APP)
        credentials = server.enroll_user(APP, "alice", "pw")
        uplink = RestBatchUplink(server, token=credentials["token"])
        before = server.store.durability_info()["appends"]
        for start in range(0, 20, 5):
            uplink.send([_payload(i) for i in range(start, start + 5)])
        assert server.ingested == 20
        assert server.store.durability_info()["appends"] - before == 4
        server.store.journal.close()

    def test_rejection_is_batch_atomic(self):
        server, _ = _server()
        uplink = RestBatchUplink(server, token="bogus-token")
        try:
            uplink.send([_payload(0)])
        except UplinkError as error:
            assert error.delivered == []
            assert error.nacked == []
        else:
            pytest.fail("expected UplinkError")
        assert server.ingested == 0


class TestStatsContract:
    def test_middleware_stats_columnar_section(self):
        server, credentials = _server()
        uplink = RestBatchUplink(server, token=credentials["token"])
        uplink.send([_payload(i) for i in range(8)])
        section = server.middleware_stats()["columnar"]
        assert set(section) >= {
            "enabled", "reason", "fields", "rows", "fresh",
            "rebuilds", "appends", "invalidations", "kernel_hits", "fallbacks",
        }
        if not section["enabled"]:
            assert section["reason"]
            return
        # built by its first reader, not by the writes
        assert section["fresh"] is False
        assert section["rows"] is None
        assert section["rebuilds"] == section["appends"] == 0
        assert "model" in section["fields"]
        server.analytics.top_contributors("m0")
        uplink.send([_payload(i) for i in range(8, 12)])
        section = server.middleware_stats()["columnar"]
        assert section["fresh"] is True
        assert section["rows"] == 12  # the next read's rows, tail included
        assert section["rebuilds"] == 1
        assert section["appends"] == 0

    def test_observations_section_counts_index_folds(self):
        server, credentials = _server()
        uplink = RestBatchUplink(server, token=credentials["token"])
        for start in (40, 0, 20):  # late, out-of-order uploads
            uplink.send([_payload(i) for i in range(start, start + 8)])

        def folds():
            return server.middleware_stats()["observations"]["index_folds"]

        assert folds() == 0  # writes defer the ordering
        request = Request(
            method="GET",
            path=f"/apps/{APP}/data",
            params={"since": "5", "until": "25"},
            token=credentials["token"],
        )
        assert len(server.handle(request).body) == 8  # o5..o7, o20..o24
        assert folds() == 1  # paid once, by the first window read
        server.handle(request)
        assert folds() == 1


class _RecordingUplink:
    def __init__(self):
        self.batches = []

    def send(self, documents):
        self.batches.append(list(documents))


class TestClientBatchThreshold:
    def _observation(self, i):
        from repro.sensing.activity import ActivityReading
        from repro.sensing.microphone import NoiseReading
        from repro.sensing.modes import SensingMode
        from repro.sensing.scheduler import Observation

        return Observation(
            observation_id=i,
            user_id="u",
            model="A0001",
            taken_at=float(i),
            mode=SensingMode.OPPORTUNISTIC,
            noise=NoiseReading(measured_dba=50.0, true_dba=48.0),
            location=None,
            activity=ActivityReading(
                label="still", confidence=0.9, true_activity="still"
            ),
        )

    def _client(self, uplink, uplink_batch):
        return GoFlowClient(
            "u",
            AppVersion.V1_3,
            uplink,
            clock=lambda: 0.0,
            uplink_batch=uplink_batch,
        )

    def test_threshold_rises_to_batch_unit(self):
        uplink = _RecordingUplink()
        client = self._client(uplink, uplink_batch=25)
        for i in range(24):
            client.on_observation(self._observation(i))
        assert uplink.batches == []  # v1.3 would send at 10; batch waits
        client.on_observation(self._observation(24))
        assert [len(batch) for batch in uplink.batches] == [25]

    def test_flush_chunks_by_batch_unit(self):
        uplink = _RecordingUplink()
        client = self._client(uplink, uplink_batch=10)
        for i in range(9):
            client.on_observation(self._observation(i))
        client.outbox.push(self._observation(100))  # sidestep the trigger
        client.outbox.push(self._observation(101))
        client.flush()
        assert [len(batch) for batch in uplink.batches] == [10, 1]

    def test_batch_unit_below_buffer_keeps_version_threshold(self):
        uplink = _RecordingUplink()
        client = self._client(uplink, uplink_batch=3)
        for i in range(10):
            client.on_observation(self._observation(i))
        # v1.3 buffers to 10, then one attempt drains in chunks of 3
        assert [len(batch) for batch in uplink.batches] == [3, 3, 3, 1]
