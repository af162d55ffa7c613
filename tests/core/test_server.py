"""GoFlowServer composition tests (ingest path + REST surface)."""

import pytest

from repro.core.accounts import Role
from repro.core.api import Request
from repro.core.server import GoFlowServer


@pytest.fixture
def server():
    server = GoFlowServer()
    server.register_app("SC", private_fields=["activity"])
    return server


def _publish_observation(server, credentials, document):
    channel = server.broker.connect().channel()
    channel.basic_publish(credentials["exchange"], "Z0-0.NoiseObservation", document)


class TestLifecycles:
    def test_enroll_returns_channel_ids_and_token(self, server):
        credentials = server.enroll_user("SC", "alice", "pw")
        assert set(credentials) == {"token", "exchange", "queue"}
        assert server.broker.has_exchange(credentials["exchange"])

    def test_login_after_enroll(self, server):
        server.enroll_user("SC", "alice", "pw")
        again = server.login_client("SC", "alice", "pw")
        assert again["exchange"] == "E.alice"


class TestIngest:
    def test_published_observation_stored_pseudonymized(self, server):
        credentials = server.enroll_user("SC", "alice", "pw")
        _publish_observation(
            server,
            credentials,
            {"user_id": "alice", "app_id": "SC", "noise_dba": 58.0, "taken_at": 1.0},
        )
        assert server.ingested == 1
        stored = server.data.collection.find_one({})
        assert stored["noise_dba"] == 58.0
        assert "user_id" not in stored
        assert stored["contributor"] == server.privacy.pseudonym("alice")

    def test_non_dict_bodies_ignored(self, server):
        credentials = server.enroll_user("SC", "alice", "pw")
        channel = server.broker.connect().channel()
        channel.basic_publish(credentials["exchange"], "Z0-0.Feedback", "just text")
        assert server.ingested == 0


class TestIdempotentIngest:
    def test_redelivered_obs_id_stored_once(self, server):
        credentials = server.enroll_user("SC", "alice", "pw")
        document = {
            "user_id": "alice",
            "obs_id": "alice:1",
            "taken_at": 1.0,
            "noise_dba": 50.0,
        }
        _publish_observation(server, credentials, document)
        _publish_observation(server, credentials, dict(document))
        assert server.ingested == 1
        assert server.deduped == 1
        stored = server.data.collection.find({"taken_at": 1.0}).to_list()
        assert len(stored) == 1
        # the legacy user-embedding stamp was pseudonymized at rest
        assert stored[0]["obs_id"] == server.privacy.pseudonym("alice") + ":1"
        assert server.data.collection.count({"obs_id": "alice:1"}) == 0

    def test_documents_without_obs_id_are_not_deduped(self, server):
        credentials = server.enroll_user("SC", "alice", "pw")
        document = {"user_id": "alice", "taken_at": 1.0, "noise_dba": 50.0}
        _publish_observation(server, credentials, document)
        _publish_observation(server, credentials, dict(document))
        assert server.ingested == 2
        assert server.deduped == 0

    def test_reliability_stats_surface_dedup_and_faults(self, server):
        from repro.broker import FaultInjector, FaultPlan

        stats = server.middleware_stats()["reliability"]
        assert stats["deduped"] == 0
        assert stats["faults"] is None
        assert stats["dedup_ledger"] == {"size": 0, "hits": 0}
        server.broker.install_faults(FaultInjector(FaultPlan(seed=1)))
        stats = server.middleware_stats()["reliability"]
        assert stats["faults"] == {
            "connects_refused": 0,
            "connections_dropped": 0,
            "publish_errors": 0,
            "confirms_nacked": 0,
            "duplicated": 0,
            "delayed": 0,
        }


class TestRestSurface:
    def test_login_route(self, server):
        server.accounts.create_account("SC", "alice", "pw")
        response = server.handle(
            Request(
                "POST",
                "/auth/login",
                body={"app_id": "SC", "user_id": "alice", "password": "pw"},
            )
        )
        assert response.status == 200
        assert "token" in response.body

    def test_login_route_missing_field(self, server):
        response = server.handle(
            Request("POST", "/auth/login", body={"app_id": "SC"})
        )
        assert response.status == 400

    def test_data_route_with_filters(self, server):
        credentials = server.enroll_user("SC", "alice", "pw")
        for i in range(5):
            _publish_observation(
                server,
                credentials,
                {
                    "user_id": "alice",
                    "app_id": "SC",
                    "model": "A0001" if i % 2 == 0 else "NEXUS 5",
                    "noise_dba": 50.0 + i,
                    "taken_at": float(i),
                },
            )
        response = server.handle(
            Request(
                "GET",
                "/apps/SC/data",
                params={"model": "A0001"},
                token=credentials["token"],
            )
        )
        assert response.status == 200
        assert len(response.body) == 3

    def test_count_route(self, server):
        credentials = server.enroll_user("SC", "alice", "pw")
        _publish_observation(
            server,
            credentials,
            {"user_id": "alice", "app_id": "SC", "taken_at": 0.0},
        )
        response = server.handle(
            Request("GET", "/apps/SC/data/count", token=credentials["token"])
        )
        assert response.body == {"count": 1}

    def test_data_route_requires_auth(self, server):
        assert server.handle(Request("GET", "/apps/SC/data")).status == 401

    def test_bad_numeric_param_rejected(self, server):
        credentials = server.enroll_user("SC", "alice", "pw")
        response = server.handle(
            Request(
                "GET",
                "/apps/SC/data",
                params={"since": "yesterday"},
                token=credentials["token"],
            )
        )
        assert response.status == 400

    def test_bad_limit_param_rejected(self, server):
        credentials = server.enroll_user("SC", "alice", "pw")
        for bad in ("ten", "-1", "1.5"):
            response = server.handle(
                Request(
                    "GET",
                    "/apps/SC/data",
                    params={"limit": bad},
                    token=credentials["token"],
                )
            )
            assert response.status == 400

    def test_valid_limit_param_accepted(self, server):
        credentials = server.enroll_user("SC", "alice", "pw")
        response = server.handle(
            Request(
                "GET",
                "/apps/SC/data",
                params={"limit": "5"},
                token=credentials["token"],
            )
        )
        assert response.status == 200

    def test_user_management_requires_manager(self, server):
        contributor = server.enroll_user("SC", "alice", "pw")
        response = server.handle(
            Request(
                "POST",
                "/apps/SC/users",
                body={"user_id": "new", "password": "pw"},
                token=contributor["token"],
            )
        )
        assert response.status == 403

    def test_manager_creates_and_lists_users(self, server):
        server.accounts.create_account("SC", "boss", "pw", role=Role.MANAGER)
        boss = server.login_client("SC", "boss", "pw")
        created = server.handle(
            Request(
                "POST",
                "/apps/SC/users",
                body={"user_id": "new", "password": "pw"},
                token=boss["token"],
            )
        )
        assert created.status == 200
        listing = server.handle(
            Request("GET", "/apps/SC/users", token=boss["token"])
        )
        assert {u["user_id"] for u in listing.body} == {"boss", "new"}

    def test_delete_user_erases_data(self, server):
        server.accounts.create_account("SC", "boss", "pw", role=Role.MANAGER)
        boss = server.login_client("SC", "boss", "pw")
        alice = server.enroll_user("SC", "alice", "pw")
        _publish_observation(
            server, alice, {"user_id": "alice", "app_id": "SC", "taken_at": 0.0}
        )
        response = server.handle(
            Request("DELETE", "/apps/SC/users/alice", token=boss["token"])
        )
        assert response.body == {"deleted_observations": 1}
        assert server.data.collection.count() == 0

    def test_job_submission_and_run(self, server):
        server.jobs.register_script("count", lambda s, p: s["observations"].count())
        server.accounts.create_account("SC", "boss", "pw", role=Role.MANAGER)
        boss = server.login_client("SC", "boss", "pw")
        submitted = server.handle(
            Request(
                "POST",
                "/apps/SC/jobs",
                body={"script": "count"},
                token=boss["token"],
            )
        )
        job_id = submitted.body["job_id"]
        ran = server.handle(
            Request("POST", f"/apps/SC/jobs/{job_id}/run", token=boss["token"])
        )
        assert ran.body["status"] == "done"
        fetched = server.handle(
            Request("GET", f"/apps/SC/jobs/{job_id}", token=boss["token"])
        )
        assert fetched.body["result"] == 0

    def test_subscription_route(self, server):
        alice = server.enroll_user("SC", "alice", "pw")
        response = server.handle(
            Request(
                "POST",
                "/apps/SC/subscriptions",
                body={"location_id": "FR75013", "datatype": "Feedback"},
                token=alice["token"],
            )
        )
        assert response.status == 200
        assert response.body["routing_exchange"] == "R.FR75013.Feedback"

    def test_analytics_routes(self, server):
        alice = server.enroll_user("SC", "alice", "pw")
        _publish_observation(
            server,
            alice,
            {"user_id": "alice", "app_id": "SC", "model": "A0001", "taken_at": 0.0},
        )
        totals = server.handle(
            Request("GET", "/apps/SC/analytics/totals", token=alice["token"])
        )
        assert totals.body["total"] == 1
        models = server.handle(
            Request("GET", "/apps/SC/analytics/models", token=alice["token"])
        )
        assert models.body[0]["model"] == "A0001"


def _manager(server, app_id, user_id):
    server.accounts.create_account(app_id, user_id, "pw", role=Role.MANAGER)
    return server.login_client(app_id, user_id, "pw")["token"]


# the sharing reads: any app's token may read them, the owner's private
# fields stripped on the way out
SHARED_READS = {("GET", "/apps/{app_id}/data"), ("GET", "/apps/{app_id}/data/count")}
APP_ROUTES = [r for r in GoFlowServer().api.routes() if "{app_id}" in r[1]]


class TestAppScope:
    @pytest.mark.parametrize(
        "method, template", APP_ROUTES, ids=[" ".join(r) for r in APP_ROUTES]
    )
    def test_foreign_app_token_refused_except_sharing_reads(
        self, server, method, template
    ):
        server.register_app("B")
        foreign = _manager(server, "B", "mallory")
        alice = server.enroll_user("SC", "alice", "pw")
        _publish_observation(
            server, alice, {"user_id": "alice", "app_id": "SC", "taken_at": 0.0}
        )
        path = template.format(
            app_id="SC", user_id="alice", sub_id="sub-1", job_id="1", shard="s0"
        )
        response = server.handle(Request(method, path, body={}, token=foreign))
        if (method, template) in SHARED_READS:
            assert response.status == 200
        else:
            assert response.status == 403
        assert server.data.collection.count() == 1
        assert [a.user_id for a in server.accounts.accounts_for_app("SC")] == ["alice"]

    def test_job_id_must_be_an_integer(self, server):
        boss = _manager(server, "SC", "boss")
        for method, path in (
            ("GET", "/apps/SC/jobs/abc"),
            ("POST", "/apps/SC/jobs/abc/run"),
        ):
            response = server.handle(Request(method, path, token=boss))
            assert response.status == 400

    def test_jobs_are_scoped_to_their_app(self, server):
        server.jobs.register_script("count", lambda s, p: s["observations"].count())
        server.register_app("B")
        boss = _manager(server, "SC", "boss")
        other = _manager(server, "B", "other")
        job_id = server.handle(
            Request("POST", "/apps/SC/jobs", body={"script": "count"}, token=boss)
        ).body["job_id"]
        for method, path in (
            ("POST", f"/apps/B/jobs/{job_id}/run"),
            ("GET", f"/apps/B/jobs/{job_id}"),
        ):
            assert server.handle(Request(method, path, token=other)).status == 404
        assert server.jobs.get(job_id).status.value == "pending"
