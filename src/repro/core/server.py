"""The GoFlow server: the middleware's composition root.

Wires the subsystems of Figure 2 together over one broker and one
document store:

- consumes the GoFlow queue and persists every crowd-sensed message
  through the privacy policy (ingest path of Figure 1);
- exposes the REST API (login, data retrieval, account and job
  management, subscriptions);
- hands mobile clients their channel ids at login (Figure 3).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.broker.broker import Broker, DEFAULT_ROUTE_CACHE_SIZE
from repro.broker.message import Delivery
from repro.core.accounts import AccountManager, Role
from repro.core.analytics import AnalyticsEngine
from repro.core.api import GoFlowAPI, Request, Response
from repro.core.auth import TokenService
from repro.core.channels import ChannelManager, GOFLOW_QUEUE
from repro.core.datamgmt import DataManager, DataQuery
from repro.core.errors import NotFoundError, ValidationError
from repro.core.jobs import JobManager
from repro.core.privacy import PrivacyPolicy
from repro.docstore.store import DocumentStore
from repro.sharding.region import DEFAULT_CELL_M
from repro.sharding.router import ShardRouter, ShardingConfig
from repro.streaming.filters import FilterSpec
from repro.streaming.subscriptions import SubscriptionManager


def _drop_wire_ids(
    documents: List[Dict[str, Any]], owned: bool
) -> List[Dict[str, Any]]:
    """``documents`` without any client-supplied ``_id``: an
    observation's id is the server's to assign, on either topology.
    ``owned`` documents lose the key in place; caller-retained ones (a
    broker-delivered body) are never mutated — shallow copies go on."""
    for document in documents:
        if "_id" in document:
            break
    else:  # the common case: one ``in`` test per document
        return documents
    if owned:
        for document in documents:
            document.pop("_id", None)
        return documents
    return [
        {key: value for key, value in document.items() if key != "_id"}
        for document in documents
    ]


class GoFlowServer:
    """One deployed GoFlow instance."""

    def __init__(
        self,
        broker: Optional[Broker] = None,
        store: Optional[DocumentStore] = None,
        privacy: Optional[PrivacyPolicy] = None,
        clock: Optional[Callable[[], float]] = None,
        route_cache_size: int = DEFAULT_ROUTE_CACHE_SIZE,
        durable: bool = False,
        data_dir: Optional[str] = None,
        wal_config: Optional[Any] = None,
        sharding: Optional[Union[int, ShardingConfig]] = None,
    ) -> None:
        """Args beyond the obvious:

        durable: opt-in crash safety — recover the document store from
            ``data_dir`` (snapshot + write-ahead log) on startup and
            journal every write from here on. The ingest dedup ledger
            is the observations' unique ``obs_id`` index, rebuilt with
            the documents, so the exactly-once guarantee survives a
            kill -9 between two server lives.
        data_dir: durable-mode data directory (required with durable).
        wal_config: a :class:`repro.docstore.wal.WalConfig` overriding
            the sync/rotation defaults (group commit, segment size).
        sharding: opt-in horizontal partitioning — a shard count (or a
            :class:`~repro.sharding.router.ShardingConfig`) splits the
            observation plane across that many shards (a store and a
            ``DataManager`` each) behind a
            :class:`~repro.sharding.router.ShardRouter` keyed by each
            observation's region. ``self.data`` becomes
            the router; accounts, jobs and tokens stay on the server's
            own store. With ``durable`` the shards journal under
            ``data_dir/shards/<name>``.
        """
        self._clock = clock or (lambda: 0.0)
        self.broker = broker or Broker(
            clock=self._clock, route_cache_size=route_cache_size
        )
        if durable:
            if data_dir is None:
                raise ValidationError("durable=True requires data_dir")
            if store is not None:
                raise ValidationError("durable=True builds its own store")
            self.store = DocumentStore.recover(
                data_dir, clock=self._clock, config=wal_config
            )
        else:
            self.store = store or DocumentStore(clock=self._clock)
        self.privacy = privacy or PrivacyPolicy()
        self.accounts = AccountManager(self.store)
        self.tokens = TokenService(self._clock)
        self.channels = ChannelManager(self.broker)
        cell_m = DEFAULT_CELL_M
        if sharding is not None:
            config = (
                sharding
                if isinstance(sharding, ShardingConfig)
                else ShardingConfig(shards=sharding)
            )
            cell_m = config.cell_m
            self.router: Optional[ShardRouter] = ShardRouter(
                self.privacy,
                clock=self._clock,
                config=config,
                durable=durable,
                data_dir=(str(Path(data_dir) / "shards") if durable else None),
                wal_config=wal_config,
            )
            # the router speaks the DataManager surface; everything
            # downstream (REST handlers, analytics, packaging) is
            # oblivious to the partitioning.
            self.data: Any = self.router
        else:
            self.router = None
            self.data = DataManager(self.store, self.privacy)
        if durable:
            # broker topology is transient (the broker is not journaled):
            # redeclare each recovered app's exchange so clients can log
            # back in — their E/Q pairs are recreated lazily at login.
            for app_id in self.accounts.app_ids():
                self.channels.register_app(app_id)
        self.jobs = JobManager(self.store, self._clock)
        # the analytics engine serves its hot statistics from the data
        # plane's materialized counters, which every read brings up to
        # date from the store; pipeline
        # fallbacks read the data plane's collection (sharded: the
        # scatter-gather facade spanning every shard).
        self.analytics = AnalyticsEngine(
            self.store,
            materialized=self.data.materialized,
            observations=self.data.collection,
        )
        self.api = GoFlowAPI(self.tokens)
        # the live subscription plane. Deliberately transient — never
        # journaled — so a recovered durable server starts with zero
        # subscriptions (no phantom cursors); consumers re-subscribe
        # and stream post-recovery deltas only. Its tile scopes are
        # built from the data plane's store at their first reader.
        self.streaming = SubscriptionManager(
            self.data, clock=self._clock, cell_m=cell_m
        )
        # one delivery hook on either topology: it fires under the data
        # plane's ingest lock, so fan-out order is _id order.
        self.data.add_ingest_listener(self.streaming.on_stored)
        self._register_routes()
        self._start_ingest()

    @property
    def ingested(self) -> int:
        """Observations the data plane stored since start, whoever
        called it (summed across shards when sharded)."""
        return self.data.ingested

    @property
    def deduped(self) -> int:
        """Redeliveries collapsed by the dedup index (all shards)."""
        return self.data.dedup_hits

    # -- ingest path ------------------------------------------------------------

    def _start_ingest(self) -> None:
        connection = self.broker.connect("goflow-server")
        channel = connection.channel()
        channel.basic_consume(
            GOFLOW_QUEUE, self._on_delivery, auto_ack=True, consumer_tag="gf-ingest"
        )

    def _on_delivery(self, delivery: Delivery) -> None:
        document = delivery.body
        if not isinstance(document, dict):
            return  # non-observation traffic (e.g. feedback blobs) is ignored
        # client publishes route "<zone>.<datatype>" and the app id
        # travels in the body; a body without one has no owner.
        app_id = document.get("app_id") or "unknown-app"
        # never mutate the delivered body: the broker may have fanned the
        # same message out to subscriber queues.
        try:
            self.data.ingest_many(app_id, _drop_wire_ids([document], owned=False))
        except ValidationError:
            return  # no storable form (say, a non-string obs_id): dropped

    # -- observability ----------------------------------------------------------

    def middleware_stats(self) -> Dict[str, Any]:
        """Broker and store hot-path counters, cache behaviour included.

        The ``reliability`` section is the delivery-semantics evidence:
        broker redeliveries on the GoFlow queue, dedup-ledger hits, and
        (when a fault injector is installed) how many faults of each
        kind actually fired.

        Every section is a *coherent snapshot*: each layer's counters
        are copied under that layer's lock, and the reliability section
        is read under the ingest lock, so a stats call racing live
        ingest can never observe ``ingested``/``deduped`` torn apart
        from the dedup ledger they must sum with.
        """
        broker_stats = self.broker.stats_snapshot()
        collection_stats = self.data.collection.stats_snapshot()
        goflow_queue = self.broker.get_queue(GOFLOW_QUEUE)
        queue_stats = goflow_queue.stats_snapshot()
        broker_extras = {
            "redeliveries": queue_stats.requeued,
            "delayed_in_flight": self.broker.delayed_count,
            "faults": (
                self.broker.faults.info() if self.broker.faults is not None else None
            ),
        }
        # one look with the ingest lock(s) held: the counters are read
        # together with the ledger they must sum with.
        reliability = {**self.data.reliability_snapshot(), **broker_extras}
        return {
            "ingested": reliability.pop("ingested"),
            "reliability": reliability,
            "broker": {
                "publishes": broker_stats.publishes,
                "routed": broker_stats.routed,
                "unroutable": broker_stats.unroutable,
                "route_cache": self.broker.route_cache_info(),
                "topic_cache_hits": broker_stats.topic_cache_hits,
                "topic_cache_misses": broker_stats.topic_cache_misses,
            },
            "observations": {
                "inserts": collection_stats.inserts,
                "queries": collection_stats.queries,
                "index_hits": collection_stats.index_hits,
                "full_scans": collection_stats.full_scans,
                "plan_cache_hits": collection_stats.plan_cache_hits,
                "plan_cache_misses": collection_stats.plan_cache_misses,
                "index_folds": collection_stats.index_folds,
            },
            "materialized": self.data.materialized.info(),
            "columnar": self.data.collection.columnar_info(),
            "durability": self.data.durability_info(),
            "sharding": self.data.sharding_stats(),
            "streaming": self.streaming.stats(),
        }

    def checkpoint(self) -> int:
        """Compact the WAL into a snapshot; returns the document count.

        A sharded server checkpoints every shard plus its own
        (accounts/jobs) store and returns the summed document count.
        """
        if self.router is not None:
            total = sum(self.router.checkpoint().values())
            if self.store.journal is not None:
                total += self.store.checkpoint()
            return total
        return self.store.checkpoint()

    # -- app/user lifecycle (programmatic surface) ---------------------------------

    def register_app(
        self, app_id: str, private_fields: Optional[List[str]] = None
    ) -> str:
        """Register an application end-to-end; returns its exchange name."""
        self.accounts.register_app(app_id)
        if private_fields is not None:
            self.privacy.set_private_fields(app_id, private_fields)
        return self.channels.register_app(app_id)

    def login_client(
        self, app_id: str, user_id: str, password: str
    ) -> Dict[str, str]:
        """Authenticate and create the client's channels.

        Returns the token plus the exchange/queue ids the mobile client
        connects to — exactly the handshake §3.2 describes.
        """
        account = self.accounts.verify_credentials(app_id, user_id, password)
        token = self.tokens.issue(app_id, user_id, account.role)
        channels = self.channels.client_login(app_id, user_id)
        return {
            "token": token,
            "exchange": channels.exchange,
            "queue": channels.queue,
        }

    def enroll_user(
        self, app_id: str, user_id: str, password: str, role: Role = Role.CONTRIBUTOR
    ) -> Dict[str, str]:
        """Create an account and log it in (the app's first-run flow)."""
        self.accounts.create_account(app_id, user_id, password, role=role)
        return self.login_client(app_id, user_id, password)

    # -- REST routes ------------------------------------------------------------------

    def _register_routes(self) -> None:
        api = self.api
        api.route("POST", "/auth/login", self._r_login)
        api.route("POST", "/apps/{app_id}/users", self._r_create_user, Role.MANAGER)
        api.route("DELETE", "/apps/{app_id}/users/{user_id}", self._r_delete_user, Role.MANAGER)
        api.route("GET", "/apps/{app_id}/users", self._r_list_users, Role.MANAGER)
        api.route("POST", "/apps/{app_id}/observations/batch", self._r_ingest_batch, Role.CONTRIBUTOR)
        # the two sharing reads: any app's token, private fields stripped
        api.route("GET", "/apps/{app_id}/data", self._r_get_data, Role.CONTRIBUTOR, shared=True)
        api.route("GET", "/apps/{app_id}/data/count", self._r_count_data, Role.CONTRIBUTOR, shared=True)
        api.route("POST", "/apps/{app_id}/subscriptions", self._r_subscribe, Role.CONTRIBUTOR)
        api.route("POST", "/apps/{app_id}/stream/subscriptions", self._r_stream_subscribe, Role.CONTRIBUTOR)
        api.route("GET", "/apps/{app_id}/stream/subscriptions/{sub_id}/events", self._r_stream_events, Role.CONTRIBUTOR)
        api.route("DELETE", "/apps/{app_id}/stream/subscriptions/{sub_id}", self._r_stream_unsubscribe, Role.CONTRIBUTOR)
        api.route("POST", "/apps/{app_id}/jobs", self._r_submit_job, Role.MANAGER)
        api.route("POST", "/apps/{app_id}/jobs/{job_id}/run", self._r_run_job, Role.MANAGER)
        api.route("GET", "/apps/{app_id}/jobs/{job_id}", self._r_get_job, Role.CONTRIBUTOR)
        api.route("GET", "/apps/{app_id}/analytics/totals", self._r_totals, Role.CONTRIBUTOR)
        api.route("GET", "/apps/{app_id}/analytics/models", self._r_models, Role.CONTRIBUTOR)
        api.route("POST", "/apps/{app_id}/admin/checkpoint", self._r_checkpoint, Role.MANAGER)
        api.route("GET", "/apps/{app_id}/admin/durability", self._r_durability, Role.MANAGER)
        api.route("GET", "/apps/{app_id}/admin/sharding", self._r_sharding, Role.MANAGER)
        api.route("POST", "/apps/{app_id}/admin/shards", self._r_add_shard, Role.MANAGER)
        api.route("DELETE", "/apps/{app_id}/admin/shards/{shard}", self._r_remove_shard, Role.MANAGER)

    def handle(self, request: Request) -> Response:
        """Entry point for REST traffic."""
        return self.api.dispatch(request)

    # Handlers ----------------------------------------------------------------

    def _r_login(self, request: Request, path: Dict[str, str], _p) -> Any:
        body = request.body or {}
        for required in ("app_id", "user_id", "password"):
            if required not in body:
                raise ValidationError(f"missing field {required!r}")
        return self.login_client(body["app_id"], body["user_id"], body["password"])

    def _r_create_user(self, request: Request, path: Dict[str, str], principal) -> Any:
        body = request.body or {}
        if "user_id" not in body or "password" not in body:
            raise ValidationError("missing user_id or password")
        role = Role(body.get("role", Role.CONTRIBUTOR.value))
        account = self.accounts.create_account(
            path["app_id"], body["user_id"], body["password"], role=role
        )
        return {"user_id": account.user_id, "role": account.role.value}

    def _r_delete_user(self, request: Request, path: Dict[str, str], principal) -> Any:
        self.accounts.remove_account(path["app_id"], path["user_id"])
        deleted = self.data.delete_contributor_data(path["app_id"], path["user_id"])
        return {"deleted_observations": deleted}

    def _r_list_users(self, request: Request, path: Dict[str, str], principal) -> Any:
        return [
            {"user_id": a.user_id, "role": a.role.value, "active": a.active}
            for a in self.accounts.accounts_for_app(path["app_id"])
        ]

    def _r_ingest_batch(self, request: Request, path: Dict[str, str], principal) -> Any:
        """Batch ingest: one locked pass for a whole uplink chunk.

        Server-side dedup makes the endpoint idempotent per
        observation: a client that is unsure whether a batch landed
        simply retransmits it, and already-stored ``obs_id`` values
        report ``accepted: false`` without double-storing.
        """
        body = request.body or {}
        owned = False
        if isinstance(body, str):
            # wire form: the body arrives as the serialized JSON an HTTP
            # transport would deliver. The parse both validates and
            # produces server-owned documents, so ingest can skip its
            # own defensive clone.
            try:
                body = json.loads(body)
            except ValueError as exc:
                raise ValidationError(f"malformed JSON body: {exc}") from exc
            if not isinstance(body, dict):
                raise ValidationError("JSON body must be an object")
            owned = True
        observations = body.get("observations")
        if not isinstance(observations, list):
            raise ValidationError("missing or malformed 'observations' list")
        for observation in observations:
            if not isinstance(observation, dict):
                raise ValidationError("each observation must be a dict")
        ids = self.data.ingest_many(
            path["app_id"], _drop_wire_ids(observations, owned), owned=owned
        )
        accepted = [doc_id is not None for doc_id in ids]
        stored = sum(accepted)
        return {"accepted": accepted, "ingested": stored, "deduped": len(ids) - stored}

    def _query_from_params(self, app_id: str, params: Dict[str, str]) -> DataQuery:
        def _float(name: str) -> Optional[float]:
            raw = params.get(name)
            if raw is None:
                return None
            try:
                return float(raw)
            except ValueError:
                raise ValidationError(f"parameter {name!r} must be numeric")

        return DataQuery(
            app_id=app_id,
            since=_float("since"),
            until=_float("until"),
            model=params.get("model"),
            mode=params.get("mode"),
            provider=params.get("provider"),
            max_accuracy_m=_float("max_accuracy_m"),
            contributor=params.get("contributor"),
            localized_only=params.get("localized_only") == "true",
        )

    def _r_get_data(self, request: Request, path: Dict[str, str], principal) -> Any:
        query = self._query_from_params(path["app_id"], request.params)
        limit_raw = request.params.get("limit")
        if limit_raw:
            try:
                limit = int(limit_raw)
            except ValueError:
                raise ValidationError("parameter 'limit' must be an integer")
            if limit < 0:
                raise ValidationError("parameter 'limit' must be >= 0")
        else:
            limit = 100
        share_with = principal.app_id if principal else None
        documents = self.data.retrieve(query, limit=limit, share_with_app=share_with)
        for document in documents:
            document.pop("_id", None)
        return documents

    def _r_count_data(self, request: Request, path: Dict[str, str], principal) -> Any:
        query = self._query_from_params(path["app_id"], request.params)
        return {"count": self.data.count(query)}

    def _r_subscribe(self, request: Request, path: Dict[str, str], principal) -> Any:
        body = request.body or {}
        if "location_id" not in body or "datatype" not in body:
            raise ValidationError("missing location_id or datatype")
        routing = self.channels.subscribe(
            path["app_id"], principal.user_id, body["location_id"], body["datatype"]
        )
        return {"routing_exchange": routing}

    def _r_stream_subscribe(self, request: Request, path: Dict[str, str], principal) -> Any:
        """Register a continuous query; the long-poll subscribe verb.

        The path app is forced into the filter spec, and dispatch
        refuses another app's token: a stream only ever carries
        observations of the app the caller authenticated against.
        """
        body = request.body or {}
        if not isinstance(body, dict):
            raise ValidationError("subscription body must be an object")
        spec = FilterSpec.from_body(path["app_id"], body)
        for knob in ("capacity", "max_overruns"):
            value = body.get(knob)
            if value is not None and (
                not isinstance(value, int) or isinstance(value, bool)
            ):
                raise ValidationError(f"{knob!r} must be an integer")
        observations = body.get("observations", True)
        tiles = body.get("tiles", False)
        if not isinstance(observations, bool) or not isinstance(tiles, bool):
            raise ValidationError("'observations' and 'tiles' must be booleans")
        sub_id = self.streaming.subscribe(
            spec,
            observations=observations,
            tiles=tiles,
            capacity=body.get("capacity"),
            max_overruns=body.get("max_overruns"),
            owner_app=path["app_id"],
            owner_user=principal.user_id if principal else None,
        )
        return {"subscription_id": sub_id, "cursor": 0}

    def _r_stream_events(self, request: Request, path: Dict[str, str], principal) -> Any:
        """The ``next_events`` long-poll: ack a cursor, fetch past it.

        Scoped like every other ``/apps/{app_id}`` verb: sub ids are
        guessable, so the manager 404s any poll whose path app or
        authenticated user isn't the subscription's owner.
        """

        def _int(name: str) -> Optional[int]:
            raw = request.params.get(name)
            if raw is None:
                return None
            try:
                return int(raw)
            except ValueError:
                raise ValidationError(f"parameter {name!r} must be an integer")

        limit = _int("limit")
        return self.streaming.next_events(
            path["sub_id"],
            ack=_int("ack"),
            limit=100 if limit is None else limit,
            app_id=path["app_id"],
            user_id=principal.user_id if principal else None,
        )

    def _r_stream_unsubscribe(self, request: Request, path: Dict[str, str], principal) -> Any:
        return self.streaming.unsubscribe(
            path["sub_id"],
            app_id=path["app_id"],
            user_id=principal.user_id if principal else None,
        )

    def _r_submit_job(self, request: Request, path: Dict[str, str], principal) -> Any:
        body = request.body or {}
        if "script" not in body:
            raise ValidationError("missing script")
        job = self.jobs.submit(
            path["app_id"],
            body["script"],
            params=body.get("params"),
            submitted_by=principal.user_id,
        )
        return {"job_id": job.job_id, "status": job.status.value}

    def _job(self, path: Dict[str, str]) -> Any:
        """The path's job, 404 unless it belongs to the path's app."""
        try:
            job_id = int(path["job_id"])
        except ValueError:
            raise ValidationError("job id must be an integer")
        job = self.jobs.get(job_id)
        if job.app_id != path["app_id"]:
            raise NotFoundError(f"unknown job {job_id}")
        return job

    def _r_run_job(self, request: Request, path: Dict[str, str], principal) -> Any:
        job = self.jobs.run(self._job(path).job_id)
        return {"job_id": job.job_id, "status": job.status.value, "error": job.error}

    def _r_get_job(self, request: Request, path: Dict[str, str], principal) -> Any:
        job = self._job(path)
        return {
            "job_id": job.job_id,
            "status": job.status.value,
            "result": job.result,
            "error": job.error,
        }

    def _r_checkpoint(self, request: Request, path: Dict[str, str], principal) -> Any:
        if self.store.journal is None:
            raise ValidationError("server is not running in durable mode")
        return {"snapshot_docs": self.checkpoint()}

    def _r_durability(self, request: Request, path: Dict[str, str], principal) -> Any:
        return self.data.durability_info()

    def _r_sharding(self, request: Request, path: Dict[str, str], principal) -> Any:
        return self.data.sharding_stats()

    def _r_add_shard(self, request: Request, path: Dict[str, str], principal) -> Any:
        if self.router is None:
            raise ValidationError("server is not running in sharded mode")
        body = request.body or {}
        return self.router.add_shard(body.get("name"))

    def _r_remove_shard(self, request: Request, path: Dict[str, str], principal) -> Any:
        if self.router is None:
            raise ValidationError("server is not running in sharded mode")
        return self.router.remove_shard(path["shard"])

    def _r_totals(self, request: Request, path: Dict[str, str], principal) -> Any:
        return self.analytics.totals()

    def _r_models(self, request: Request, path: Dict[str, str], principal) -> Any:
        return self.analytics.per_model_table()
