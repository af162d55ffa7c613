"""Deterministic multi-threaded soak driver for the middleware core.

The paper's deployment served 2,091 concurrent phones; this harness
reproduces that pressure in-process: N client threads each run M
operations drawn from a per-thread seeded RNG against one
:class:`GoFlowServer` — publishing observations through the broker (so
ingest runs on the publishing thread, exactly like the inline consumer
dispatch does in production) and interleaving dashboard reads that
assert coherence *mid-flight*.

Determinism contract: the *workload* is a pure function of the seed
(which obs_ids, which zones, which payloads, in which per-thread
order). Thread interleaving is of course scheduler-chosen — the point
is that every invariant below must hold under **any** interleaving, so
the harness asserts them both during the run and after it:

- **exactly-once ingest** — every published ``obs_id`` is stored
  exactly once no matter how many threads redelivered it;
- **queue depth conservation** — the GoFlow queue's
  enqueued/delivered/acked counters balance and nothing is stranded;
- **materialized ≡ recompute** — the online analytics counters agree
  with a from-scratch fold over the stored documents;
- **coherent stats** — ``middleware_stats()`` snapshots sum: the
  ingested counter equals the dedup ledger size and the deduped
  counter equals the ledger's hit count, at any instant.

The same seeds driven against a server built under
``concurrency.lock_mode("off")`` (every lock replaced by a yielding
no-op) must violate at least one of these — that is the proof the
locks are load-bearing, not decorative.

The harness's own bookkeeping uses raw ``threading.Lock`` objects on
purpose: the instruments must stay race-free even when the system
under test runs lock-disabled.
"""

from __future__ import annotations

import random
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.channels import GOFLOW_QUEUE
from repro.core.materialized import MaterializedAnalytics
from repro.core.server import GoFlowServer
from repro.docstore.aggregate import aggregate
from repro.docstore.naive import naive_aggregate
from repro.sharding.region import region_of
from repro.streaming import observation_event, tiles_from_documents

APP_ID = "SC"
ROUTING_KEYS = ("FR75013.Feedback", "FR75019.Feedback", "FR92120.Feedback")
MODELS = ("nexus4", "galaxy-s3", "xperia-z", "lumia-925")
PROVIDERS = ("gps", "network", "fused")


@dataclass
class SoakResult:
    """What happened during one soak run."""

    published: int = 0
    #: wire-form obs_id -> how many times it was published (>= 1)
    sent: Counter = field(default_factory=Counter)
    #: exceptions raised inside worker operations: (thread, repr)
    errors: List[Tuple[int, str]] = field(default_factory=list)
    #: mid-flight invariant breaches observed by reader ops
    violations: List[str] = field(default_factory=list)
    #: worker threads still alive after the join timeout (deadlock)
    stalled_threads: List[int] = field(default_factory=list)

    @property
    def distinct_sent(self) -> int:
        return len(self.sent)

    @property
    def duplicates_sent(self) -> int:
        return self.published - self.distinct_sent


class ThreadedSoak:
    """N seeded client threads hammering one GoFlow server.

    Args:
        seed: master seed; thread ``i`` derives its own RNG from it.
        threads: number of concurrent client threads.
        ops_per_thread: operations each thread performs.
        read_every: a thread runs a coherence-checking read op every
            this many publishes (0 disables reader ops).
        join_timeout_s: per-thread join budget; a thread alive past it
            is reported as stalled (the deadlock detector).
        server_factory: builds the server under test (default: a plain
            unsharded ``GoFlowServer()``). The sharded soak passes a
            factory so the same workload and invariants drive a
            :class:`~repro.sharding.router.ShardRouter` fleet.
        subscribers: live streaming subscriptions registered before the
            run. Their outboxes are sized to hold the whole workload
            (backpressure is tested elsewhere; here the invariant is
            delivery itself): every subscriber's event stream must come
            out cursor-contiguous, gap-free and duplicate-free, and
            row-exact against a brute-force re-filter of the store.
            Subscriber 0 is additionally consumed *during* the run by
            the reader ops (concurrent ack-cursor polling), which also
            read the app's live map — the first of them builds its
            tile scope from the store mid-ingest — and the map must end
            equal to the tile recompute over the store.
    """

    def __init__(
        self,
        seed: int,
        threads: int = 8,
        ops_per_thread: int = 40,
        read_every: int = 5,
        join_timeout_s: float = 30.0,
        server_factory: Optional[Callable[[], GoFlowServer]] = None,
        subscribers: int = 0,
    ) -> None:
        self.seed = seed
        self.threads = threads
        self.ops_per_thread = ops_per_thread
        self.read_every = read_every
        self.join_timeout_s = join_timeout_s
        self.server = server_factory() if server_factory is not None else GoFlowServer()
        self.server.register_app(APP_ID)
        self._sessions = [
            self.server.enroll_user(APP_ID, f"mob{i}", "pw") for i in range(threads)
        ]
        # a shared, deliberately small obs_id pool: distinct threads
        # drawing the same id model the at-least-once uplink
        # redelivering one observation from several retry paths at once.
        pool_size = max(1, (threads * ops_per_thread) // 2)
        self._obs_pool = [f"obs-{i}" for i in range(pool_size)]
        self._book = threading.Lock()  # harness bookkeeping, always real
        self.subscribers = subscribers
        self._subscriber_ids: List[str] = []
        #: events subscriber 0 drained mid-run, in consumption order
        self._live_events: List[Dict[str, Any]] = []
        self._live_cursor = 0
        #: serializes mid-run consumption of subscriber 0 (the server's
        #: poll is at-least-once; concurrent stale-ack polls would
        #: legitimately re-serve events and muddy the duplicate check)
        self._consume = threading.Lock()
        if subscribers:
            capacity = threads * ops_per_thread * 2 + 16
            self._subscriber_ids = [
                self.server.streaming.subscribe(capacity=capacity, max_overruns=0)
                for _ in range(subscribers)
            ]

    # -- driving ----------------------------------------------------------------

    def run(self) -> SoakResult:
        """Run the soak; returns what happened (assert nothing here)."""
        result = SoakResult()
        start = threading.Barrier(self.threads)
        workers = [
            threading.Thread(
                target=self._worker,
                args=(i, result, start),
                name=f"soak-{self.seed}-{i}",
                daemon=True,
            )
            for i in range(self.threads)
        ]
        for worker in workers:
            worker.start()
        for index, worker in enumerate(workers):
            worker.join(timeout=self.join_timeout_s)
            if worker.is_alive():
                result.stalled_threads.append(index)
        return result

    def _worker(self, index: int, result: SoakResult, start: threading.Barrier) -> None:
        rng = random.Random(self.seed * 7919 + index)
        channel = self.server.broker.connect(f"soak-session-{index}").channel()
        exchange = self._sessions[index]["exchange"]
        try:
            start.wait(timeout=10.0)
        except threading.BrokenBarrierError:
            pass  # start anyway; contention just ramps up less sharply
        for op in range(self.ops_per_thread):
            try:
                if self.read_every and op % self.read_every == self.read_every - 1:
                    self._read_op(result)
                else:
                    self._publish_op(index, rng, channel, exchange, result)
            except Exception as exc:  # noqa: BLE001 - the soak must record, not die
                with self._book:
                    result.errors.append((index, repr(exc)))

    def _publish_op(
        self,
        index: int,
        rng: random.Random,
        channel,
        exchange: str,
        result: SoakResult,
    ) -> None:
        obs_id = rng.choice(self._obs_pool)
        document = self._make_document(index, rng, obs_id)
        channel.basic_publish(exchange, rng.choice(ROUTING_KEYS), document)
        with self._book:
            result.published += 1
            result.sent[obs_id] += 1

    def _make_document(
        self, index: int, rng: random.Random, obs_id: str
    ) -> Dict[str, Any]:
        """The wire document for one publish of ``obs_id``.

        The base soak draws fresh random content per publish — the
        unsharded dedup keys on obs_id alone, so content is free. A
        routing-sensitive subclass overrides this to make content a
        pure function of the obs_id (a redelivery is then byte-identical
        and routes to the same place the original did).
        """
        document: Dict[str, Any] = {
            "app_id": APP_ID,
            "user_id": f"mob{index}",
            "obs_id": obs_id,
            "model": rng.choice(MODELS),
            "noise_dba": round(rng.uniform(35.0, 95.0), 1),
            "taken_at": float(rng.randrange(0, 5 * 86400)),
        }
        if rng.random() < 0.7:
            document["location"] = {
                "x_m": rng.uniform(0.0, 2000.0),
                "y_m": rng.uniform(0.0, 2000.0),
                "provider": rng.choice(PROVIDERS),
            }
        return document

    def _read_op(self, result: SoakResult) -> None:
        """One dashboard read asserting snapshot coherence mid-flight."""
        stats = self.server.middleware_stats()
        reliability = stats["reliability"]
        ledger = reliability["dedup_ledger"]
        breaches = []
        # every stored observation carries an obs_id, so the ingested
        # counter and the ledger must move in lockstep — both are read
        # under the ingest lock, a torn read here is a locking bug.
        if stats["ingested"] != ledger["size"]:
            breaches.append(
                f"torn stats: ingested={stats['ingested']} "
                f"!= dedup ledger size={ledger['size']}"
            )
        if reliability["deduped"] != ledger["hits"]:
            breaches.append(
                f"torn stats: deduped={reliability['deduped']} "
                f"!= dedup ledger hits={ledger['hits']}"
            )
        # the GoFlow consumer auto-acks inline under the queue lock, so
        # a coherent queue snapshot can never catch a message between
        # the enqueue count and its delivery/ack.
        queue_stats = self.server.broker.get_queue(GOFLOW_QUEUE).stats_snapshot()
        if not (queue_stats.enqueued == queue_stats.delivered == queue_stats.acked):
            breaches.append(
                f"queue counters torn: enqueued={queue_stats.enqueued} "
                f"delivered={queue_stats.delivered} acked={queue_stats.acked}"
            )
        totals = self.server.analytics.totals()
        if totals["localized"] > totals["total"]:
            breaches.append(f"analytics torn: {totals!r}")
        if breaches:
            with self._book:
                result.violations.extend(breaches)
        if self._subscriber_ids:
            self._consume_live(result)
            self.server.streaming.tiles_snapshot(app_id=APP_ID)

    def _consume_live(self, result: SoakResult) -> None:
        """Drain a slice of subscriber 0 concurrently with ingest."""
        with self._consume:
            response = self.server.streaming.next_events(
                self._subscriber_ids[0], ack=self._live_cursor, limit=50
            )
            self._live_events.extend(response["events"])
            self._live_cursor = max(self._live_cursor, response["cursor"])

    # -- final invariants --------------------------------------------------------

    def verify(self, result: SoakResult) -> List[str]:
        """Check the post-run global invariants; returns violations."""
        problems: List[str] = []
        if result.stalled_threads:
            problems.append(f"stalled (deadlocked?) threads: {result.stalled_threads}")
            return problems  # the rest would be checked against a moving target

        server = self.server
        collection = server.data.collection

        # exactly-once ingest per obs_id, regardless of redeliveries
        stored = Counter(
            doc["obs_id"] for doc in collection.iter_documents() if "obs_id" in doc
        )
        multi = {k: v for k, v in stored.items() if v != 1}
        if multi:
            problems.append(f"obs_ids stored != exactly once: {multi}")
        missing = set(result.sent) - set(stored)
        if missing:
            problems.append(f"published obs_ids never stored: {sorted(missing)}")
        phantom = set(stored) - set(result.sent)
        if phantom:
            problems.append(f"stored obs_ids never published: {sorted(phantom)}")

        # delivery accounting: every publish became one ingest or one dedup
        if server.ingested != result.distinct_sent:
            problems.append(
                f"ingested={server.ingested} != distinct published={result.distinct_sent}"
            )
        if server.deduped != result.duplicates_sent:
            problems.append(
                f"deduped={server.deduped} != duplicate publishes={result.duplicates_sent}"
            )

        # queue depth conservation on the ingest queue
        queue = server.broker.get_queue(GOFLOW_QUEUE)
        queue_stats = queue.stats_snapshot()
        if queue_stats.enqueued != result.published:
            problems.append(
                f"GF enqueued={queue_stats.enqueued} != published={result.published}"
            )
        if not (queue_stats.enqueued == queue_stats.delivered == queue_stats.acked):
            problems.append(
                f"GF counters unbalanced: enqueued={queue_stats.enqueued} "
                f"delivered={queue_stats.delivered} acked={queue_stats.acked}"
            )
        if queue.ready_count or queue.unacked_count:
            problems.append(
                f"GF queue not drained: ready={queue.ready_count} "
                f"unacked={queue.unacked_count}"
            )

        # materialized view ≡ full recompute over the stored documents
        live = server.data.materialized
        fresh = MaterializedAnalytics(collection)
        for probe in ("totals", "per_model_groups", "day_counts", "provider_counts"):
            live_value = getattr(live, probe)()
            fresh_value = getattr(fresh, probe)()
            if live_value != fresh_value:
                problems.append(
                    f"materialized {probe} diverged: live={live_value!r} "
                    f"recompute={fresh_value!r}"
                )
        totals = live.totals()
        if totals is not None and totals["total"] != len(collection):
            problems.append(
                f"materialized total={totals['total']} != stored={len(collection)}"
            )

        # columnar mirror ≡ both row engines after the dust settles: a
        # covered figure query through the collection must agree with a
        # from-scratch pass of the compiled and naive engines over the
        # same snapshot, and a fresh mirror must hold every stored row.
        pipeline = [
            {
                "$group": {
                    "_id": "$model",
                    "n": {"$count": {}},
                    "avg_noise": {"$avg": "$noise_dba"},
                    "localized": {
                        "$sum": {"$cond": [{"$ifNull": ["$location", False]}, 1, 0]}
                    },
                }
            }
        ]
        live_rows = list(collection.aggregate(pipeline))
        snapshot = collection.iter_documents()
        for engine, rows in (
            ("compiled", aggregate(snapshot, pipeline)),
            ("naive", naive_aggregate(snapshot, pipeline)),
        ):
            if live_rows != rows:
                problems.append(
                    f"collection aggregate diverged from {engine}: "
                    f"{live_rows!r} != {rows!r}"
                )
        mirror_info = collection.columnar_info()
        if (
            mirror_info["enabled"]
            and mirror_info["fresh"]
            and mirror_info["rows"] != len(collection)
        ):
            problems.append(
                f"columnar mirror rows={mirror_info['rows']} "
                f"!= stored={len(collection)}"
            )

        # middleware_stats sums consistently at rest
        stats = server.middleware_stats()
        if stats["ingested"] + stats["reliability"]["deduped"] != result.published:
            problems.append(
                "ingested + deduped != published: "
                f"{stats['ingested']} + {stats['reliability']['deduped']} "
                f"!= {result.published}"
            )
        if stats["observations"]["inserts"] != stats["ingested"]:
            problems.append(
                f"collection inserts={stats['observations']['inserts']} "
                f"!= ingested={stats['ingested']}"
            )
        problems += self._streaming_problems()
        return problems

    # -- streaming invariants ----------------------------------------------------

    def _drain_subscription(
        self, sub_id: str, start_cursor: int, problems: List[str]
    ) -> List[Dict[str, Any]]:
        """Drain a subscription to empty; bounded so a corrupted cursor
        stream (the lock-disabled legs) cannot hang the verifier."""
        events: List[Dict[str, Any]] = []
        cursor = start_cursor
        for _ in range(10_000):
            response = self.server.streaming.next_events(
                sub_id, ack=cursor, limit=500
            )
            events.extend(response["events"])
            cursor = max(cursor, response["cursor"])
            if not response["events"] and response["pending"] == 0:
                return events
        problems.append(f"subscription {sub_id} never drained (stuck cursor)")
        return events

    @staticmethod
    def _event_projection(event: Dict[str, Any]) -> Dict[str, Any]:
        out = dict(event)
        out.pop("cursor", None)
        out.pop("emitted_at", None)
        out.pop("emitted_wall", None)
        return out

    def _streaming_problems(self) -> List[str]:
        """Per-subscriber delivery invariants after the dust settles.

        Every subscriber (match-all spec, workload-sized outbox) must
        hold a cursor-contiguous, gap-free, duplicate-free event stream
        that re-derives exactly from the stored documents — the push ≡
        poll oracle under 8-thread ingest.
        """
        if not self._subscriber_ids:
            return []
        problems: List[str] = []
        streaming = self.server.middleware_stats()["streaming"]
        if streaming["dropped"] or streaming["lagged_markers"]:
            problems.append(
                "ample outboxes still dropped: "
                f"dropped={streaming['dropped']} "
                f"lagged={streaming['lagged_markers']}"
            )
        if streaming["evicted"]:
            problems.append(f"subscribers evicted: {streaming['evicted']}")
        cell_m = self.server.streaming.cell_m
        stored = sorted(
            self.server.data.collection.iter_documents(), key=lambda d: d["_id"]
        )
        if self.server.streaming.tiles_snapshot(
            app_id=APP_ID
        ) != tiles_from_documents(stored, cell_m):
            problems.append("live map != tile recompute over the store")
        expected = [
            observation_event(doc, doc["_id"], APP_ID, region_of(doc, cell_m))
            for doc in stored
        ]
        for position, sub_id in enumerate(self._subscriber_ids):
            if position == 0:
                events = list(self._live_events)
                events += self._drain_subscription(
                    sub_id, self._live_cursor, problems
                )
            else:
                events = self._drain_subscription(sub_id, 0, problems)
            cursors = [event.get("cursor") for event in events]
            if cursors != list(range(1, len(cursors) + 1)):
                gaps = [
                    (a, b)
                    for a, b in zip(cursors, range(1, len(cursors) + 1))
                    if a != b
                ][:5]
                problems.append(
                    f"{sub_id}: cursor stream not contiguous "
                    f"(len={len(cursors)}, first mismatches={gaps})"
                )
            stray = {event.get("kind") for event in events} - {"observation"}
            if stray:
                problems.append(f"{sub_id}: unexpected event kinds {stray}")
                continue
            received = sorted(
                (self._event_projection(event) for event in events),
                key=lambda e: e["_id"],
            )
            if received != expected:
                problems.append(
                    f"{sub_id}: push != brute-force re-filter "
                    f"(received {len(received)} events, "
                    f"store holds {len(expected)})"
                )
            # the listener runs inside the data plane's ingest lock (the
            # router's on a sharded server), so fan-out order *is*
            # insertion order: _ids must arrive strictly increasing.
            ids = [event["_id"] for event in events]
            if ids != sorted(ids):
                problems.append(f"{sub_id}: events out of insertion order")
        return problems
