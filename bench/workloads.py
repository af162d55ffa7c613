"""The five workloads: set-up, measured windows, output checks.

Load is **closed loop from one generator thread**: every entry point of
the middleware (``GoFlowServer.handle``, ``Channel.basic_publish`` with
its inline consumer, ``next_events``) is a synchronous in-process call,
so the only queue an open loop could fill is the generator's own.

Each workload is a write window driven through real ``GoFlowClient``
objects, then a *read-back* window (seeded window retrieves, full
scans, top-k and dashboard reads on the store the workload just built —
``analyst_mixed`` interleaves them with its writes instead), then
untimed output checks against :mod:`bench.reference`.

Why every workload reads back: the driver bounds every end-to-end metric
on every workload, so each must run every query class; and a write-side
change that defers work to the first read (a buffered index merge, a
lazy mirror rebuild) shows in the read-back of the workload that wrote.
``sharded_durable``'s read-back is the issue's phase B; the other three
reuse its counts.

Sizes are the issue's full sizes times one ``scale`` factor; see
``FULL`` below and ``bench/README.md``.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from bench import reference
from bench.recorder import Recorder
from bench.traffic import START_S, SimClock, Stream, Traffic, subscriber_regions
from repro.client.client import GoFlowClient
from repro.client.uplink import BrokerUplink, RestBatchUplink
from repro.client.versions import AppVersion
from repro.core.api import Request
from repro.core.datamgmt import DataQuery
from repro.core.server import GoFlowServer
from repro.docstore.wal import WalConfig
from repro.streaming.filters import FilterSpec

APP = "SC"
PASSWORD = "pw"
PRELOAD_BATCH = 20_000

#: full-size counts (the issue's), multiplied by ``scale`` at run time
FULL = {
    "bulk_upload": {"corpus": 100_000, "observations": 200_000},
    "perop_broker": {"corpus": 20_000, "observations": 120_000},
    "sharded_durable": {"corpus": 50_000, "observations": 100_000},
    "live_map": {"corpus": 0, "observations": 30_000},
    "analyst_mixed": {"corpus": 100_000},
}

#: read-back window (the issue's phase B plus the dashboard triple),
#: identical on every workload but ``analyst_mixed``; not scaled. Few
#: dashboard reads, as in ``analyst_mixed``'s mix: a triple that follows
#: another costs a third of one that follows a query, and with about as
#: many of each their median would fall on either kind by the seed's luck.
READBACK = (("query_window", 40), ("query_scan", 8), ("query_topk", 8), ("dashboard", 16))

#: ``analyst_mixed`` runs half of the issue's 600 operations (the time
#: cap); like the read-back counts, the number does not scale
ANALYST_OPERATIONS = 300

#: ``analyst_mixed`` operation mix (shares of all operations)
ANALYST_MIX = (
    ("flush", 0.10),
    ("query_window", 0.35),
    ("retrieve", 0.15),
    ("dashboard", 0.15),
    ("query_scan", 0.10),
    ("query_topk", 0.10),
    ("count", 0.05),
)

#: read classes whose first operation after a write is timed as its own
#: class (see ``Workload.read``)
WRITE_SENSITIVE = ("query_topk", "dashboard")
AFTER_WRITE = "_after_write"

#: a window retrieve spans one hour of ``taken_at`` at full size. The
#: arrival rate is fixed, so the stored time span shrinks with the scale
#: factor; the window shrinks with it and keeps its share of the store.
WINDOW_S = 3600.0
WINDOW_LIMIT = 200

#: sharded_durable flush policy: group commit, one fsync per four
#: journal records on each shard's log. The wall-clock trigger is
#: disabled so ``docstore.wal.syncs`` repeats exactly for a seed.
DURABLE_WAL = WalConfig(sync_policy="group", group_records=4, group_interval_s=1e9)
DURABLE_SHARDS = 4


# -- shared pieces --------------------------------------------------------------


def scaled(count: int, scale: float, multiple: int = 1) -> int:
    """``count * scale`` rounded to a positive multiple of ``multiple``
    (zero stays zero)."""
    return max(1, round(count * scale / multiple)) * multiple if count else 0


class Workload:
    """Base: one server, the 200 enrolled users, the seeded traffic."""

    name = ""
    uplink_batch: Optional[int] = 500
    version = AppVersion.V1_3
    #: plain repetitions of the seeded pass in one run (see bench/recorder.py)
    repetitions = 3

    def __init__(self, seed: int, scale: float, scratch_dir: str) -> None:
        self.seed = seed
        self.scale = scale
        self.scratch_dir = scratch_dir
        # observations come in whole client batches
        whole = {"observations": self.uplink_batch or 1}
        self.sizes = {
            key: scaled(value, scale, whole.get(key, 1)) for key, value in FULL[self.name].items()
        }
        self.window_s = WINDOW_S * scale
        self.observations_sent = 0
        self.wal_bytes_written = 0
        #: write-sensitive read classes that have not run since the last write
        self.unread_since_write: Set[str] = set()

    # -- set-up ---------------------------------------------------------------

    def server_options(self) -> Dict[str, Any]:
        return {}

    def setup(self) -> None:
        """Everything before the first measured operation."""
        self.traffic = Traffic(self.seed)
        self.rng = np.random.default_rng([self.seed, 2])
        self.clock = SimClock()
        self.server = GoFlowServer(clock=self.clock, **self.server_options())
        self.server.register_app(APP)
        self.logins = {
            user: self.server.enroll_user(APP, user, PASSWORD)
            for user in self.traffic.user_ids
        }
        self.token = self.logins[self.traffic.user_ids[0]]["token"]
        corpus = self.traffic.corpus(self.sizes["corpus"]) if self.sizes["corpus"] else []
        for start in range(0, len(corpus), PRELOAD_BATCH):
            self.server.data.ingest_many(APP, corpus[start : start + PRELOAD_BATCH], owned=True)
        self.corpus_size = len(corpus)
        self.clients: Dict[str, GoFlowClient] = {}
        self.prepare()

    def prepare(self) -> None:
        """Workload-specific inputs and clients (still set-up)."""

    def client_for(self, user: str) -> GoFlowClient:
        client = self.clients.get(user)
        if client is None:
            client = self.clients[user] = GoFlowClient(
                user,
                self.version,
                self.make_uplink(user),
                self.clock,
                uplink_batch=self.uplink_batch,
            )
        return client

    def make_uplink(self, user: str) -> Any:
        return RestBatchUplink(self.server, app_id=APP, token=self.logins[user]["token"])

    # -- measured pieces ------------------------------------------------------

    def feed(self, recorder: Recorder, stream: Stream, kind: str = "flush") -> None:
        """Hand ``stream`` to the phones' clients in arrival order; the
        ``on_observation`` that trips a client's threshold is timed as
        one ``kind`` operation (to confirmed / 2xx)."""
        threshold = max(self.version.buffer_size, self.uplink_batch or 1)
        clock = self.clock
        for observation, arrival in zip(stream.observations, stream.arrivals):
            clock.now = arrival
            client = self.client_for(observation.user_id)
            if client.pending + 1 < threshold:
                client.on_observation(observation)
                continue
            with recorder.op(kind):
                client.on_observation(observation)
            if client.pending:
                recorder.fail(f"flush left {client.pending} observations unconfirmed")
        self.observations_sent += len(stream)
        self.unread_since_write = set(WRITE_SENSITIVE)

    def read_plan(self, counts: Iterable[Tuple[str, int]]) -> List[Tuple[str, Any]]:
        """``count`` operations of each class with their arguments, all
        drawn from the seed, in seeded random order: window starts
        uniform over the arrival span (where the stored ``taken_at``
        values are dense; earlier windows hold only the sparse tail of
        late deliveries), models uniform over the fleet's, the two full
        scans alternating."""
        models = self.query_models()
        low = START_S
        high = max(low + 1.0, self.traffic.now - self.window_s)
        plan: List[Tuple[str, Any]] = []
        for kind, count in counts:
            for index in range(count):
                argument: Any = None
                if kind in ("query_window", "count"):
                    argument = float(self.rng.uniform(low, high))
                elif kind == "query_scan":
                    argument = ("accuracy_buckets", "hourly_distribution")[index % 2]
                elif kind in ("query_topk", "retrieve"):
                    argument = models[int(self.rng.integers(len(models)))]
                plan.append((kind, argument))
        return [plan[index] for index in self.rng.permutation(len(plan))]

    def query_models(self) -> List[str]:
        """The phone models the store holds."""
        return sorted(set(self.traffic.user_models))

    def read(self, recorder: Recorder, kind: str, argument: Any) -> Any:
        """One timed read operation; returns the program's answer.

        The first top-k and the first dashboard read after a write are
        timed as classes of their own, ``<kind>_after_write``: they pay
        what the write left for them (the mirror's appended rows, the
        materialized markers) and cost several times a later one —
        1.5 ms against 0.5 ms, 250 us against 30-100 us. Left in one
        class the two make its median a coin toss wherever they are
        about equally many, which is exactly ``analyst_mixed`` (writes
        and top-k are both 10 % of its mix). For a 25 ms window retrieve
        or a 45 ms scan the same few hundred microseconds do not show."""
        server = self.server
        result: Any = None
        after_write = kind in self.unread_since_write
        self.unread_since_write.discard(kind)
        with recorder.op(kind + AFTER_WRITE if after_write else kind):
            if kind in ("query_window", "count"):
                path = f"/apps/{APP}/data" + ("/count" if kind == "count" else "")
                response = server.handle(
                    Request("GET", path, params=self.window_params(argument), token=self.token)
                )
                if not response.ok:
                    recorder.fail(f"{kind} refused: {response.status} {response.body}")
                result = response.body
                if kind == "query_window" and response.ok:
                    recorder.window_rows.append((argument, len(result)))
            elif kind == "query_scan":
                result = getattr(server.analytics, argument)()
            elif kind == "query_topk":
                result = server.analytics.top_contributors(argument)
            elif kind == "retrieve":
                query = DataQuery(app_id=APP, model=argument, provider="gps", max_accuracy_m=20.0)
                result = server.data.retrieve(query, limit=100)
            elif kind == "dashboard":
                analytics = server.analytics
                result = (
                    analytics.per_model_table(),
                    analytics.cumulative_by_day(),
                    analytics.provider_shares(),
                )
        return result

    def write(
        self,
        recorder: Recorder,
        stream: Stream,
        per_tick: int,
        between: Optional[Callable[[int, float], None]] = None,
    ) -> None:
        """The write window, one segment per ``per_tick`` observations;
        ``between(tick, handed)`` runs inside each segment after its
        observations were handed over at wall time ``handed``."""
        with recorder.window("write"):
            for tick, part in enumerate(stream.slices(per_tick)):
                handed = time.perf_counter()
                self.feed(recorder, part)
                if between is not None:
                    between(tick, handed)
                recorder.mark()

    def window_params(self, since: float) -> Dict[str, str]:
        return {
            "since": repr(since),
            "until": repr(since + self.window_s),
            "limit": str(WINDOW_LIMIT),
        }

    def readback(self, recorder: Recorder) -> None:
        #: (kind, argument, the program's answer) of every read-back operation
        self.answers: List[Tuple[str, Any, Any]] = []
        plan = self.read_plan(READBACK)
        self.window_operations = len(plan)
        with recorder.window("read"):
            for kind, argument in plan:
                self.answers.append((kind, argument, self.read(recorder, kind, argument)))
                recorder.mark()

    def run(self, recorder: Recorder) -> None:
        raise NotImplementedError

    def final_stats(self) -> Dict[str, Any]:
        """``middleware_stats()`` of the server the windows ran on."""
        return self.server.middleware_stats()

    # -- output checks --------------------------------------------------------

    def stored_documents(self) -> Sequence[Dict[str, Any]]:
        return self.server.data.collection.iter_documents()

    def verify(self, recorder: Recorder) -> None:
        """Untimed. Conservation plus one of each read class against
        the plain-Python recompute over the stored documents."""
        server = self.server
        documents = self.stored_documents()
        expected = self.corpus_size + self.observations_sent
        recorder.check(
            "conservation",
            reference.verify_conservation(
                server.data.collection.count(),
                server.data.materialized.totals(),
                documents,
                expected,
            ),
        )
        for kind, argument in self.read_plan(
            (("query_window", 1), ("query_scan", 2), ("query_topk", 1))
        ):
            quiet = Recorder()
            answer = self.read(quiet, kind, argument)
            if kind == "query_window":
                failures = reference.verify_window(
                    answer, documents, APP, argument, argument + self.window_s, WINDOW_LIMIT
                )
            elif kind == "query_scan":
                failures = reference.verify_scan(argument, answer, documents)
            else:
                failures = reference.verify_top_contributors(answer, documents, argument, 20)
            recorder.check(f"{kind}({argument})", failures + quiet.failures)

    def close(self) -> None:
        """Release what set-up opened."""


# -- the workloads --------------------------------------------------------------


class BulkUpload(Workload):
    """200 phones flush backlogs of 500 over REST into a standing corpus."""

    name = "bulk_upload"

    def prepare(self) -> None:
        self.stream = self.traffic.stream(self.sizes["observations"], run_length=self.uplink_batch)
        for user in self.traffic.user_ids:
            self.client_for(user)

    def run(self, recorder: Recorder) -> None:
        self.write(recorder, self.stream, self.uplink_batch)
        self.readback(recorder)


class PeropBroker(Workload):
    """One confirmed publish per observation through the Fig. 3 exchange
    chain; 50 phones also subscribe to their home zone and pull it."""

    name = "perop_broker"
    uplink_batch = None
    version = AppVersion.V1_2_9
    SUBSCRIBERS = 50
    PULL_EVERY = 1000
    DATATYPE = "NoiseObservation"

    def make_uplink(self, user: str) -> Any:
        return BrokerUplink(
            self.server.broker, self.logins[user]["exchange"], app_id=APP,
            datatype=self.DATATYPE, confirm=True,
        )

    def prepare(self) -> None:
        self.stream = self.traffic.stream(self.sizes["observations"])
        self.pullers: List[Tuple[str, str, Any]] = []
        for index, user in enumerate(self.traffic.user_ids[: self.SUBSCRIBERS]):
            zone_x, zone_y = self.traffic.home_zones[index]
            zone = f"Z{zone_x}-{zone_y}"
            response = self.server.handle(
                Request(
                    "POST",
                    f"/apps/{APP}/subscriptions",
                    body={"location_id": zone, "datatype": self.DATATYPE},
                    token=self.logins[user]["token"],
                )
            )
            if not response.ok:
                raise RuntimeError(f"subscription refused: {response.body}")
            channel = self.server.broker.connect(f"pull-{user}").channel()
            self.pullers.append((zone, self.logins[user]["queue"], channel))
        self.pulled = [0] * len(self.pullers)
        for user in self.traffic.user_ids:
            self.client_for(user)

    def pull(self, recorder: Recorder) -> None:
        for index, (_zone, queue, channel) in enumerate(self.pullers):
            with recorder.op("poll"):
                while channel.basic_get(queue) is not None:
                    self.pulled[index] += 1

    def run(self, recorder: Recorder) -> None:
        self.write(
            recorder, self.stream, self.PULL_EVERY,
            between=lambda _tick, _handed: self.pull(recorder),
        )
        self.readback(recorder)

    def verify(self, recorder: Recorder) -> None:
        super().verify(recorder)
        per_zone: Dict[Optional[str], int] = defaultdict(int)
        for observation in self.stream.observations:
            per_zone[reference.zone_of(observation.to_document())] += 1
        want = [per_zone[zone] for zone, _queue, _channel in self.pullers]
        failures = [] if self.pulled == want else [f"subscribers pulled {sum(self.pulled)} messages, their zones received {sum(want)}"]
        recorder.check("zone subscriptions", failures)


class ShardedDurable(BulkUpload):
    """The bulk write path over four journaled shards, scatter-gather
    reads, then a process-crash restart over the same directory."""

    name = "sharded_durable"

    def server_options(self) -> Dict[str, Any]:
        return {
            "sharding": DURABLE_SHARDS,
            "durable": True,
            "data_dir": self.data_dir,
            "wal_config": DURABLE_WAL,
        }

    def setup(self) -> None:
        self.data_dir = tempfile.mkdtemp(prefix="durable-", dir=self.scratch_dir)
        super().setup()

    def wal_bytes(self) -> int:
        total = 0
        for root, _dirs, files in os.walk(os.path.join(self.data_dir, "shards")):
            total += sum(os.path.getsize(os.path.join(root, name)) for name in files)
        return total

    def run(self, recorder: Recorder) -> None:
        wal_bytes_at_start = self.wal_bytes()
        self.write(recorder, self.stream, self.uplink_batch)
        self.wal_bytes_written = self.wal_bytes() - wal_bytes_at_start
        self.readback(recorder)
        # Phase C, the process-crash model: the server is abandoned
        # without close(), so nothing is synced on the way out, but what
        # it already handed to the operating system stays readable (this
        # is a killed process, not a power loss).
        self.acknowledged = self.server.data.collection.count()
        self.stats_at_crash = self.server.middleware_stats()
        self.crashed = self.server
        with recorder.window("recover"):
            with recorder.op("recover"):
                self.server = GoFlowServer(clock=self.clock, **self.server_options())
        last = len(self.stream) - self.uplink_batch
        self.recovered_count = self.server.data.collection.count()
        login = self.server.login_client(APP, self.stream.observations[last].user_id, PASSWORD)
        self.token = login["token"]
        retransmit = GoFlowClient(
            self.stream.observations[last].user_id,
            self.version,
            RestBatchUplink(self.server, app_id=APP, token=login["token"]),
            self.clock,
            uplink_batch=self.uplink_batch,
        )
        self.clients = {retransmit.user_id: retransmit}
        sent = self.observations_sent
        self.feed(
            recorder,
            Stream(self.stream.observations[last:], self.stream.arrivals[last:]),
            kind="retransmit",
        )
        self.observations_sent = sent  # a retransmission, not new data

    def final_stats(self) -> Dict[str, Any]:
        return self.stats_at_crash

    def verify(self, recorder: Recorder) -> None:
        failures = []
        if self.recovered_count != self.acknowledged:
            failures.append(f"recovered {self.recovered_count} documents, {self.acknowledged} were acknowledged")
        if self.server.deduped != self.uplink_batch:
            failures.append(f"retransmitted batch deduped {self.server.deduped} of {self.uplink_batch}")
        recorder.check("recovery", failures)
        super().verify(recorder)
        recorder.check("unsharded twin", self.twin_failures())

    def twin_failures(self) -> List[str]:
        """Phase B's answers against the same reads on an unsharded,
        in-memory twin fed the same corpus and the same client flushes.
        The twin is built here, after the windows, and not in set-up:
        there it would double ``setup_s`` and ``peak_rss_mb``."""
        twin = _UnshardedTwin(self.seed, self.scale, self.scratch_dir)
        twin.setup()
        quiet = Recorder()
        twin.write(quiet, twin.stream, twin.uplink_batch)
        failures = list(quiet.failures)
        documents = twin.stored_documents()
        for kind, argument, answer in self.answers:
            want = twin.read(quiet, kind, argument)
            if kind == "query_topk":
                # equal counts may rank either way on either side
                same = not reference.verify_top_contributors(answer, documents, argument, 20)
            else:
                same = _comparable(kind, answer) == _comparable(kind, want)
            if not same:
                failures.append(f"{kind}({argument}) through the router differs from the twin's")
        return failures

    def close(self) -> None:
        for server in (getattr(self, "crashed", None), getattr(self, "server", None)):
            if server is not None:
                server.router.close()
                if server.store.journal is not None:
                    server.store.journal.close()
        shutil.rmtree(self.data_dir, ignore_errors=True)


def _comparable(kind: str, answer: Any) -> Any:
    """An answer without what may differ between two correct servers:
    ``_id`` stamps, and the order of rows that tie on their sort key."""
    if kind == "query_window":
        return [row["obs_id"] for row in answer]
    if kind == "dashboard":
        table, by_day, shares = answer
        return sorted(table, key=lambda row: row["model"]), by_day, shares
    return answer


class _UnshardedTwin(BulkUpload):
    """``sharded_durable``'s sizes and seed, hence its inputs, on the
    default server."""

    name = "sharded_durable"


class LiveMap(Workload):
    """512 region-filtered dashboards on a downtown grid; one phone
    sends batches of 50 while 4 dashboards drain and 8 poll."""

    name = "live_map"
    uplink_batch = 50
    # a pass is 2 s here: six span the 12 s the other workloads' three do,
    # and it is the span that lets a slow stretch of the box end inside a run
    repetitions = 6
    SUBSCRIPTIONS = 512
    FOREGROUND = 4
    BACKGROUND = 8
    SNAPSHOT_EVERY = 20

    def prepare(self) -> None:
        count = self.sizes["observations"]
        self.stream = self.traffic.stream(count, run_length=count, downtown=True)
        self.regions = subscriber_regions(self.seed, self.SUBSCRIPTIONS)
        streaming = self.server.streaming
        self.subscriptions = [
            streaming.subscribe(
                FilterSpec(app_id=APP, regions=frozenset(regions)),
                observations=True, tiles=True, capacity=4096, max_overruns=0,
            )
            for regions in self.regions
        ]
        self.cursors = [0] * (self.FOREGROUND + self.BACKGROUND)
        self.received: List[List[Dict[str, Any]]] = [[] for _ in range(self.FOREGROUND)]
        self.client_for(self.stream.observations[0].user_id)

    def query_models(self) -> List[str]:
        return [self.stream.observations[0].model]  # one phone sends, so one model is stored

    def drain(self, recorder: Recorder, index: int, handed: float) -> None:
        """A foreground dashboard: poll with its ack cursor until nothing
        is pending; each event it now holds is one staleness sample."""
        streaming, sub = self.server.streaming, self.subscriptions[index]
        while True:
            with recorder.op("poll"):
                response = streaming.next_events(sub, ack=self.cursors[index], limit=1000)
            now = time.perf_counter()
            events = response["events"]
            self.cursors[index] = response["cursor"]
            self.received[index].extend(events)
            recorder.staleness.extend([now - handed] * len(events))
            if not response["pending"]:
                return

    def dashboards(self, recorder: Recorder, tick: int, handed: float) -> None:
        """After each batch: the foreground dashboards drain, one
        background dashboard polls, every 20th tick reads the map."""
        streaming = self.server.streaming
        for index in range(self.FOREGROUND):
            self.drain(recorder, index, handed)
        lazy = self.FOREGROUND + tick % self.BACKGROUND
        with recorder.op("poll"):
            response = streaming.next_events(
                self.subscriptions[lazy], ack=self.cursors[lazy], limit=100
            )
        self.cursors[lazy] = response["cursor"]
        if tick % self.SNAPSHOT_EVERY == self.SNAPSHOT_EVERY - 1:
            with recorder.op("tiles_snapshot"):
                streaming.tiles_snapshot(app_id=APP)

    def run(self, recorder: Recorder) -> None:
        self.write(
            recorder, self.stream, self.uplink_batch,
            between=lambda tick, handed: self.dashboards(recorder, tick, handed),
        )
        self.readback(recorder)

    def verify(self, recorder: Recorder) -> None:
        super().verify(recorder)
        documents = self.stored_documents()
        streaming = self.server.streaming
        for index in range(self.FOREGROUND):
            recorder.check(
                f"dashboard {index} stream",
                reference.verify_stream(
                    self.received[index], documents, APP, self.regions[index], streaming.cell_m
                ),
            )
        recorder.check(
            "tiles",
            reference.verify_tiles(streaming.tiles_snapshot(app_id=APP), documents, streaming.cell_m),
        )


class AnalystMixed(Workload):
    """Reads dominate; a trickle of write batches of 100 keeps dirtying
    the columnar mirror, plan cache and materialized markers. Which
    reads land behind a write is the seed's draw; how many did is
    reported as ``bench.reads_after_write.count``."""

    name = "analyst_mixed"
    uplink_batch = 100

    def prepare(self) -> None:
        counts = [(kind, round(share * ANALYST_OPERATIONS)) for kind, share in ANALYST_MIX]
        self.write_stream = self.traffic.stream(
            counts[0][1] * self.uplink_batch, run_length=self.uplink_batch
        )
        self.plan = self.read_plan(counts)
        self.window_operations = len(self.plan)
        for observation in self.write_stream.observations[:: self.uplink_batch]:
            self.client_for(observation.user_id)

    def run(self, recorder: Recorder) -> None:
        batches = self.write_stream.slices(self.uplink_batch)
        with recorder.window("mixed"):
            for kind, argument in self.plan:
                if kind == "flush":
                    self.feed(recorder, next(batches))
                else:
                    self.read(recorder, kind, argument)
                recorder.mark()


WORKLOADS: Dict[str, Callable[[int, float, str], Workload]] = {
    cls.name: cls for cls in (BulkUpload, PeropBroker, ShardedDurable, LiveMap, AnalystMixed)
}
