"""Barrier-forced interleavings: each race pinned at its exact window.

The soak finds races statistically; these tests force the scheduler
into the one interleaving each lock exists to forbid, so every
protection is exercised deterministically:

- dedup check-then-insert (two threads redeliver one obs_id);
- the torn ``middleware_stats`` read (the ``obs_id`` index moves
  between counter reads);
- the stale materialized view (a write lands between the rebuild's
  marker read and its document snapshot);
- the sorted index's read-time fold (two readers sharing the read lock
  both order the keys a write left pending);
- the router's delivery hook (two ingests on different shards reach
  the subscription plane out of ``_id`` order).

Each scenario runs twice: with real locks the victim thread is held
out of the window (rendezvous times out, behaviour stays correct), and
under ``lock_mode("off")`` both threads meet inside the window and the
bug fires on cue — proving the test would catch a regression.
"""

import random
import sys
import threading

import pytest

from repro import concurrency
from repro.core.materialized import MaterializedAnalytics
from repro.core.privacy import PrivacyPolicy
from repro.core.server import GoFlowServer
from repro.docstore.collection import Collection
from repro.docstore.errors import DuplicateKeyError

APP = "SC"


def _observation(obs_id: str) -> dict:
    return {
        "app_id": APP,
        "user_id": "mob1",
        "obs_id": obs_id,
        "noise_dba": 61.0,
        "taken_at": 10.0,
    }


def _run_threads(*targets, timeout=5.0):
    threads = [threading.Thread(target=t, daemon=True) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout)
        assert not thread.is_alive(), "interleaving test deadlocked"


class TestDedupCheckThenInsertRace:
    """Two concurrent redeliveries of one obs_id must store one doc.

    The race window sits between the ``obs_id`` index probe and the
    insert; the rendezvous is planted in the observations collection's
    ``insert_many``, which runs exactly there. Locked, the second thread
    is still waiting on the ingest lock, so only one thread reaches the
    barrier and it times out; the other then finds the key and counts a
    dedup hit. Unlocked, both probes miss and both threads insert: the
    unique index is the backstop, refusing the loser with
    ``DuplicateKeyError``. Both legs assert the seam was hit, so a
    refactor that moves it fails loudly instead of leaving the barrier
    dead.
    """

    def _race_once(self, server) -> tuple:
        barrier = threading.Barrier(2)
        hits = []
        errors = []
        collection = server.data.collection
        original = collection.insert_many

        def rendezvous(documents, **kwargs):
            hits.append(1)
            try:
                barrier.wait(timeout=0.5)
            except threading.BrokenBarrierError:
                pass  # the lock held the other thread out — correct
            return original(documents, **kwargs)

        def redeliver():
            try:
                server.data.ingest(APP, _observation("dup-1"))
            except Exception as exc:  # the loser's error, inspected below
                errors.append(exc)

        collection.insert_many = rendezvous
        _run_threads(redeliver, redeliver)
        stored = server.data.collection.count({"obs_id": "dup-1"})
        return stored, len(hits), errors

    def test_locked_stores_exactly_once(self):
        server = GoFlowServer()
        server.register_app(APP)
        stored, hits, errors = self._race_once(server)
        assert hits == 1
        assert stored == 1
        assert errors == []
        assert server.data.dedup_hits == 1

    def test_lock_disabled_double_inserts(self):
        with concurrency.lock_mode("off"):
            server = GoFlowServer()
            server.register_app(APP)
            stored, hits, errors = self._race_once(server)
        assert hits == 2
        assert stored == 1
        assert [type(error) for error in errors] == [DuplicateKeyError]


class TestTornMiddlewareStatsRead:
    """``middleware_stats`` must not see the ledger move mid-snapshot.

    The stats reader is paused after it copied the ingested counter but
    before it sizes the dedup ledger; an ingest is pushed through the
    gap. Locked, the ingest blocks on the ingest lock the reader holds,
    so the gap cannot be used and the snapshot stays coherent.
    """

    def _torn_read(self, server) -> dict:
        barrier = threading.Barrier(2)
        ingest_done = threading.Event()
        original = server.data.dedup_info

        def rendezvous():
            try:
                barrier.wait(timeout=0.5)
            except threading.BrokenBarrierError:
                pass
            else:
                # hold the gap open until the rival ingest finishes (or,
                # locked, until the wait times out because it cannot).
                ingest_done.wait(timeout=0.5)
            return original()

        server.data.dedup_info = rendezvous
        captured = {}

        def reader():
            captured.update(server.middleware_stats())

        def writer():
            try:
                barrier.wait(timeout=0.5)
            except threading.BrokenBarrierError:
                return
            server.data.ingest(APP, _observation("torn-1"))
            ingest_done.set()

        _run_threads(reader, writer)
        # let the blocked ingest land before the test inspects anything
        ingest_done.wait(timeout=2.0)
        return captured

    def test_locked_snapshot_is_coherent(self):
        server = GoFlowServer()
        server.register_app(APP)
        stats = self._torn_read(server)
        assert stats["ingested"] == stats["reliability"]["dedup_ledger"]["size"]

    def test_lock_disabled_snapshot_tears(self):
        with concurrency.lock_mode("off"):
            server = GoFlowServer()
            server.register_app(APP)
            stats = self._torn_read(server)
        assert stats["ingested"] != stats["reliability"]["dedup_ledger"]["size"]


class TestStaleMaterializedViewRace:
    """A write between marker read and rebuild snapshot must not fool
    the view into double-counting.

    Sequence forced here: the view's first read rebuilds it, and the
    rebuild reads the write marker — then, before it lists the
    documents, an insert lands. Unlocked, the rebuild folds the new
    document under the old marker, the next read pulls it again as the
    tail inserted since that marker: total = stored + 1, and the view
    believes it is fresh (a permanently wrong dashboard). Locked, the
    collection's read lock holds the insert out until the snapshot is
    atomic, and the next read pulls it once.
    """

    def _race_once(self) -> tuple:
        collection = Collection("observations")
        view = MaterializedAnalytics(collection)  # unbuilt until read
        collection.insert_one({"model": "nexus4", "taken_at": 100.0})

        rebuild_at_marker = threading.Event()
        insert_done = threading.Event()
        calls = []
        original = collection.write_marker

        def hooked_marker():
            marker = original()
            calls.append(marker)
            # an unbuilt view's first read goes straight to _rebuild, so
            # the *first* marker read is the one inside it — the race
            # window this test pries open.
            if len(calls) == 1:
                rebuild_at_marker.set()
                insert_done.wait(timeout=0.5)
            return marker

        collection.write_marker = hooked_marker

        def rebuilder():
            view.totals()  # unbuilt view -> rebuild -> hooked marker read

        def writer():
            assert rebuild_at_marker.wait(timeout=2.0)
            collection.insert_one({"model": "nexus4", "taken_at": 200.0})
            insert_done.set()

        _run_threads(rebuilder, writer)
        insert_done.wait(timeout=2.0)
        # the next read pulls whatever was inserted since the marker
        totals = view.totals()
        return totals["total"], len(collection), view.info()["fresh"], len(calls)

    def test_locked_rebuild_snapshot_is_atomic(self):
        total, stored, fresh, hits = self._race_once()
        assert hits > 0
        assert total == stored == 2
        assert fresh

    def test_lock_disabled_double_counts_and_claims_fresh(self):
        with concurrency.lock_mode("off"):
            total, stored, fresh, hits = self._race_once()
        assert hits > 0
        assert stored == 2
        assert total == 3  # the racing insert was folded twice
        assert fresh  # and the view cannot even tell it is wrong


class TestSortedIndexFoldRace:
    """Two first readers after a write must fold ``pending`` once.

    ``SortedIndex`` orders new keys on the first range read, and reads
    only share ``Collection``'s lock — so the fold has its own mutex.
    It is *not* a single publish: ``keys`` is extended and sorted in
    place before ``pending = []`` publishes it, which is safe only
    because the mutex keeps every other reader off ``keys`` meanwhile.
    The rendezvous sits in ``pending.sort()``, the fold's first step.
    Locked, the second reader waits on the mutex, the barrier times
    out, and it then finds nothing left to fold. Unlocked, both meet
    inside the fold, both append the pending keys, and ``keys`` holds
    every late key twice — invisible in the result (a union of
    buckets), which is why the key list itself is checked.
    """

    def _race_once(self):
        collection = Collection("observations")
        collection.create_index("taken_at", kind="sorted")
        collection.insert_many([{"taken_at": float(t)} for t in range(0, 100, 10)])
        window = {"taken_at": {"$gte": 25.0}}
        collection.find(window)  # standing corpus ordered
        late = [55.5, 5.5, 95.5, 25.5, 40.0, 15.5]  # out of order, one known
        collection.insert_many([{"taken_at": t} for t in late])
        expected = sorted(
            d["_id"] for d in collection.iter_documents() if d["taken_at"] >= 25.0
        )

        barrier = threading.Barrier(2)

        class RendezvousList(list):
            def sort(self):
                try:
                    barrier.wait(timeout=0.5)
                except threading.BrokenBarrierError:
                    pass  # the mutex held the other reader out — correct
                super().sort()

        partition = collection._sorted_indexes["taken_at"]._partitions["number"]
        partition.pending = RendezvousList(partition.pending)
        results = []

        def reader():
            results.append(sorted(d["_id"] for d in collection.find(window)))

        _run_threads(reader, reader)
        folds = collection.stats_snapshot().index_folds
        return results, expected, partition.keys, folds

    def test_locked_readers_fold_once(self):
        results, expected, keys, folds = self._race_once()
        assert results == [expected, expected]
        assert keys == sorted(set(keys)) and len(keys) == 15
        assert folds == 2  # the warm-up read's, then exactly one more

    def test_lock_disabled_readers_both_fold(self):
        with concurrency.lock_mode("off"):
            results, expected, keys, folds = self._race_once()
        assert keys != sorted(set(keys))  # late keys merged twice

    def test_stress_readers_fold_while_writers_keep_arriving(self):
        """6 readers + 2 writers on 2 cores, switching every 10 µs: every
        window read equals a scan taken under the same read view, and
        the key list ends ordered, duplicate-free and complete. Bursts
        of 400 keys keep a fold long enough that, with the fold mutex
        removed, released readers meet inside one about every other run."""
        collection = Collection("observations")
        collection.create_index("taken_at", kind="sorted")
        window = {"taken_at": {"$gte": 200.0, "$lt": 700.0}}
        writers_done = threading.Event()
        mismatches = []

        def writer(seed):
            rng = random.Random(seed)
            for _ in range(15):
                batch = [{"taken_at": rng.uniform(0.0, 1000.0)} for _ in range(400)]
                collection.insert_many(batch, copy=False)
                collection.delete_one({"taken_at": {"$gte": rng.uniform(0.0, 900.0)}})

        def reader():
            while not writers_done.is_set():
                with collection.read_locked():
                    got = sorted(d["_id"] for d in collection.find(window))
                    want = sorted(
                        d["_id"]
                        for d in collection.iter_documents()
                        if 200.0 <= d["taken_at"] < 700.0
                    )
                if got != want:
                    mismatches.append((got, want))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            readers = [threading.Thread(target=reader, daemon=True) for _ in range(6)]
            for thread in readers:
                thread.start()
            _run_threads(lambda: writer(1), lambda: writer(2), timeout=30.0)
            writers_done.set()
            for thread in readers:
                thread.join(timeout=5.0)
                assert not thread.is_alive(), "reader never finished"
        finally:
            writers_done.set()
            sys.setswitchinterval(interval)
        assert not mismatches
        assert len(collection.find(window).to_list()) > 0
        partition = collection._sorted_indexes["taken_at"]._partitions["number"]
        assert partition.pending == []
        assert partition.keys == sorted(set(partition.keys))
        live = {key for key in partition.keys if partition.buckets[key]}
        assert live == {d["taken_at"] for d in collection.iter_documents()}


class TestRouterListenerOrder:
    """Sharded fan-out order must be ``_id`` order, as unsharded.

    Two observations route to different shards, so no shard lock stands
    between them. Thread A takes ``_id`` 1 and is held inside its
    shard's write body (the rendezvous in ``anonymize_ingest_many``)
    until thread B's ingest has returned — by then B's listener has
    fired. Locked, B waits on the router's ingest lock until A has
    delivered, the rendezvous times out, and a subscriber hears
    ``[1, 2]``. Unlocked, B takes ``_id`` 2 and delivers first:
    ``[2, 1]``.
    """

    def _race_once(self) -> list:
        server = GoFlowServer(sharding=2)
        server.register_app(APP)
        owners = {}
        for n in range(100):
            owners.setdefault(server.router.ring.node_for(f"r{n}"), f"r{n}")
        region_a, region_b = (owners[name] for name in sorted(owners))
        sub = server.streaming.subscribe()
        a_inside = threading.Event()
        b_done = threading.Event()
        original = server.privacy.anonymize_ingest_many

        def rendezvous(documents, owned=False):
            if documents[0]["obs_id"] == "a":
                a_inside.set()
                b_done.wait(timeout=0.5)  # locked: B cannot get here
            return original(documents, owned=owned)

        server.privacy.anonymize_ingest_many = rendezvous

        def thread_a():
            server.data.ingest(APP, dict(_observation("a"), region=region_a))

        def thread_b():
            assert a_inside.wait(timeout=2.0)
            server.data.ingest(APP, dict(_observation("b"), region=region_b))
            b_done.set()

        _run_threads(thread_a, thread_b)
        events = server.streaming.next_events(sub)["events"]
        return [event["_id"] for event in events]

    def test_locked_delivers_in_id_order(self):
        assert self._race_once() == [1, 2]

    def test_lock_disabled_delivers_out_of_order(self):
        with concurrency.lock_mode("off"):
            assert self._race_once() == [2, 1]


class TestRWLockSemantics:
    """The docstore's readers/writer lock keeps its promises."""

    def test_upgrade_attempt_raises_instead_of_deadlocking(self):
        lock = concurrency.RWLock()
        with lock.read():
            with pytest.raises(RuntimeError, match="upgrade"):
                with lock.write():
                    pass

    def test_writer_holder_may_read_reentrantly(self):
        lock = concurrency.RWLock()
        with lock.write():
            with lock.read():
                pass
            with lock.write():
                pass

    def test_waiting_writer_blocks_new_readers_but_not_held_ones(self):
        lock = concurrency.RWLock()
        reader_in = threading.Event()
        release_reader = threading.Event()
        writer_done = threading.Event()
        order = []

        def reader():
            with lock.read():
                reader_in.set()
                release_reader.wait(timeout=5.0)
                # re-entrant read must not queue behind the waiting writer
                with lock.read():
                    order.append("reader-reentry")

        def writer():
            reader_in.wait(timeout=5.0)
            with lock.write():
                order.append("writer")
            writer_done.set()

        threads = [threading.Thread(target=t, daemon=True) for t in (reader, writer)]
        for thread in threads:
            thread.start()
        reader_in.wait(timeout=5.0)
        # give the writer a moment to start waiting, then let go
        threads[1].join(timeout=0.2)
        release_reader.set()
        for thread in threads:
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        assert order == ["reader-reentry", "writer"]
        assert writer_done.is_set()

    def test_pseudonym_cache_is_consistent_across_threads(self):
        policy = PrivacyPolicy()
        results = [None] * 8

        def worker(index):
            results[index] = [policy.pseudonym(f"user-{i}") for i in range(50)]

        _run_threads(*(lambda i=i: worker(i) for i in range(8)))
        assert all(r == results[0] for r in results)
