"""Write-ahead logging and crash recovery for the document store.

The paper's deployment accumulated ~23M observations over ten months —
data that cannot live only in RAM. This module gives the docstore the
classic durability architecture (the same shape MongoDB's journal and
GSN's stream storage use):

- **Journal-before-apply.** Every collection mutation (`insert_one`,
  `insert_many`, `update`, `delete`, DDL) appends one record to an
  append-only log segment *before* touching in-memory state. Replaying
  the records in order onto the last snapshot deterministically
  re-derives the exact pre-crash state: inserts are journaled
  physically (documents with assigned ``_id``\\ s), updates and deletes
  logically (filter + operators + the pinned clock value).
- **Group commit.** ``fsync`` is the expensive part, so the log flushes
  by policy: ``"always"`` (sync every record — the safe default),
  ``"group"`` (sync once per ``group_records`` appends or
  ``group_interval_s`` seconds, whichever first — ingest batches share
  one sync), or ``"never"`` (the OS decides; benchmarking only).
- **Torn-write detection.** Each record line carries a CRC-32 of its
  payload. Recovery stops at the first record whose CRC, framing, or
  JSON fails — the torn tail a kill -9 mid-append leaves behind — and
  truncates the segment there. Everything before the tear replays;
  nothing after it can be trusted.
- **Rotation & compaction.** Segments rotate at a size bound. A
  checkpoint replays the *sealed* segments (pure disk work — the live
  store is never locked) into a shadow store, dumps it as an atomic
  snapshot whose header records ``wal_start`` (the first segment still
  live), then deletes the compacted segments. A crash at any point
  leaves either the old snapshot + all segments or the new snapshot
  whose header excludes the covered segments — never a double replay.
- **Exactly-once across the crash.** Ingest's dedup ledger is the
  observations collection's unique ``obs_id`` index, so it needs no
  record of its own: replaying the insert records rebuilds the index
  with the documents, and a retransmitted batch after recovery
  deduplicates exactly as it would have before the crash. Snapshots
  carry the index declaration, so compaction never forgets it either.

Record format, one per line::

    crc32hex SP json-body LF

where the body is ``{"lsn": N, "op": ..., "c": collection, ...}`` and
the CRC covers the body bytes. Segment files are named
``wal-<seq:08d>.log``; the snapshot is ``snapshot.jsonl``.

Kill-point testing: :attr:`WriteAheadLog.on_event` is a hook invoked at
named points (``append:written``, ``append:synced``, ``compact:*``).
The crash-recovery suite installs a seeded injector that raises there,
simulating a kill -9 at deterministic instants mid-commit.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro import concurrency
from repro.docstore.errors import DocStoreError
from repro.docstore.store import DocumentStore

SNAPSHOT_NAME = "snapshot.jsonl"
_SNAPSHOT_NEW = SNAPSHOT_NAME + ".new"
_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"

#: sync policies
SYNC_ALWAYS = "always"
SYNC_GROUP = "group"
SYNC_NEVER = "never"


@dataclass(frozen=True)
class WalConfig:
    """Durability knobs.

    Attributes:
        sync_policy: ``"always"`` fsyncs every record before the write
            is acknowledged; ``"group"`` batches fsyncs (group commit);
            ``"never"`` leaves flushing to the OS.
        group_records: under ``"group"``, sync once this many records
            are pending.
        group_interval_s: under ``"group"``, sync when this much wall
            time passed since the last sync (checked at append time).
        segment_max_bytes: rotate the active segment beyond this size.
        checkpoint_segments: compact automatically once this many
            sealed segments accumulate (0 disables auto-checkpoint).
    """

    sync_policy: str = SYNC_ALWAYS
    group_records: int = 64
    group_interval_s: float = 0.05
    segment_max_bytes: int = 8 * 1024 * 1024
    checkpoint_segments: int = 0

    def __post_init__(self) -> None:
        if self.sync_policy not in (SYNC_ALWAYS, SYNC_GROUP, SYNC_NEVER):
            raise DocStoreError(
                f"sync_policy must be always/group/never, got {self.sync_policy!r}"
            )
        if self.group_records < 1:
            raise DocStoreError("group_records must be >= 1")
        if self.group_interval_s < 0:
            raise DocStoreError("group_interval_s must be >= 0")
        if self.segment_max_bytes < 4096:
            raise DocStoreError("segment_max_bytes must be >= 4096")
        if self.checkpoint_segments < 0:
            raise DocStoreError("checkpoint_segments must be >= 0")


def _segment_path(directory: Path, seq: int) -> Path:
    return directory / f"{_SEGMENT_PREFIX}{seq:08d}{_SEGMENT_SUFFIX}"


def _segment_seq(path: Path) -> Optional[int]:
    name = path.name
    if not (name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX)):
        return None
    try:
        return int(name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)])
    except ValueError:
        return None


def _list_segments(directory: Path) -> List[Tuple[int, Path]]:
    segments = []
    for path in directory.iterdir():
        seq = _segment_seq(path)
        if seq is not None:
            segments.append((seq, path))
    return sorted(segments)


def _encode_record(body: Dict[str, Any]) -> bytes:
    try:
        payload = json.dumps(body, ensure_ascii=False, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise DocStoreError(f"WAL record is not JSON-serializable: {exc}") from exc
    raw = payload.encode("utf-8")
    crc = zlib.crc32(raw) & 0xFFFFFFFF
    return b"%08x " % crc + raw + b"\n"


def _read_segment(path: Path) -> Tuple[int, List[Dict[str, Any]], bool]:
    """Parse a segment; returns ``(good_bytes, records, torn)``.

    ``good_bytes`` is the offset of the first unreadable byte — a torn
    segment is truncated there by the caller. Any framing, CRC, or JSON
    failure marks the tear; records after it are never trusted (a hole
    in the middle of a log makes everything behind it unreplayable).
    """
    data = path.read_bytes()
    records: List[Dict[str, Any]] = []
    offset = 0
    size = len(data)
    while offset < size:
        newline = data.find(b"\n", offset)
        if newline < 0:
            return offset, records, True  # partial tail line
        line = data[offset:newline]
        if len(line) < 10 or line[8:9] != b" ":
            return offset, records, True
        try:
            expected = int(line[:8], 16)
        except ValueError:
            return offset, records, True
        raw = line[9:]
        if zlib.crc32(raw) & 0xFFFFFFFF != expected:
            return offset, records, True
        try:
            record = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return offset, records, True
        if not isinstance(record, dict):
            return offset, records, True
        records.append(record)
        offset = newline + 1
    return offset, records, False


class WriteAheadLog:
    """The append side of the log: segments, group commit, compaction.

    Built by :func:`recover_store`; collections call :meth:`log` under
    their write lock (the WAL's own lock nests strictly inside every
    collection lock, and compaction never touches live collections, so
    there is no path back out).
    """

    def __init__(
        self,
        directory: Path,
        config: WalConfig,
        store_name: str,
        start_seq: int,
        next_lsn: int,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self._dir = Path(directory)
        self.config = config
        self._store_name = store_name
        self._clock = clock
        self._lock = concurrency.make_rlock()
        self._checkpoint_lock = concurrency.make_rlock()
        self._seq = start_seq
        self._lsn = next_lsn - 1
        self._synced_lsn = self._lsn
        self._pending = 0
        self._last_sync = time.monotonic()
        #: test hook: called with an event name at commit-critical
        #: points; a raising hook simulates a kill -9 at that instant.
        self.on_event: Optional[Callable[[str], None]] = None
        # observability
        self.appends = 0
        self.syncs = 0
        self.rotations = 0
        self.checkpoints = 0
        self.snapshot_docs: Optional[int] = None
        self.recovery_stats: Dict[str, Any] = {}
        self._handle = self._open_segment(self._seq)

    # -- events ---------------------------------------------------------------

    def _emit(self, event: str) -> None:
        hook = self.on_event
        if hook is not None:
            hook(event)

    # -- segment plumbing ------------------------------------------------------

    def _open_segment(self, seq: int):
        path = _segment_path(self._dir, seq)
        handle = open(path, "ab")
        header = {"lsn": 0, "op": "seg", "store": self._store_name, "seq": seq}
        handle.write(_encode_record(header))
        handle.flush()
        os.fsync(handle.fileno())
        return handle

    def _rotate_locked(self) -> None:
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()
        self._synced_lsn = self._lsn
        self._pending = 0
        self._seq += 1
        self._handle = self._open_segment(self._seq)
        self.rotations += 1

    # -- append ---------------------------------------------------------------

    def log(self, record: Dict[str, Any]) -> int:
        """Append one record; returns its LSN.

        The record is fully serialized before any byte is written, so a
        non-JSON-serializable document aborts the caller's mutation with
        the log untouched. Sync behaviour follows the configured
        policy; rotation happens after the append when the segment
        outgrew its bound.
        """
        with self._lock:
            body = dict(record)
            body["lsn"] = self._lsn + 1
            line = _encode_record(body)
            self._handle.write(line)
            self._lsn += 1
            self._pending += 1
            self.appends += 1
            self._emit("append:written")
            self._maybe_sync_locked()
            if self._handle.tell() >= self.config.segment_max_bytes:
                self._rotate_locked()
                if self.config.checkpoint_segments:
                    sealed = sum(
                        1 for seq, _ in _list_segments(self._dir) if seq < self._seq
                    )
                    if sealed >= self.config.checkpoint_segments:
                        self.checkpoint()
            return self._lsn

    def _maybe_sync_locked(self) -> None:
        policy = self.config.sync_policy
        if policy == SYNC_NEVER:
            self._handle.flush()
            return
        if policy == SYNC_GROUP:
            elapsed = time.monotonic() - self._last_sync
            if (
                self._pending < self.config.group_records
                and elapsed < self.config.group_interval_s
            ):
                self._handle.flush()
                return
        self._sync_locked()
        self._emit("append:synced")

    def _sync_locked(self) -> None:
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._synced_lsn = self._lsn
        self._pending = 0
        self._last_sync = time.monotonic()
        self.syncs += 1

    def sync(self) -> None:
        """Force everything appended so far to disk."""
        with self._lock:
            self._sync_locked()

    def close(self) -> None:
        """Flush, sync, and close the active segment."""
        with self._lock:
            self._sync_locked()
            self._handle.close()

    # -- compaction ------------------------------------------------------------

    def checkpoint(self) -> int:
        """Compact sealed segments into a fresh snapshot; returns doc count.

        Rotation (under the append lock) seals the current segment;
        everything afterwards is pure file work against sealed data —
        the live store keeps ingesting into the new segment unblocked.
        A shadow store is replayed from the old snapshot plus the
        sealed segments, dumped atomically with ``wal_start`` pointing
        at the first live segment, and only then are the compacted
        segments removed. Every intermediate crash state recovers
        correctly (see the kill-point suite).
        """
        with self._checkpoint_lock:
            with self._lock:
                self._rotate_locked()
                live_start = self._seq
            self._emit("compact:rotated")
            shadow, shadow_stats = _replay_directory(
                self._dir,
                name=self._store_name,
                clock=None,
                upto_seq=live_start - 1,
                repair=False,
            )
            new_path = self._dir / _SNAPSHOT_NEW
            from repro.docstore.persistence import dump_store

            docs = dump_store(
                shadow,
                new_path,
                # LSNs stay monotonic across compactions: the snapshot
                # remembers the highest one it swallowed.
                state={"_wal": {"lsn": shadow_stats["last_lsn"]}},
                wal_start=live_start,
            )
            self._emit("compact:pre-replace")
            os.replace(new_path, self._dir / SNAPSHOT_NAME)
            _fsync_dir(self._dir)
            self._emit("compact:snapshot-replaced")
            for seq, path in _list_segments(self._dir):
                if seq < live_start:
                    path.unlink(missing_ok=True)
            _fsync_dir(self._dir)
            self._emit("compact:segments-deleted")
            self.checkpoints += 1
            self.snapshot_docs = docs
            return docs

    # -- observability ----------------------------------------------------------

    def info(self) -> Dict[str, Any]:
        """Journal health for ``middleware_stats()["durability"]``."""
        with self._lock:
            return {
                "enabled": True,
                "dir": str(self._dir),
                "sync_policy": self.config.sync_policy,
                "active_segment": self._seq,
                "segments": len(_list_segments(self._dir)),
                "lsn": self._lsn,
                "synced_lsn": self._synced_lsn,
                "appends": self.appends,
                "syncs": self.syncs,
                "rotations": self.rotations,
                "checkpoints": self.checkpoints,
                "snapshot_docs": self.snapshot_docs,
                "recovery": dict(self.recovery_stats),
            }


# -- recovery ------------------------------------------------------------------


def _fsync_dir(directory: Path) -> None:
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(fd)


def _apply_record(
    store: DocumentStore,
    record: Dict[str, Any],
    stats: Dict[str, int],
) -> None:
    """Replay one journal record onto ``store``.

    Failed operations are skipped, not fatal: an op that raised live
    (say a unique-index violation journaled before the violation was
    discovered) deterministically raises again on the identical
    pre-state, which is exactly the equivalence recovery needs.
    """
    op = record.get("op")
    try:
        if op == "seg":
            return
        if op in ("insert", "insert_many"):
            collection = store.collection(record["c"])
            docs = record["docs"]
            if op == "insert":
                collection.insert_one(docs[0], copy=False)
            else:
                collection.insert_many(docs, copy=False)
        elif op == "update":
            store.collection(record["c"])._update(
                record["filter"],
                record["update"],
                multi=record["multi"],
                upsert=record["upsert"],
                now=record.get("now"),
            )
        elif op == "delete":
            collection = store.collection(record["c"])
            if record["multi"]:
                collection.delete_many(record["filter"])
            else:
                collection.delete_one(record["filter"])
        elif op == "create_index":
            store.collection(record["c"]).create_index(
                record["path"],
                kind=record["kind"],
                unique=record.get("unique", False),
                exist_ok=True,
            )
        elif op == "drop_index":
            collection = store.collection(record["c"])
            if record["path"] in collection.index_paths():
                collection.drop_index(record["path"])
        elif op == "drop_docs":
            store.collection(record["c"]).drop()
        elif op == "drop_collection":
            if store.has_collection(record["c"]):
                store.drop_collection(record["c"])
        else:
            stats["unknown_ops"] = stats.get("unknown_ops", 0) + 1
            return
        stats["records_replayed"] += 1
    except DocStoreError:
        stats["records_skipped"] += 1


def _replay_directory(
    directory: Path,
    name: str,
    clock: Optional[Callable[[], float]],
    upto_seq: Optional[int] = None,
    repair: bool = True,
) -> Tuple[DocumentStore, Dict[str, Any]]:
    """Rebuild a store from ``directory``'s snapshot + segments.

    Returns ``(store, stats)``. ``upto_seq`` bounds which
    segments replay (compaction's shadow pass stops before the live
    segment). With ``repair`` the torn tail is truncated on disk and
    segments beyond a tear are deleted; the shadow pass never modifies
    files.
    """
    from repro.docstore.persistence import load_snapshot

    stats: Dict[str, Any] = {
        "records_replayed": 0,
        "records_skipped": 0,
        "torn_segments": 0,
        "segments_replayed": 0,
        "snapshot_loaded": False,
    }
    snapshot_path = directory / SNAPSHOT_NAME
    if snapshot_path.exists():
        store, state, wal_start = load_snapshot(snapshot_path, clock=clock)
        stats["snapshot_loaded"] = True
    else:
        store = DocumentStore(name=name, clock=clock)
        state = {}
        wal_start = 1
    last_lsn = int(state.pop("_wal", {}).get("lsn", 0))
    last_seq = wal_start - 1
    torn = False
    for seq, path in _list_segments(directory):
        if upto_seq is not None and seq > upto_seq:
            break
        if seq < wal_start:
            # already folded into the snapshot by a checkpoint whose
            # segment deletion did not finish before the crash
            if repair:
                path.unlink(missing_ok=True)
            continue
        if torn:
            # nothing after a tear is replayable: a hole in the log
            # breaks the determinism every later record depends on
            if repair:
                path.unlink(missing_ok=True)
            continue
        good_bytes, records, torn_here = _read_segment(path)
        for record in records:
            lsn = record.get("lsn")
            if isinstance(lsn, int) and lsn > last_lsn:
                last_lsn = lsn
            if record.get("op") == "seg":
                seg_store = record.get("store")
                if isinstance(seg_store, str) and not stats["snapshot_loaded"]:
                    store.name = seg_store
                continue
            _apply_record(store, record, stats)
        stats["segments_replayed"] += 1
        last_seq = max(last_seq, seq)
        if torn_here:
            torn = True
            stats["torn_segments"] += 1
            if repair:
                with path.open("ab") as handle:
                    handle.truncate(good_bytes)
                    handle.flush()
                    os.fsync(handle.fileno())
    stats["last_lsn"] = last_lsn
    stats["last_seq"] = last_seq
    return store, stats


def recover_store(
    directory: Union[str, Path],
    name: str = "goflow",
    clock: Optional[Callable[[], float]] = None,
    config: Optional[WalConfig] = None,
) -> DocumentStore:
    """Open a durable store: replay snapshot + WAL, attach a live journal.

    Safe on an empty or missing directory (a fresh durable store), after
    a clean shutdown, and after a kill -9 at any commit point: stray
    temporary files are removed, the torn tail is truncated, stale
    compacted segments are dropped, and appends resume in a fresh
    segment so a truncated file is never written into again.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    config = config or WalConfig()
    # stray intermediates from a crashed dump/checkpoint: the atomic
    # rename never happened, so their content is covered by the log
    for stray in directory.iterdir():
        if stray.name.endswith(".tmp") or stray.name == _SNAPSHOT_NEW:
            stray.unlink(missing_ok=True)
    store, stats = _replay_directory(directory, name=name, clock=clock)
    wal = WriteAheadLog(
        directory,
        config,
        store_name=store.name,
        start_seq=stats["last_seq"] + 1,
        next_lsn=stats["last_lsn"] + 1,
        clock=clock,
    )
    wal.recovery_stats = stats
    store.attach_journal(wal)
    return store
