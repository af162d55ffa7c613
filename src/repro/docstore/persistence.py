"""Store persistence: JSON-lines snapshots.

A deployment needs its data to survive the process. The snapshot format
is one JSON object per line:

- a header line ``{"type": "store", "name": ..., "version": 1}`` — when
  the snapshot was produced by a WAL checkpoint it also carries
  ``"wal_start"``, the first log segment recovery must replay on top;
- per collection, a ``{"type": "collection", ...}`` line declaring the
  name and its index definitions;
- one ``{"type": "doc", "collection": ..., "doc": {...}}`` line per
  document;
- optional ``{"type": "state", "key": ..., "value": ...}`` lines for
  state that must survive compaction but lives outside any collection
  (the WAL checkpoint keeps its last LSN there).

Loading replays declarations then inserts — indexes are rebuilt, and
unique constraints re-verified, on the way in. Only JSON-serializable
documents can be persisted (which is all GoFlow ever stores: the wire
format is JSON).

Crash safety: :func:`dump_store` never truncates the previous snapshot
in place. It writes to a temporary file in the same directory, flushes
and ``fsync``\\ s it, then atomically ``os.replace``\\ s the target — a
crash mid-dump leaves the old snapshot intact, and readers only ever
see a complete file.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.docstore.errors import DocStoreError
from repro.docstore.store import DocumentStore

_FORMAT_VERSION = 1

#: Documents buffered per ``insert_many`` call during replay — bounds
#: peak memory on a 23M-document restore while still amortizing the
#: per-call lock/index overhead.
REPLAY_BATCH = 5000


def dump_store(
    store: DocumentStore,
    path: Union[str, Path],
    state: Optional[Dict[str, Any]] = None,
    wal_start: Optional[int] = None,
) -> int:
    """Write a snapshot of ``store`` to ``path``; returns document count.

    Args:
        store: the store to snapshot.
        path: target file; replaced atomically on success, untouched on
            any failure.
        state: extra middleware state to persist as ``state`` records
            (the WAL checkpoint stores its last LSN here).
        wal_start: recorded in the header when the snapshot is a WAL
            checkpoint — the first log segment to replay on recovery.
    """
    path = Path(path)
    directory = path.parent
    written = 0
    handle = tempfile.NamedTemporaryFile(
        mode="w",
        encoding="utf-8",
        dir=directory,
        prefix=path.name + ".",
        suffix=".tmp",
        delete=False,
    )
    tmp_path = Path(handle.name)
    try:
        with handle:
            header: Dict[str, Any] = {
                "type": "store",
                "name": store.name,
                "version": _FORMAT_VERSION,
            }
            if wal_start is not None:
                header["wal_start"] = wal_start
            handle.write(json.dumps(header) + "\n")
            for name in store.collection_names():
                collection = store.collection(name)
                # one atomic look per collection: index definitions and
                # documents come from the same read-locked view, so a
                # concurrent writer can never yield a torn snapshot
                # (docs inconsistent with index declarations).
                with collection.read_locked():
                    indexes = collection.index_specs()
                    documents = collection.iter_documents()
                    handle.write(
                        json.dumps(
                            {"type": "collection", "name": name, "indexes": indexes}
                        )
                        + "\n"
                    )
                    for document in documents:
                        try:
                            line = json.dumps(
                                {"type": "doc", "collection": name, "doc": document}
                            )
                        except (TypeError, ValueError) as exc:
                            raise DocStoreError(
                                f"document in {name!r} is not JSON-serializable: {exc}"
                            ) from exc
                        handle.write(line + "\n")
                        written += 1
            for key, value in (state or {}).items():
                handle.write(
                    json.dumps({"type": "state", "key": key, "value": value}) + "\n"
                )
            handle.flush()
            os.fsync(handle.fileno())
    except BaseException:
        tmp_path.unlink(missing_ok=True)
        raise
    os.replace(tmp_path, path)
    _fsync_directory(directory)
    return written


def _fsync_directory(directory: Path) -> None:
    """Make the rename itself durable (best effort off POSIX)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - non-POSIX platforms
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - filesystems without dir fsync
        pass
    finally:
        os.close(fd)


def load_store(path: Union[str, Path], clock=None) -> DocumentStore:
    """Rebuild a store from a snapshot written by :func:`dump_store`."""
    store, _, _ = load_snapshot(path, clock=clock)
    return store


def load_snapshot(
    path: Union[str, Path], clock=None
) -> Tuple[DocumentStore, Dict[str, Any], int]:
    """Load a snapshot plus its sidecar state.

    Returns ``(store, state, wal_start)`` where ``state`` maps the
    ``state`` record keys to their values and ``wal_start`` is the first
    WAL segment recovery should replay (1 when the snapshot was not a
    checkpoint).
    """
    path = Path(path)
    store: Optional[DocumentStore] = None
    state: Dict[str, Any] = {}
    wal_start = 1
    # consecutive doc records for one collection are replayed through a
    # single batched insert_many(copy=False): the documents were just
    # parsed from JSON (no caller retains them, no defensive clone
    # needed) and the per-document lock/marker overhead is amortized —
    # a large restore takes one write lock per batch, not per doc.
    batch_collection: Optional[str] = None
    batch_docs: List[Dict[str, Any]] = []

    def flush_batch() -> None:
        nonlocal batch_collection, batch_docs
        if batch_collection is not None and batch_docs:
            store.collection(batch_collection).insert_many(batch_docs, copy=False)
        batch_collection = None
        batch_docs = []

    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DocStoreError(
                    f"snapshot line {line_number} is not valid JSON: {exc}"
                ) from exc
            kind = record.get("type")
            if kind == "store":
                if record.get("version") != _FORMAT_VERSION:
                    raise DocStoreError(
                        f"unsupported snapshot version {record.get('version')!r}"
                    )
                store = DocumentStore(name=record["name"], clock=clock)
                wal_start = int(record.get("wal_start", 1))
            elif store is None:
                raise DocStoreError("snapshot does not start with a store header")
            elif kind == "doc":
                name = record["collection"]
                if name != batch_collection:
                    flush_batch()
                    batch_collection = name
                batch_docs.append(record["doc"])
                if len(batch_docs) >= REPLAY_BATCH:
                    flush_batch()
                    batch_collection = name
            elif kind == "collection":
                flush_batch()
                collection = store.collection(record["name"])
                for index in record.get("indexes", []):
                    collection.create_index(
                        index["path"],
                        kind=index["kind"],
                        unique=index.get("unique", False),
                        exist_ok=True,
                    )
            elif kind == "state":
                flush_batch()
                state[record["key"]] = record["value"]
            else:
                raise DocStoreError(
                    f"unknown snapshot record type {kind!r} at line {line_number}"
                )
        flush_batch()
    if store is None:
        raise DocStoreError(f"snapshot {path} is empty")
    return store, state, wal_start
