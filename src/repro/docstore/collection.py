"""Collections: documents, CRUD, indexes, and the query planner.

Documents are dicts with a unique ``_id`` (auto-assigned when absent).
The planner uses declared indexes for top-level equality and range
predicates, intersects candidate sets across indexed fields, and verifies
every candidate against the full filter (indexes only narrow, they never
decide).

Planning is cached per **filter shape**: the structure of a filter (which
paths, which operators) determines which indexes apply, independent of
the literal values, so repeated queries of the same shape skip predicate
extraction and index selection entirely. The cache is invalidated when
indexes are created or dropped.

Thread safety mirrors MongoDB's document-level guarantees at collection
granularity: a reader-friendly readers/writer lock lets any number of
dashboard queries run concurrently while CRUD and index maintenance are
exclusive; the plan cache and the read-path counters have their own
small mutex (acquired *after* the RW lock, never before) so concurrent
readers do not tear the shared LRU. A sorted index orders new keys on
the first range read — the one mutation a reader makes — under a mutex
of its own (see :class:`~repro.docstore.index.SortedIndex`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple, Union

from repro import concurrency
from repro.docstore.clone import json_clone
from repro.docstore.cursor import Cursor
from repro.docstore.errors import DocStoreError, DuplicateKeyError, IndexError_
from repro.docstore.index import HashIndex, SortedIndex
from repro.docstore.query import (
    _is_operator_doc,
    extract_equality_predicates,
    extract_range_predicates,
    matches,
)
from repro.docstore.update import apply_update

#: Bound on distinct cached filter shapes per collection.
PLAN_CACHE_SIZE = 256

_UNCACHED = object()


def id_order_key(doc_id: Any) -> Tuple[int, Any]:
    """``_id`` order: numbers by value, then everything else by string.

    Ids are allocated increasingly, so for auto-assigned (and
    router-stamped) ids this is insertion order.
    """
    if isinstance(doc_id, (int, float)) and not isinstance(doc_id, bool):
        return (0, doc_id)
    return (1, str(doc_id))


def _filter_shape(filter_doc: Dict[str, Any]) -> Optional[Tuple[Any, ...]]:
    """Hashable shape of a filter, or None when it cannot be summarized.

    Two filters with the same shape compile to the same plan: the same
    index choices apply, only the looked-up values differ.
    """
    parts = []
    for key, condition in filter_doc.items():
        if not isinstance(key, str):
            return None
        if key.startswith("$"):
            parts.append((key, "$logical"))
        elif isinstance(condition, dict):
            if _is_operator_doc(condition):
                parts.append((key, tuple(condition.keys())))
            else:
                parts.append((key, "$dictlit"))
        else:
            parts.append((key, "$lit"))
    return tuple(parts)


def _range_bounds(condition: Dict[str, Any]) -> Tuple[Any, bool, Any, bool]:
    """(low, low_inclusive, high, high_inclusive) of an operator doc."""
    low: Any = None
    low_inc = True
    high: Any = None
    high_inc = True
    for op, operand in condition.items():
        if op == "$gt":
            low, low_inc = operand, False
        elif op == "$gte":
            low, low_inc = operand, True
        elif op == "$lt":
            high, high_inc = operand, False
        elif op == "$lte":
            high, high_inc = operand, True
    return low, low_inc, high, high_inc


@dataclass
class CollectionStats:
    """Lifetime counters, consumed by GoFlow analytics."""

    inserts: int = 0
    updates: int = 0
    deletes: int = 0
    queries: int = 0
    index_hits: int = 0
    full_scans: int = 0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    #: ordered-read folds of the sorted indexes. Each index counts its
    #: own and ``stats_snapshot`` adds them up; the live field only
    #: holds what dropped indexes had counted, so the total never falls.
    index_folds: int = 0


@dataclass
class UpdateResult:
    """Outcome of an update operation."""

    matched: int = 0
    modified: int = 0
    upserted_id: Optional[Any] = None


class AggregationResult(list):
    """Pipeline output plus how the leading ``$match`` was executed.

    Behaves exactly like the plain list ``aggregate`` used to return;
    ``.explain`` carries ``{"strategy": "index"|"scan", "pushdown":
    bool, "candidates": int|None, "examined_share": float|None}`` so
    tests (and operators) can assert that a figure query actually hit
    an index instead of scanning the store.
    """

    __slots__ = ("explain",)

    def __init__(self, rows: Iterable[Dict[str, Any]], explain: Dict[str, Any]) -> None:
        super().__init__(rows)
        self.explain = explain


class Collection:
    """A named set of documents with CRUD, indexes and a planner."""

    def __init__(
        self,
        name: str,
        clock: Optional[Callable[[], float]] = None,
        journal: Optional[Any] = None,
    ) -> None:
        if not name:
            raise DocStoreError("collection name must be non-empty")
        self.name = name
        self._clock = clock
        self._docs: Dict[Any, Dict[str, Any]] = {}
        self._next_id = 1
        #: optional write-ahead log (see repro.docstore.wal): every
        #: mutation journals a record *before* touching in-memory state.
        self._journal = journal
        self._hash_indexes: Dict[str, HashIndex] = {}
        self._sorted_indexes: Dict[str, SortedIndex] = {}
        self._plan_cache: Dict[Tuple[Any, ...], Any] = {}
        #: readers/writer lock: queries share, CRUD + index DDL exclude.
        self._rw = concurrency.make_rwlock()
        #: guards the plan cache and read-path stat counters; always
        #: acquired after (never before) the RW lock.
        self._mutex = concurrency.make_rlock()
        #: optional columnar mirror (see enable_columnar); its own lock
        #: is always acquired after the RW lock, never before.
        self._columnar: Optional[Any] = None
        self.stats = CollectionStats()

    # -- basic properties -----------------------------------------------------

    def __len__(self) -> int:
        with self._rw.read():
            return len(self._docs)

    def count(self, filter_doc: Optional[Dict[str, Any]] = None) -> int:
        """Number of documents matching ``filter_doc`` (all when None)."""
        with self._rw.read():
            if not filter_doc:
                return len(self._docs)
            return sum(1 for _ in self._iter_matching(filter_doc))

    def iter_documents(self) -> Iterable[Dict[str, Any]]:
        """A stable snapshot of the live documents in insertion order.

        Read-only contract: callers must not mutate the listed dicts
        (updates swap whole document objects, so the snapshot stays
        internally consistent even while writers proceed). Used by folds
        that need one cheap pass (materialized analytics rebuilds) —
        does not count as a query.
        """
        with self._rw.read():
            return list(self._docs.values())

    def read_locked(self):
        """The collection's shared read view, as a context manager.

        Lets multi-step readers (the materialized analytics rebuild)
        take one atomic look at the write counters *and* the documents,
        with no write able to land in between.
        """
        return self._rw.read()

    def write_marker(self) -> Tuple[int, int, int]:
        """The lifetime ``(inserts, updates, deletes)`` counters.

        Taken under the read lock, so the triple can never expose a
        half-applied write.
        """
        with self._rw.read():
            stats = self.stats
            return (stats.inserts, stats.updates, stats.deletes)

    def stats_snapshot(self) -> CollectionStats:
        """A coherent copy of the counters (no mid-write torn reads)."""
        with self._rw.read():
            with self._mutex:
                folds = sum(ix.folds for ix in self._sorted_indexes.values())
                return replace(
                    self.stats, index_folds=self.stats.index_folds + folds
                )

    # -- durability -----------------------------------------------------------

    def attach_journal(self, journal: Optional[Any]) -> None:
        """Attach (or detach) the write-ahead log this collection logs to."""
        with self._rw.write():
            self._journal = journal

    def _log(self, record: Dict[str, Any]) -> None:
        """Journal ``record`` ahead of the mutation it describes.

        Called under the write lock, before in-memory state moves: if
        the append fails (unserializable document, dead disk) the
        operation is aborted with memory untouched. The journal's own
        lock is always acquired after the collection lock, never
        before.
        """
        if self._journal is not None:
            record["c"] = self.name
            self._journal.log(record)

    def _take_id(self) -> int:
        doc_id = self._next_id
        self._next_id += 1
        return doc_id

    def _note_id(self, doc_id: Any) -> None:
        # explicit integer _ids (snapshot/WAL replay, callers that
        # stamp their own) advance the counter past them, so later
        # auto-assigned ids can never collide with a restored document.
        if isinstance(doc_id, int) and not isinstance(doc_id, bool):
            if doc_id >= self._next_id:
                self._next_id = doc_id + 1

    # -- columnar mirror ---------------------------------------------------------

    def enable_columnar(self, fields: Iterable[str]):
        """Attach a columnar mirror over ``fields`` (replacing any prior).

        The mirror keeps per-field numpy arrays in step with inserts and
        rebuilds lazily after updates/deletes; ``aggregate`` dispatches
        covered pipelines to its vectorized kernels. Requires numpy —
        without it the mirror stays attached but disabled, and every
        pipeline takes the row engines.
        """
        from repro.docstore.columnar import ColumnarMirror

        with self._rw.write():
            mirror = ColumnarMirror(self, fields)
            self._columnar = mirror
            return mirror

    def columnar_info(self) -> Dict[str, Any]:
        """Mirror health for ``middleware_stats()``; safe with no mirror."""
        mirror = self._columnar
        if mirror is None:
            return {"enabled": False, "reason": "no mirror attached", "fields": []}
        return mirror.info()

    # -- index management --------------------------------------------------------

    def create_index(
        self,
        path: str,
        kind: str = "sorted",
        unique: bool = False,
        exist_ok: bool = False,
    ):
        """Declare an index on ``path``.

        Args:
            path: dotted field path.
            kind: ``"hash"`` (equality only, supports unique) or
                ``"sorted"`` (equality + range).
            unique: enforce unique values (hash indexes only).
            exist_ok: return the existing index instead of raising when
                an index of this kind is already declared on ``path``
                (recovery and re-initialization paths).
        """
        with self._rw.write():
            if kind == "hash":
                existing = self._hash_indexes.get(path)
                if existing is not None:
                    if exist_ok and existing.unique == unique:
                        return existing
                    raise IndexError_(f"hash index on {path!r} already exists")
            elif kind == "sorted":
                if unique:
                    raise IndexError_("unique is only supported on hash indexes")
                if path in self._sorted_indexes:
                    if exist_ok:
                        return self._sorted_indexes[path]
                    raise IndexError_(f"sorted index on {path!r} already exists")
            else:
                raise IndexError_(f"unknown index kind {kind!r}")
            self._log(
                {"op": "create_index", "path": path, "kind": kind, "unique": unique}
            )
            if kind == "hash":
                index: Union[HashIndex, SortedIndex] = HashIndex(path, unique=unique)
            else:
                index = SortedIndex(path)
            for doc_id, doc in self._docs.items():
                index.insert(doc_id, doc)
            if kind == "hash":
                self._hash_indexes[path] = index
            else:
                self._sorted_indexes[path] = index
            self._clear_plan_cache()
            return index

    def drop_index(self, path: str) -> None:
        """Remove the index(es) declared on ``path``."""
        with self._rw.write():
            if path not in self._hash_indexes and path not in self._sorted_indexes:
                raise IndexError_(f"no index on {path!r}")
            self._log({"op": "drop_index", "path": path})
            self._hash_indexes.pop(path, None)
            dropped = self._sorted_indexes.pop(path, None)
            if dropped is not None:
                self.stats.index_folds += dropped.folds
            self._clear_plan_cache()

    def _clear_plan_cache(self) -> None:
        with self._mutex:
            self._plan_cache.clear()

    def index_paths(self) -> List[str]:
        """Paths of all declared indexes."""
        with self._rw.read():
            return sorted(set(self._hash_indexes) | set(self._sorted_indexes))

    def index_specs(self) -> List[Dict[str, Any]]:
        """Declared indexes as ``{"path", "kind", "unique"}`` specs.

        The public form of the index definitions — snapshotting and
        observability read this instead of reaching into the private
        index maps. Sorted by path, hash before sorted on a shared
        path; round-trips through ``create_index``.
        """
        with self._rw.read():
            specs: List[Dict[str, Any]] = []
            for path in sorted(set(self._hash_indexes) | set(self._sorted_indexes)):
                if path in self._hash_indexes:
                    specs.append(
                        {
                            "path": path,
                            "kind": "hash",
                            "unique": self._hash_indexes[path].unique,
                        }
                    )
                if path in self._sorted_indexes:
                    specs.append({"path": path, "kind": "sorted", "unique": False})
            return specs

    # -- insert ---------------------------------------------------------------------

    def insert_one(
        self,
        document: Dict[str, Any],
        copy: bool = True,
        wal_meta: Optional[Dict[str, Any]] = None,
        _journal: bool = True,
    ) -> Any:
        """Insert a document; returns its ``_id``.

        With ``copy=False`` the collection takes ownership of
        ``document`` instead of cloning it — only for callers that built
        the dict themselves and never touch it again (the ingest path).

        ``wal_meta`` rides along in the durability journal record (the
        ingest path stores the dedup-ledger keys there so recovery can
        rebuild exactly-once state atomically with the insert).
        ``_journal=False`` is internal: sub-operations of an already
        journaled op (the upsert insert) must not journal twice.
        """
        if not isinstance(document, dict):
            raise DocStoreError(
                f"document must be a dict, got {type(document).__name__}"
            )
        doc = json_clone(document) if copy else document
        with self._rw.write():
            doc_id = doc.setdefault("_id", self._take_id())
            self._note_id(doc_id)
            if doc_id in self._docs:
                raise DuplicateKeyError(f"duplicate _id {doc_id!r} in {self.name!r}")
            if _journal:
                record: Dict[str, Any] = {"op": "insert", "docs": [doc]}
                if wal_meta:
                    record["meta"] = wal_meta
                self._log(record)
            self._index_insert(doc_id, doc)
            self._docs[doc_id] = doc
            self.stats.inserts += 1
            if self._columnar is not None:
                self._columnar.on_insert(doc)
            return doc_id

    def insert_many(
        self,
        documents: Iterable[Dict[str, Any]],
        copy: bool = True,
        wal_meta: Optional[Dict[str, Any]] = None,
    ) -> List[Any]:
        """Insert a batch atomically; returns ids in input order.

        The write lock is taken once and the write marker advances once
        (by the batch size), so downstream marker watchers — the
        materialized analytics and the columnar mirror — see one batch
        append instead of N invalidating single steps. Sorted-index
        maintenance is bulk-loaded per batch. On any failure (duplicate
        ``_id``, unique-index violation) the already-placed prefix is
        rolled back and nothing is inserted. The durability journal
        sees the whole batch as one record, appended (with ``wal_meta``)
        before any in-memory state moves.
        """
        docs: List[Dict[str, Any]] = []
        for document in documents:
            if not isinstance(document, dict):
                raise DocStoreError(
                    f"document must be a dict, got {type(document).__name__}"
                )
            docs.append(json_clone(document) if copy else document)
        if not docs:
            return []
        with self._rw.write():
            # assign ids and pre-check _id collisions before journaling:
            # the journal must describe the batch exactly as it will be
            # applied, and a doomed batch should not reach the log.
            seen: Set[Any] = set()
            for doc in docs:
                doc_id = doc.setdefault("_id", self._take_id())
                self._note_id(doc_id)
                if doc_id in self._docs or doc_id in seen:
                    raise DuplicateKeyError(
                        f"duplicate _id {doc_id!r} in {self.name!r}"
                    )
                try:
                    seen.add(doc_id)
                except TypeError:
                    raise DocStoreError(f"_id must be hashable, got {doc_id!r}")
            record: Dict[str, Any] = {"op": "insert_many", "docs": docs}
            if wal_meta:
                record["meta"] = wal_meta
            self._log(record)
            ids: List[Any] = []
            placed: List[Tuple[Any, Dict[str, Any]]] = []
            # non-unique hash indexes are bulk-loaded after placement
            # (rollback tolerates missing entries); unique ones go
            # per-document so a violation is caught — and unwound —
            # exactly where it happens.
            unique_hash = [ix for ix in self._hash_indexes.values() if ix.unique]
            bulk_hash = [ix for ix in self._hash_indexes.values() if not ix.unique]
            try:
                for doc in docs:
                    doc_id = doc["_id"]
                    inserted_hash: List[HashIndex] = []
                    try:
                        for index in unique_hash:
                            index.insert(doc_id, doc)
                            inserted_hash.append(index)
                    except DuplicateKeyError:
                        for index in inserted_hash:
                            index.remove(doc_id, doc)
                        raise
                    self._docs[doc_id] = doc
                    placed.append((doc_id, doc))
                    ids.append(doc_id)
                for index in bulk_hash:
                    index.insert_many(placed)
            except Exception:
                # remove() tolerates absent entries, so the sweep covers
                # both a placement failure and a partial bulk load.
                for doc_id, doc in reversed(placed):
                    del self._docs[doc_id]
                    for index in self._hash_indexes.values():
                        index.remove(doc_id, doc)
                raise
            for sindex in self._sorted_indexes.values():
                sindex.insert_many(placed)
            self.stats.inserts += len(ids)
            if self._columnar is not None:
                self._columnar.on_insert_batch(docs)
            return ids

    # -- find -----------------------------------------------------------------------

    def find(self, filter_doc: Optional[Dict[str, Any]] = None) -> Cursor:
        """Documents matching ``filter_doc`` as a chainable cursor."""
        with self._rw.read():
            with self._mutex:
                self.stats.queries += 1
            return Cursor(list(self._iter_matching(filter_doc or {})))

    def find_one(
        self, filter_doc: Optional[Dict[str, Any]] = None
    ) -> Optional[Dict[str, Any]]:
        """The first matching document, or None."""
        with self._rw.read():
            for doc in self._iter_matching(filter_doc or {}):
                return json_clone(doc)
            return None

    def distinct(self, path: str, filter_doc: Optional[Dict[str, Any]] = None) -> List[Any]:
        """Sorted distinct (hashable) values of ``path`` across matches."""
        from repro.docstore.query import get_path, is_missing

        values: Set[Any] = set()
        with self._rw.read():
            matched = list(self._iter_matching(filter_doc or {}))
        for doc in matched:
            resolved = get_path(doc, path)
            if is_missing(resolved):
                continue
            candidates = resolved if isinstance(resolved, list) else [resolved]
            for value in candidates:
                try:
                    values.add(value)
                except TypeError:
                    continue
        return sorted(values, key=lambda v: (str(type(v)), str(v)))

    # -- update ---------------------------------------------------------------------

    def update_one(
        self,
        filter_doc: Dict[str, Any],
        update: Dict[str, Any],
        upsert: bool = False,
    ) -> UpdateResult:
        """Apply ``update`` to the first match (optionally upserting)."""
        return self._update(filter_doc, update, multi=False, upsert=upsert)

    def update_many(
        self, filter_doc: Dict[str, Any], update: Dict[str, Any]
    ) -> UpdateResult:
        """Apply ``update`` to every match."""
        return self._update(filter_doc, update, multi=True, upsert=False)

    def replace_one(
        self,
        filter_doc: Dict[str, Any],
        replacement: Dict[str, Any],
        upsert: bool = False,
    ) -> UpdateResult:
        """Replace the first match with ``replacement``."""
        if any(k.startswith("$") for k in replacement):
            raise DocStoreError("replacement document cannot contain operators")
        return self._update(filter_doc, replacement, multi=False, upsert=upsert)

    def _update(
        self,
        filter_doc: Dict[str, Any],
        update: Dict[str, Any],
        multi: bool,
        upsert: bool,
        now: Any = _UNCACHED,
    ) -> UpdateResult:
        if now is _UNCACHED:
            now = self._clock() if self._clock else None
        with self._rw.write():
            result = UpdateResult()
            # updates journal *logically* (filter + operators + clock
            # value): replay onto the same pre-state re-derives the same
            # post-state, and pinning ``now`` keeps $currentDate stable.
            self._log(
                {
                    "op": "update",
                    "filter": filter_doc,
                    "update": update,
                    "multi": multi,
                    "upsert": upsert,
                    "now": now,
                }
            )
            matched_ids = [doc["_id"] for doc in self._iter_matching(filter_doc)]
            for doc_id in matched_ids:
                old = self._docs[doc_id]
                new = apply_update(old, update, now=now)
                result.matched += 1
                if new != old:
                    self._index_remove(doc_id, old)
                    try:
                        self._index_insert(doc_id, new)
                    except DuplicateKeyError:
                        self._index_insert(doc_id, old)  # roll back
                        raise
                    self._docs[doc_id] = new
                    result.modified += 1
                if not multi:
                    break
            if result.matched == 0 and upsert:
                seed = extract_equality_predicates(filter_doc)
                base = {k: v for k, v in seed.items() if "." not in k}
                new_doc = apply_update(base, update, now=now)
                # the update record already covers the upsert: replaying
                # it re-runs this same branch, so the nested insert must
                # not journal a second copy.
                result.upserted_id = self.insert_one(new_doc, _journal=False)
            else:
                self.stats.updates += result.modified
                if result.modified and self._columnar is not None:
                    self._columnar.invalidate()
            return result

    # -- delete ---------------------------------------------------------------------

    def delete_one(self, filter_doc: Dict[str, Any]) -> int:
        """Delete the first match; returns 0 or 1."""
        with self._rw.write():
            self._log({"op": "delete", "filter": filter_doc, "multi": False})
            for doc in self._iter_matching(filter_doc):
                self._remove(doc["_id"])
                return 1
            return 0

    def delete_many(self, filter_doc: Dict[str, Any]) -> int:
        """Delete every match; returns the count."""
        with self._rw.write():
            self._log({"op": "delete", "filter": filter_doc, "multi": True})
            ids = [doc["_id"] for doc in self._iter_matching(filter_doc)]
            for doc_id in ids:
                self._remove(doc_id)
            return len(ids)

    def drop(self) -> None:
        """Remove every document (indexes stay declared)."""
        with self._rw.write():
            self._log({"op": "drop_docs"})
            self._docs.clear()
            for index in self._hash_indexes.values():
                index.clear()
            for sindex in self._sorted_indexes.values():
                sindex.clear()
            # drop does not move the write marker, so the mirror cannot
            # detect it via the staleness protocol — invalidate explicitly
            if self._columnar is not None:
                self._columnar.invalidate()

    # -- aggregation convenience -------------------------------------------------------

    def aggregate(self, pipeline: List[Dict[str, Any]]) -> "AggregationResult":
        """Run an aggregation pipeline over this collection.

        Dispatch order: a columnar mirror covering the whole pipeline
        wins (``strategy: "columnar"``, with coverage details under the
        ``columnar`` explain key); otherwise a leading ``$match`` stage
        is pushed down into the planner: when its predicates hit
        declared indexes, only the candidate documents are fed to the
        compiled pipeline (and the stage is skipped inside it), so
        figure queries like ``model == X`` touch a fraction of the
        store. The result is a plain list subclass whose ``.explain``
        records the chosen strategy.
        """
        from repro.docstore.aggregate import compile_pipeline

        compiled = compile_pipeline(pipeline)
        match_spec = compiled.leading_match
        explain: Dict[str, Any] = {
            "strategy": "scan",
            "pushdown": False,
            "candidates": None,
            "examined_share": None,
        }
        mirror = self._columnar
        with self._rw.read():
            if mirror is not None:
                rows, detail, matched = mirror.execute(pipeline)
                explain["columnar"] = detail
                if rows is not None:
                    total = len(self._docs)
                    explain.update(
                        strategy="columnar",
                        candidates=matched,
                        examined_share=(matched / total) if total else 0.0,
                    )
                    return AggregationResult(rows, explain)
            if match_spec is not None:
                candidate_ids = self._plan(match_spec)
                if candidate_ids is not None:
                    with self._mutex:
                        self.stats.index_hits += 1
                    explain.update(
                        strategy="index",
                        pushdown=True,
                        candidates=len(candidate_ids),
                        examined_share=(
                            len(candidate_ids) / len(self._docs) if self._docs else 0.0
                        ),
                    )
                    # order-sensitive stages ($first/$last/$push, group
                    # order) see _id order, as a scan does, not str(_id)'s
                    ordered = sorted(candidate_ids, key=id_order_key)
                    documents = (
                        doc
                        for doc in (self._docs.get(doc_id) for doc_id in ordered)
                        if doc is not None and matches(doc, match_spec)
                    )
                    return AggregationResult(
                        compiled.run(documents, skip_leading_match=True), explain
                    )
                with self._mutex:
                    self.stats.full_scans += 1
            return AggregationResult(
                compiled.run(list(self._docs.values())), explain
            )

    def explain(self, filter_doc: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """How the planner would execute ``filter_doc``.

        Returns ``{"strategy": "index"|"scan", "candidates": int|None,
        "examined_share": float|None}`` without touching the query
        counters — the debugging affordance every real store ships.
        """
        filter_doc = filter_doc or {}
        with self._rw.read():
            candidates = self._plan(filter_doc)
            if candidates is None:
                return {"strategy": "scan", "candidates": None, "examined_share": None}
            share = len(candidates) / len(self._docs) if self._docs else 0.0
            return {
                "strategy": "index",
                "candidates": len(candidates),
                "examined_share": share,
            }

    # -- planner & internals ---------------------------------------------------------

    def _iter_matching(self, filter_doc: Dict[str, Any]):
        # callers hold the RW lock (read or write); counter bumps take
        # the small mutex so concurrent readers do not lose increments.
        candidate_ids = self._plan(filter_doc)
        if candidate_ids is None:
            with self._mutex:
                self.stats.full_scans += 1
            for doc in list(self._docs.values()):
                if matches(doc, filter_doc):
                    yield doc
        else:
            with self._mutex:
                self.stats.index_hits += 1
            for doc_id in sorted(candidate_ids, key=lambda i: (str(type(i)), str(i))):
                doc = self._docs.get(doc_id)
                if doc is not None and matches(doc, filter_doc):
                    yield doc

    def _plan(self, filter_doc: Dict[str, Any]) -> Optional[Set[Any]]:
        """Candidate ids from indexes, or None to force a full scan."""
        if not filter_doc:
            return None
        steps = self._plan_steps(filter_doc)
        if steps is None:
            return None
        candidates: Optional[Set[Any]] = None
        for kind, path, index in steps:
            if kind == "id":
                value = filter_doc["_id"]
                if isinstance(value, dict):
                    value = value["$eq"]
                return {value} if value in self._docs else set()
            if kind == "eq":
                value = filter_doc[path]
                if isinstance(value, dict):
                    value = value["$eq"]
                hits = index.lookup(value)
            else:  # "range"
                low, low_inc, high, high_inc = _range_bounds(filter_doc[path])
                hits = index.range(low, low_inc, high, high_inc)
            candidates = hits if candidates is None else candidates & hits
            if not candidates:
                return set()
        return candidates

    def _plan_steps(self, filter_doc: Dict[str, Any]):
        """The (cached) compiled plan for a filter: index steps or None.

        The plan is looked up by filter shape; literal values are read
        back out of the concrete filter at execution time.
        """
        shape = _filter_shape(filter_doc)
        if shape is None:
            return self._compile_plan(filter_doc)
        with self._mutex:
            steps = self._plan_cache.get(shape, _UNCACHED)
            if steps is not _UNCACHED:
                self.stats.plan_cache_hits += 1
                return steps
            self.stats.plan_cache_misses += 1
        steps = self._compile_plan(filter_doc)
        with self._mutex:
            if shape not in self._plan_cache:
                if len(self._plan_cache) >= PLAN_CACHE_SIZE:
                    self._plan_cache.pop(next(iter(self._plan_cache)))
                self._plan_cache[shape] = steps
        return steps

    def _compile_plan(self, filter_doc: Dict[str, Any]):
        """Which index steps apply to filters of this shape, or None."""
        equalities = extract_equality_predicates(filter_doc)
        ranges = extract_range_predicates(filter_doc)
        if "_id" in equalities:
            return (("id", "_id", None),)
        steps = []
        for path in equalities:
            index: Optional[Union[HashIndex, SortedIndex]] = self._hash_indexes.get(
                path
            ) or self._sorted_indexes.get(path)
            if index is not None:
                steps.append(("eq", path, index))
        for path in ranges:
            sorted_index = self._sorted_indexes.get(path)
            if sorted_index is not None:
                steps.append(("range", path, sorted_index))
        return tuple(steps) if steps else None

    def _index_insert(self, doc_id: Any, doc: Dict[str, Any]) -> None:
        inserted: List[HashIndex] = []
        try:
            for index in self._hash_indexes.values():
                index.insert(doc_id, doc)
                inserted.append(index)
        except DuplicateKeyError:
            for index in inserted:
                index.remove(doc_id, doc)
            raise
        for sindex in self._sorted_indexes.values():
            sindex.insert(doc_id, doc)

    def _index_remove(self, doc_id: Any, doc: Dict[str, Any]) -> None:
        for index in self._hash_indexes.values():
            index.remove(doc_id, doc)
        for sindex in self._sorted_indexes.values():
            sindex.remove(doc_id, doc)

    def _remove(self, doc_id: Any) -> None:
        doc = self._docs.pop(doc_id)
        self._index_remove(doc_id, doc)
        self.stats.deletes += 1
        if self._columnar is not None:
            self._columnar.invalidate()
