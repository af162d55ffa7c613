"""Secondary indexes.

Two index kinds back the query planner:

- :class:`HashIndex` — equality lookups, optional uniqueness;
- :class:`SortedIndex` — range scans via binary search over a key list
  sorted lazily on the first read (``bisect``), the stand-in for
  MongoDB's B-tree.

Indexes map a field path to document ids. Documents whose
indexed field is missing are not indexed (sparse behaviour); the planner
therefore only uses an index when the predicate implies field presence
(equality/range do).
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Optional, Set, Tuple

from repro import concurrency
from repro.docstore.errors import DuplicateKeyError, IndexError_
from repro.docstore.query import get_path, is_missing


_ABSENT = object()


def _index_keys(document: Dict[str, Any], path: str, simple: bool = False) -> List[Any]:
    """Keys under which a document is indexed for ``path``.

    Array fields produce one key per element (multikey index).
    Unhashable values (sub-documents) are not indexed. ``simple`` marks a
    dot-free path, resolved with a plain dict lookup instead of the full
    path walker (the ingest hot path: every write touches every index).
    """
    if simple:
        resolved = document.get(path, _ABSENT)
        if resolved is _ABSENT:
            return []
    else:
        resolved = get_path(document, path)
        if is_missing(resolved):
            return []
    if not isinstance(resolved, list):
        try:
            hash(resolved)
        except TypeError:
            return []
        return [resolved]
    keys = []
    for value in resolved:
        try:
            hash(value)
        except TypeError:
            continue
        keys.append(value)
    return keys


class HashIndex:
    """Equality index; optionally unique.

    A non-unique index maps each key to the set of ids holding it. A
    unique index maps each key to its one id, bare: a set per key would
    cost about four times the memory on an index as large as the store
    (the ingest path's ``obs_id`` index holds a key per observation).
    """

    def __init__(self, path: str, unique: bool = False) -> None:
        if not path:
            raise IndexError_("index path must be non-empty")
        self.path = path
        self.unique = unique
        self._simple = "." not in path
        self._map: Dict[Any, Any] = {}

    def insert(self, doc_id: Any, document: Dict[str, Any]) -> None:
        """Index ``document`` under ``doc_id``; enforces uniqueness."""
        keys = _index_keys(document, self.path, self._simple)
        mapping = self._map
        if self.unique:
            for key in keys:
                existing = mapping.get(key, _ABSENT)
                if existing is not _ABSENT and existing != doc_id:
                    raise DuplicateKeyError(
                        f"duplicate value {key!r} for unique index on {self.path!r}"
                    )
            for key in keys:
                mapping[key] = doc_id
            return
        for key in keys:
            mapping.setdefault(key, set()).add(doc_id)

    def insert_many(self, entries: List[Tuple[Any, Dict[str, Any]]]) -> None:
        """Bulk-load ``(doc_id, document)`` pairs; non-unique only.

        Equivalent to :meth:`insert` per entry, with the common case —
        a dot-free path holding a hashable scalar — inlined to a dict
        probe per document. Callers must not use this on unique
        indexes: per-document uniqueness enforcement (and its exact
        rollback position) is :meth:`insert`'s job.
        """
        if self.unique:
            raise IndexError_(
                f"insert_many is not valid on unique index {self.path!r}"
            )
        mapping = self._map
        path = self.path
        simple = self._simple
        parts = path.split(".")
        two_level = len(parts) == 2
        for doc_id, document in entries:
            value = _ABSENT
            if simple:
                value = document.get(path, _ABSENT)
                if value is _ABSENT:
                    continue
            elif two_level:
                outer = document.get(parts[0], _ABSENT)
                if outer is _ABSENT:
                    continue
                if outer.__class__ is dict:
                    value = outer.get(parts[1], _ABSENT)
                    if value is _ABSENT:
                        continue
            if value is not _ABSENT:
                cls = value.__class__
                if cls is str or cls is int or cls is float or cls is bool or (
                    value is None
                ):
                    bucket = mapping.get(value)
                    if bucket is None:
                        mapping[value] = {doc_id}
                    else:
                        bucket.add(doc_id)
                    continue
            for key in _index_keys(document, path, simple):
                mapping.setdefault(key, set()).add(doc_id)

    def remove(self, doc_id: Any, document: Dict[str, Any]) -> None:
        """Drop ``document``'s entries (absent ones are tolerated)."""
        mapping = self._map
        for key in _index_keys(document, self.path, self._simple):
            if self.unique:
                if mapping.get(key, _ABSENT) == doc_id:
                    del mapping[key]
                continue
            bucket = mapping.get(key)
            if bucket is not None:
                bucket.discard(doc_id)
                if not bucket:
                    del mapping[key]

    def clear(self) -> None:
        """Drop every entry."""
        self._map.clear()

    def __contains__(self, value: Any) -> bool:
        """Whether any document is indexed under ``value``; the caller
        passes a hashable key."""
        return value in self._map

    def lookup(self, value: Any) -> Set[Any]:
        """Document ids whose field equals ``value``."""
        try:
            found = self._map.get(value, _ABSENT)
        except TypeError:
            return set()
        if found is _ABSENT:
            return set()
        return {found} if self.unique else set(found)

    def __len__(self) -> int:
        if self.unique:
            return len(self._map)
        return sum(len(bucket) for bucket in self._map.values())


class _Partition:
    """One key type's id buckets, plus the order of their keys.

    Every key of ``buckets`` sits exactly once in ``keys`` (sorted) or
    ``pending`` (first seen since the last ordered read). A bucket
    emptied by a delete stays, flagged by ``dead``, until the next fold.
    """

    __slots__ = ("buckets", "keys", "pending", "dead")

    def __init__(self) -> None:
        self.buckets: Dict[Any, Set[Any]] = {}
        self.keys: List[Any] = []
        self.pending: List[Any] = []
        self.dead = False


class SortedIndex:
    """Range index over orderable keys, ordered on the first read.

    Built for late, out-of-order arrival (the paper's Fig. 17): an
    insert is one dict probe per key whatever the corpus size, and the
    first ``range`` / ``lookup`` after a write folds the unseen keys
    into the sorted key list in one two-run merge. Keys of incomparable
    types are segregated per type name so the sort never raises; a range
    query only consults the partition matching the bound's type.

    Writes need the owner's exclusive lock; reads may share one. The
    fold is their only mutation, double-checked under ``_fold_lock``:
    ``keys`` changes only while ``pending`` is non-empty — when no
    reader may use it without that lock — and the single store
    ``pending = []`` publishes it.
    """

    def __init__(self, path: str) -> None:
        if not path:
            raise IndexError_("index path must be non-empty")
        self.path = path
        self._simple = "." not in path
        self._fold_lock = concurrency.make_rlock()
        #: ordered-read folds performed, over the index's lifetime
        self.folds = 0
        self.clear()

    @staticmethod
    def _partition_name(value: Any) -> Optional[str]:
        if isinstance(value, bool) or value != value:
            return None  # not range-indexable; no range predicate matches NaN
        if isinstance(value, (int, float)):
            return "number"
        return "str" if isinstance(value, str) else None

    def insert(self, doc_id: Any, document: Dict[str, Any]) -> None:
        """Index ``document`` under ``doc_id``."""
        for key in _index_keys(document, self.path, self._simple):
            partition_name = self._partition_name(key)
            if partition_name is None:
                continue
            partition = self._partitions[partition_name]
            bucket = partition.buckets.get(key)
            if bucket is None:
                partition.buckets[key] = {doc_id}
                partition.pending.append(key)
            else:
                bucket.add(doc_id)

    def insert_many(self, entries: List[Tuple[Any, Dict[str, Any]]]) -> None:
        """Bulk-load ``(doc_id, document)`` pairs: :meth:`insert` per
        entry, with a dot-free path holding a number inlined."""
        if not self._simple:
            for doc_id, document in entries:
                self.insert(doc_id, document)
            return
        path = self.path
        number = self._partitions["number"]
        buckets, pending = number.buckets, number.pending
        for doc_id, document in entries:
            value = document.get(path)
            cls = value.__class__
            if cls is int or (cls is float and value == value):
                bucket = buckets.get(value)
                if bucket is None:
                    buckets[value] = {doc_id}
                    pending.append(value)
                else:
                    bucket.add(doc_id)
            elif value is not None:
                self.insert(doc_id, document)

    def remove(self, doc_id: Any, document: Dict[str, Any]) -> None:
        """Drop ``document``'s entries."""
        for key in _index_keys(document, self.path, self._simple):
            partition_name = self._partition_name(key)
            if partition_name is None:
                continue
            partition = self._partitions[partition_name]
            bucket = partition.buckets.get(key)
            if bucket:
                bucket.discard(doc_id)
                if not bucket:
                    partition.dead = True

    def clear(self) -> None:
        """Drop every entry."""
        self._partitions = {"number": _Partition(), "str": _Partition()}

    def _ordered_keys(self, partition: _Partition) -> List[Any]:
        """``partition``'s sorted key list, ``pending`` folded in first."""
        if partition.pending:
            with self._fold_lock:
                pending = partition.pending
                if pending:
                    pending.sort()
                    keys = partition.keys
                    keys.extend(pending)
                    keys.sort()  # two sorted runs: one merge, or nothing
                    if partition.dead:
                        buckets = partition.buckets
                        for key in [key for key in keys if not buckets[key]]:
                            del buckets[key]
                        keys[:] = [key for key in keys if key in buckets]
                        partition.dead = False
                    self.folds += 1
                    partition.pending = []
        return partition.keys

    def range(
        self,
        low: Any = None,
        low_inclusive: bool = True,
        high: Any = None,
        high_inclusive: bool = True,
    ) -> Set[Any]:
        """Document ids with indexed key in the given range."""
        bound = low if low is not None else high
        if bound is None:  # everything: each partition from its least key up
            return self.range(low=float("-inf")) | self.range(low="")
        partition_name = self._partition_name(bound)
        if partition_name is None:
            return set()
        partition = self._partitions[partition_name]
        keys = self._ordered_keys(partition)
        start = 0
        if low is not None:
            start = (
                bisect.bisect_left(keys, low)
                if low_inclusive
                else bisect.bisect_right(keys, low)
            )
        end = len(keys)
        if high is not None:
            end = (
                bisect.bisect_right(keys, high)
                if high_inclusive
                else bisect.bisect_left(keys, high)
            )
        return set().union(*map(partition.buckets.__getitem__, keys[start:end]))

    def lookup(self, value: Any) -> Set[Any]:
        """Document ids whose field equals ``value``."""
        return self.range(low=value, high=value)

    def __len__(self) -> int:
        return sum(
            len(bucket)
            for partition in self._partitions.values()
            for bucket in partition.buckets.values()
        )
