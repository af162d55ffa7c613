"""Incrementally materialized analytics counters.

The figure queries behind ``AnalyticsEngine.totals``,
``per_model_table``, ``cumulative_by_day`` and ``provider_shares`` are
pure folds over the observations collection: each ingested document
contributes O(1) to every counter. Rather than re-scanning 23M
observations per dashboard refresh, :class:`MaterializedAnalytics`
keeps those folds beside the collection and brings them up to date when
someone reads them; the analytics engine consults them with a verified
fallback to the full pipeline. Nothing on the write path calls into the
view.

Correctness protocol (the counters must agree *exactly* with a full
pipeline recomputation at all times):

- **Marker.** The view remembers the collection's write marker — its
  lifetime ``(inserts, updates, deletes)`` counters; on the shard
  router's collection, the rebalance count and every shard's counters
  — at the moment it was last current. Every read first asks
  ``inserted_since`` for the documents inserted since that marker, in
  insertion order, and folds them (the *tail*); when anything but
  inserts moved the marker (retention deletes, contributor erasure,
  updates, a drop, a rebalance) there is no tail and the view
  rebuilds. One view serves a data plane of either topology.
- **Lazy build.** The first reader builds the view from a single pass
  over the live documents, and so does the first reader after a
  non-insert write. Deletes therefore rebuild rather than decrement: a
  decrement would need the deleted document's content, which the
  collection no longer has.
- **Degraded fields.** The pipeline semantics the counters mirror can
  reject a document (``$divide`` on a boolean ``taken_at``) or hit an
  unhashable value the cheap fold cannot bucket. Those mark the
  affected view degraded; its query method returns None and the
  engine falls back to the pipeline, which raises (or copes) exactly
  as it did before this optimisation existed.

Mirrored pipeline semantics, for the record:

- ``totals.localized`` counts ``{"location": {"$exists": True}}`` —
  key presence, even for ``None``/empty values;
- per-model ``localized`` is ``$cond [$ifNull [$location, False]]`` —
  *truthiness*, so ``location: {}`` is present-but-not-localized;
- ``day`` is ``$floor ($divide [$taken_at, 86400])`` where a missing
  or ``None`` ``taken_at`` coerces to 0;
- provider groups use ``location.provider`` with missing → ``None``.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Set

from repro import concurrency
from repro.docstore.aggregate import _safe_group_key
from repro.docstore.query import get_path, is_missing


class _ModelEntry:
    """The per-model fold: measurements, distinct devices, localized."""

    __slots__ = ("value", "measurements", "contributors", "localized")

    def __init__(self, value: Any) -> None:
        self.value = value
        self.measurements = 0
        self.contributors: Set[Any] = set()
        self.localized = 0


class MaterializedAnalytics:
    """Online per-model / per-day / per-provider observation counters."""

    def __init__(self, collection) -> None:
        self._collection = collection
        #: serializes observe/rebuild/query; acquired *before* the
        #: collection's RW lock, never after (lock hierarchy).
        self._lock = concurrency.make_rlock()
        #: the collection's write marker the view is current at
        self._marker: Optional[Any] = None
        self._total = 0
        self._localized = 0
        self._models: Dict[Any, _ModelEntry] = {}
        self._days: Dict[Any, int] = {}
        self._providers: Dict[Any, List[Any]] = {}  # key -> [value, count]
        self._degraded_models = False
        self._degraded_days = False
        # observability
        self.rebuilds = 0
        self.incremental_updates = 0
        self.invalidations = 0

    # -- the fold of a pulled tail ----------------------------------------------

    def observe(self, document: Dict[str, Any]) -> None:
        """Fold one pulled document: the batch of one."""
        self.observe_batch([document])

    def observe_batch(self, documents: Sequence[Dict[str, Any]]) -> None:
        """Fold a tail pulled by the view's own freshness step, in
        insertion order (group first-seen order depends on it).

        Nothing may call this as an ingest notification: the next read
        pulls every inserted document itself, so a document handed in
        here as well would be counted twice.
        """
        with self._lock:
            for document in documents:
                self._apply(document)
            self.incremental_updates += len(documents)

    # -- read side ------------------------------------------------------------

    def totals(self) -> Optional[Dict[str, int]]:
        """``{"total", "localized"}`` counts, or None when unavailable."""
        with self._lock:
            self._ensure_fresh()
            return {"total": self._total, "localized": self._localized}

    def per_model_groups(self) -> Optional[List[Dict[str, Any]]]:
        """Per-model groups in first-seen order, or None when degraded.

        Rows are ``{"_id": model, "measurements", "devices",
        "localized"}`` — the ``$group`` output with the contributor set
        already collapsed to its size.
        """
        with self._lock:
            self._ensure_fresh()
            if self._degraded_models:
                return None
            return [
                {
                    "_id": entry.value,
                    "measurements": entry.measurements,
                    "devices": len(entry.contributors),
                    "localized": entry.localized,
                }
                for entry in self._models.values()
            ]

    def day_counts(self) -> Optional[List[Dict[str, Any]]]:
        """``{"_id": day, "count"}`` rows sorted by day, or None."""
        with self._lock:
            self._ensure_fresh()
            if self._degraded_days:
                return None
            return [
                {"_id": day, "count": count}
                for day, count in sorted(self._days.items())
            ]

    def provider_counts(self) -> Optional[List[Dict[str, Any]]]:
        """``{"_id": provider, "count"}`` rows in first-seen order."""
        with self._lock:
            self._ensure_fresh()
            return [
                {"_id": value, "count": count}
                for value, count in self._providers.values()
            ]

    def info(self) -> Dict[str, Any]:
        """Observability snapshot for the middleware stats endpoint.

        ``fresh``: only inserts moved the write marker since the view
        was last current, so the next read folds a tail instead of
        rebuilding; an unbuilt view is not fresh.
        """
        with self._lock:
            marker = self._marker
            return {
                "fresh": marker is not None
                and self._collection.inserted_since(marker)[0] is not None,
                "rebuilds": self.rebuilds,
                "incremental_updates": self.incremental_updates,
                "invalidations": self.invalidations,
                "degraded": self._degraded_models or self._degraded_days,
            }

    # -- internals ------------------------------------------------------------

    def _ensure_fresh(self) -> None:
        tail, live = self._collection.inserted_since(self._marker)
        if tail is None:
            if self._marker is not None:
                self.invalidations += 1
            self._rebuild()
        elif tail:
            self.observe_batch(tail)
            self._marker = live

    def _rebuild(self) -> None:
        # marker and document snapshot must come from *one* atomic look
        # at the collection: a write landing between reading the
        # counters and listing the documents would let the view claim
        # freshness for a document it never folded (or pull it again
        # as part of the next tail and fold it twice).
        with self._collection.read_locked():
            marker = self._collection.write_marker()
            documents = self._collection.iter_documents()
        self._total = 0
        self._localized = 0
        self._models = {}
        self._days = {}
        self._providers = {}
        self._degraded_models = False
        self._degraded_days = False
        for document in documents:
            self._apply(document)
        self._marker = marker
        self.rebuilds += 1

    def _apply(self, doc: Dict[str, Any]) -> None:
        self._total += 1

        model = doc.get("model")
        entry = self._models.get(_safe_group_key(model))
        if entry is None:
            entry = self._models[_safe_group_key(model)] = _ModelEntry(model)
        entry.measurements += 1
        try:
            entry.contributors.add(doc.get("contributor"))
        except TypeError:
            self._degraded_models = True
        if doc.get("location"):
            entry.localized += 1

        if "location" in doc:
            self._localized += 1
            provider = get_path(doc, "location.provider")
            if is_missing(provider):
                provider = None
            bucket = self._providers.get(_safe_group_key(provider))
            if bucket is None:
                self._providers[_safe_group_key(provider)] = [provider, 1]
            else:
                bucket[1] += 1

        taken = doc.get("taken_at")
        if taken is None:
            taken = 0
        if isinstance(taken, bool) or not isinstance(taken, (int, float)):
            self._degraded_days = True
        else:
            day = math.floor(taken / 86400)
            self._days[day] = self._days.get(day, 0) + 1
