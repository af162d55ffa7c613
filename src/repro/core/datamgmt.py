"""Crowd-sensed data management.

Figure 2: "allows the retrieval of crowd-sensed information based on
various filtering parameters, and various packaging solutions (file,
json stream, ...)". The ingest side persists broker deliveries into the
observations collection after the privacy policy has pseudonymized them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro import concurrency
from repro.core.errors import ValidationError
from repro.core.materialized import MaterializedAnalytics
from repro.core.privacy import PrivacyPolicy
from repro.docstore.store import DocumentStore

OBSERVATIONS = "observations"

#: The right-to-erasure tombstones, one ``{app_id, contributor}`` each.
ERASURES = "erasures"


def validate_observations(documents: List[Any]) -> None:
    """Refuse a batch the write body cannot store, before any of it is:
    a non-dict observation, or an ``obs_id`` that is not a string (the
    dedup key must be one hashable scalar)."""
    for document in documents:
        if not isinstance(document, dict):
            raise ValidationError(
                f"observation must be a dict, got {type(document).__name__}"
            )
        if "obs_id" in document and not isinstance(document["obs_id"], str):
            raise ValidationError(
                "obs_id must be a string, got "
                f"{type(document['obs_id']).__name__}"
            )


@dataclass
class DataQuery:
    """Filter parameters for retrieval (every field optional).

    Attributes mirror the REST API's query parameters: time window over
    ``taken_at``, device model, sensing mode, location provider, maximum
    reported accuracy (meters), contributor pseudonym, localized-only.
    """

    app_id: Optional[str] = None
    since: Optional[float] = None
    until: Optional[float] = None
    model: Optional[str] = None
    mode: Optional[str] = None
    provider: Optional[str] = None
    max_accuracy_m: Optional[float] = None
    contributor: Optional[str] = None
    localized_only: bool = False

    def to_filter(self) -> Dict[str, Any]:
        """The docstore filter document for this query."""
        conditions: Dict[str, Any] = {}
        if self.app_id is not None:
            conditions["app_id"] = self.app_id
        taken: Dict[str, Any] = {}
        if self.since is not None:
            taken["$gte"] = self.since
        if self.until is not None:
            taken["$lt"] = self.until
        if taken:
            conditions["taken_at"] = taken
        if self.model is not None:
            conditions["model"] = self.model
        if self.mode is not None:
            conditions["mode"] = self.mode
        if self.provider is not None:
            conditions["location.provider"] = self.provider
        if self.max_accuracy_m is not None:
            conditions["location.accuracy_m"] = {"$lte": self.max_accuracy_m}
        if self.contributor is not None:
            conditions["contributor"] = self.contributor
        if self.localized_only and "location.provider" not in conditions and (
            self.max_accuracy_m is None
        ):
            conditions["location"] = {"$exists": True}
        return conditions


class Packaging:
    """Figure 2's packaging solutions over any ``retrieve`` — shared by
    :class:`DataManager` and the shard router, which differ only in how
    they find the documents."""

    def as_json_stream(self, query: DataQuery) -> Iterator[str]:
        """The matching documents as a stream of JSON lines."""
        for document in self.retrieve(query):
            document.pop("_id", None)
            yield json.dumps(document, sort_keys=True)

    def as_file(self, query: DataQuery) -> str:
        """The matching documents packaged as one JSON-lines string."""
        return "\n".join(self.as_json_stream(query))

    def as_open_data(self, app_id: str, query: DataQuery) -> List[Dict[str, Any]]:
        """Open-data export: privacy-coarsened documents."""
        return [
            self._privacy.for_open_data(app_id, doc) for doc in self.retrieve(query)
        ]


class DataManager(Packaging):
    """Stores and retrieves crowd-sensed observations.

    The observations collection is its own dedup ledger: a unique hash
    index on the stored ``obs_id`` (see :meth:`ingest_many`). Recovery,
    checkpoints and shard rebalancing keep exactly-once for free — they
    move documents, and the index follows the documents. Two limits
    follow from the ledger being the store:

    - a right-to-erasure request leaves a tombstone ``{app_id,
      contributor}`` in the ``erasures`` collection of the same store,
      and ingest refuses that contributor's later uploads to that app
      (deleting the documents alone would forget their keys and let a
      redelivery store them again);
    - an observation that retention already expired is stored again
      when it is redelivered: its key left with it.

    Args:
        store: the backing document store.
        privacy: the CNIL policy applied at ingest and sharing.
    """

    def __init__(self, store: DocumentStore, privacy: PrivacyPolicy) -> None:
        self._store = store
        self._privacy = privacy
        self._observations = store.collection(OBSERVATIONS)
        # exist_ok: a store recovered from snapshot + WAL already
        # declares these; re-running the declarations must be a no-op.
        self._observations.create_index("model", kind="hash", exist_ok=True)
        self._observations.create_index("taken_at", kind="sorted", exist_ok=True)
        self._observations.create_index("contributor", kind="hash", exist_ok=True)
        self._observations.create_index(
            "location.provider", kind="hash", exist_ok=True
        )
        #: the dedup ledger: stored ``obs_id`` -> ``_id``, probed by
        #: ingest under ``ingest_lock`` alone (see :meth:`ingest_many`)
        self._obs_ids = self._observations.create_index(
            "obs_id", kind="hash", unique=True, exist_ok=True
        )
        # columnar mirror over the figure-query hot fields: vectorized
        # $match/$group/$sort kernels serve covered analytics pipelines
        # straight from numpy arrays (no-op when numpy is unavailable).
        # ``_id`` is mirrored for the scatter's first-seen marker.
        self._observations.enable_columnar(
            [
                "_id",
                "model",
                "mode",
                "contributor",
                "taken_at",
                "noise_dba",
                "app_version",
                "location",
                "location.provider",
                "location.accuracy_m",
            ]
        )
        #: per-model/per-day/per-provider counters, built by their first
        #: reader and kept by pulling what was inserted since; shared
        #: with the analytics engine by the server.
        self.materialized = MaterializedAnalytics(self._observations)
        # erasure tombstones: journaled, checkpointed and recovered with
        # the store; the set is their in-memory copy, kept under
        # ``ingest_lock``.
        self._erasures = store.collection(ERASURES)
        self._erased: Set[Tuple[Any, Any]] = {
            (doc.get("app_id"), doc.get("contributor"))
            for doc in self._erasures.iter_documents()
        }
        #: observations stored / collapsed as duplicates since start,
        #: whoever called; both move inside ``ingest_many`` under
        #: ``ingest_lock``, so they can never drift from the index.
        self.ingested = 0
        self.dedup_hits = 0
        # ingest listeners receive every *stored* observation as
        # ``(document, stored_id)`` pairs, called after the insert,
        # still inside the ingest lock: listener order therefore equals
        # insertion order, which is what gives the subscription plane
        # gap-free, duplicate-free streams. Deduplicated deliveries
        # never reach a listener.
        self._ingest_listeners: List[
            Callable[[str, List[Tuple[Dict[str, Any], Any]]], None]
        ] = []
        #: public, re-entrant: serializes the whole probe → insert →
        #: count → notify sequence, and every other writer of the
        #: ``obs_id`` index (adopt, erasure, rebalance removal). It
        #: covers no view: the materialized counters and the columnar
        #: mirror pull what was inserted when a reader asks.
        self.ingest_lock = concurrency.make_rlock()

    @property
    def collection(self):
        """Direct access to the observations collection (analytics use)."""
        return self._observations

    def ingest_paused(self):
        """A context in which no ingest call is in flight: the ingest
        lock. A reader that lists the store inside it has seen every
        stored batch reach the ingest listeners already."""
        return self.ingest_lock

    def add_ingest_listener(
        self,
        listener: Callable[[str, List[Tuple[Dict[str, Any], Any]]], None],
    ) -> None:
        """Register a stored-observation listener (the delta stream).

        ``listener(app_id, [(document, stored_id), ...])`` runs under
        the ingest lock, after the insert — exactly once per stored
        observation, never for a deduplicated delivery.
        """
        self._ingest_listeners.append(listener)

    # -- ingest --------------------------------------------------------------

    def ingest(self, app_id: str, document: Dict[str, Any]) -> Any:
        """Persist one observation; its stored id, or None when it was
        deduplicated. The batch of one: see :meth:`ingest_many`."""
        return self.ingest_many(app_id, [document])[0]

    def ingest_many(
        self, app_id: str, documents: List[Dict[str, Any]], owned: bool = False
    ) -> List[Optional[Any]]:
        """Persist observations; ids in input order. The one write body.

        Pseudonymization runs before a document touches disk. Ingest is
        **idempotent** over ``obs_id``: the uplink is at-least-once
        (retries after unconfirmed publishes, broker redeliveries,
        retransmitted batches), so clients stamp each observation with
        a stable ``obs_id`` (a string, or :class:`ValidationError`). The
        key is the *stored* ``obs_id`` — after the pseudonym rewrite,
        which maps two deliveries of one observation to one key — and a
        document whose key the unique ``obs_id`` index already holds,
        or that repeats earlier in the same call, is skipped; so is one
        whose contributor was erased from ``app_id``. The returned list
        is parallel to ``documents`` — a stored id per new observation,
        None per skipped one. Documents without an ``obs_id`` (legacy
        producers, feedback blobs) are stored unconditionally.

        ``owned=True`` declares the documents server-owned already —
        e.g. freshly parsed from a wire body — so pseudonymization may
        scrub them in place instead of cloning first. Never pass
        caller-retained documents as owned.

        The probe reads the index under ``ingest_lock`` only, without
        the collection's read lock. That is sound because every writer
        of the index holds ``ingest_lock`` — this method, :meth:`adopt`,
        erasure and :meth:`remove_documents` — except a collection-level
        delete (retention) or ``drop``; a probe racing one of those sees
        the state before or after it, and both are valid orders. The
        unique index is the backstop: a double insert that slipped past
        the probe (locks disabled) raises ``DuplicateKeyError`` and
        rolls its batch back; it is never stored twice.

        Failure keeps the exactly-once contract: ``insert_many`` rolls
        the whole call back and the index keeps none of its keys, so a
        client's redelivery rolls forward instead of becoming a dedup
        hit (silent data loss).
        """
        validate_observations(documents)
        stored = self._privacy.anonymize_ingest_many(documents, owned=owned)
        for document in stored:
            document["app_id"] = app_id
        with self.ingest_lock:
            fresh, slots = self._unseen(stored)
            self.dedup_hits += len(documents) - len(fresh)
            results: List[Optional[Any]] = [None] * len(documents)
            if fresh:
                # the stored forms are private copies already: the
                # collection takes ownership rather than cloning again.
                ids = self._observations.insert_many(fresh, copy=False)
                for slot, doc_id in zip(slots, ids):
                    results[slot] = doc_id
                self.ingested += len(ids)
                stored_pairs = list(zip(fresh, ids))
                for listener in self._ingest_listeners:
                    listener(app_id, stored_pairs)
            return results

    def _unseen(
        self, documents: List[Dict[str, Any]]
    ) -> Tuple[List[Dict[str, Any]], List[int]]:
        """The storage-form ``documents`` to insert, and their slots:
        those whose ``obs_id`` neither the index nor an earlier document
        of the list holds, from a contributor not erased from their app.
        Callers hold ``ingest_lock``."""
        index = self._obs_ids
        erased = self._erased
        seen: Set[str] = set()
        fresh: List[Dict[str, Any]] = []
        slots: List[int] = []
        for slot, document in enumerate(documents):
            key = document.get("obs_id")
            if key is not None:
                if key in index or key in seen:
                    continue
                seen.add(key)
            if erased and (
                (document.get("app_id"), document.get("contributor")) in erased
            ):
                continue
            fresh.append(document)
            slots.append(slot)
        return fresh, slots

    # -- shard rebalancing ----------------------------------------------------

    def adopt(self, documents: List[Dict[str, Any]]) -> List[Any]:
        """Rebalance receive path: take ownership of already-stored
        observations handed off by another shard.

        ``documents`` are storage-form clones that keep their global
        ``_id``s; they replay through the journaled ``insert_many``
        path, so they — and with them their ``obs_id`` keys — survive a
        crash mid-rebalance exactly like a first ingest would. A
        document whose ``obs_id`` this shard already holds (one client
        reusing a stamp across regions) is not adopted: its observation
        is stored here already. Returns the adopted ids.
        """
        with self.ingest_lock:
            fresh, _ = self._unseen(documents)
            if not fresh:
                return []
            return self._observations.insert_many(fresh, copy=False)

    def remove_documents(self, ids: Iterable[Any]) -> int:
        """Rebalance send path: journaled delete of handed-off docs."""
        removed = 0
        with self.ingest_lock:
            for doc_id in ids:
                removed += self._observations.delete_one({"_id": doc_id})
        return removed

    def dedup_info(self) -> Dict[str, int]:
        """The dedup ledger: ``size`` is the ``obs_id``s the index
        holds, ``hits`` the deliveries it collapsed."""
        with self.ingest_lock:
            return {"size": len(self._obs_ids), "hits": self.dedup_hits}

    def reliability_snapshot(self) -> Dict[str, Any]:
        """Delivery counters and the ledger in one coherent look."""
        with self.ingest_lock:
            return {
                "ingested": self.ingested,
                "deduped": self.dedup_hits,
                "dedup_ledger": self.dedup_info(),
            }

    def durability_info(self) -> Dict[str, Any]:
        """The backing store's journal state."""
        return self._store.durability_info()

    def sharding_stats(self) -> Dict[str, Any]:
        """The router's topology section; an unsharded plane has none."""
        return {"enabled": False}

    def delete_contributor_data(self, app_id: str, user_id: str) -> int:
        """CNIL right-to-erasure: drop a contributor's observations.

        The tombstone is journaled before the delete, so a redelivery of
        an erased observation — or a new one from the same contributor
        to the same app — is refused even after a crash between the
        two. Returns the number of observations deleted.
        """
        pseudonym = self._privacy.pseudonym(user_id)
        with self.ingest_lock:
            self.record_erasures([(app_id, pseudonym)])
            return self._observations.delete_many(
                {"app_id": app_id, "contributor": pseudonym}
            )

    def erasures(self) -> Set[Tuple[Any, Any]]:
        """The ``(app_id, contributor pseudonym)`` pairs erased here."""
        with self.ingest_lock:
            return set(self._erased)

    def record_erasures(self, pairs: Iterable[Tuple[Any, Any]]) -> None:
        """Tombstone ``(app_id, contributor)`` pairs not yet recorded
        (a new shard learns the fleet's erasures through this)."""
        with self.ingest_lock:
            for app_id, contributor in pairs:
                if (app_id, contributor) not in self._erased:
                    self._erasures.insert_one(
                        {"app_id": app_id, "contributor": contributor}
                    )
                    self._erased.add((app_id, contributor))

    # -- retrieval ------------------------------------------------------------

    def retrieve(
        self,
        query: DataQuery,
        limit: Optional[int] = None,
        share_with_app: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Documents matching ``query``, newest first.

        ``share_with_app``: when retrieving on behalf of *another* app,
        the owning app's private fields are stripped per the privacy
        policy.
        """
        cursor = self._observations.find(query.to_filter()).sort("taken_at", -1)
        if limit is not None:
            cursor = cursor.limit(limit)
        documents = cursor.to_list()
        if share_with_app is not None and query.app_id is not None and (
            share_with_app != query.app_id
        ):
            documents = [
                self._privacy.for_sharing(query.app_id, doc) for doc in documents
            ]
        return documents

    def count(self, query: DataQuery) -> int:
        """Number of documents matching ``query``."""
        return self._observations.count(query.to_filter())
