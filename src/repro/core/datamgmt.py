"""Crowd-sensed data management.

Figure 2: "allows the retrieval of crowd-sensed information based on
various filtering parameters, and various packaging solutions (file,
json stream, ...)". The ingest side persists broker deliveries into the
observations collection after the privacy policy has pseudonymized them.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro import concurrency
from repro.core.errors import ValidationError
from repro.core.materialized import MaterializedAnalytics
from repro.core.privacy import PrivacyPolicy
from repro.docstore.store import DocumentStore

OBSERVATIONS = "observations"

#: Default bound on the ingest dedup ledger (obs_ids remembered).
DEFAULT_DEDUP_CAPACITY = 100_000


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

    Args:
        store: the backing document store.
        privacy: the CNIL policy applied at ingest and sharing.
        dedup_capacity: bound on the idempotence ledger — how many
            recently seen ``obs_id`` values are remembered to collapse
            at-least-once broker deliveries into exactly-once storage.
            0 disables deduplication.
        region_fn: when this manager is one shard of a sharded
            deployment, the router's region routing key function. Each
            ledger entry then remembers the region its observation
            routed by (journaled alongside the key in the insert's WAL
            record), so a topology change can hand a region's dedup
            state to the shard that now owns it.
    """

    def __init__(
        self,
        store: DocumentStore,
        privacy: PrivacyPolicy,
        dedup_capacity: int = DEFAULT_DEDUP_CAPACITY,
        region_fn: Optional[Callable[[Dict[str, Any]], str]] = None,
    ) -> None:
        if dedup_capacity < 0:
            raise ValidationError(
                f"dedup_capacity must be >= 0, got {dedup_capacity}"
            )
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
        #: online per-model/per-day/per-provider counters, fed by ingest
        #: and shared with the analytics engine by the server.
        self.materialized = MaterializedAnalytics(self._observations)
        self._dedup_capacity = dedup_capacity
        # key -> True (unsharded) or the region string the observation
        # routed by (sharded): the value is what lets rebalancing find
        # and move a region's ledger entries.
        self._dedup_ledger: "OrderedDict[str, Any]" = OrderedDict()
        self._region_fn = region_fn
        #: observations stored / collapsed by the ledger since start,
        #: whoever called; both move inside ``ingest_many`` under
        #: ``ingest_lock``, so they can never drift from the ledger.
        self.ingested = 0
        self.dedup_hits = 0
        # ingest listeners receive every *stored* observation as
        # ``(document, stored_id)`` pairs, called after the insert and
        # the ledger commit, still inside the ingest lock: listener
        # order therefore equals insertion order, which is what gives
        # the subscription plane gap-free, duplicate-free streams.
        # Deduplicated deliveries never reach a listener.
        self._ingest_listeners: List[
            Callable[[str, List[Tuple[Dict[str, Any], Any]]], None]
        ] = []
        #: public, re-entrant: serializes the whole dedup-check → insert
        #: → observe → ledger-commit → count → notify sequence.
        self.ingest_lock = concurrency.make_rlock()

    @property
    def collection(self):
        """Direct access to the observations collection (analytics use)."""
        return self._observations

    def add_ingest_listener(
        self,
        listener: Callable[[str, List[Tuple[Dict[str, Any], Any]]], None],
    ) -> None:
        """Register a stored-observation listener (the delta stream).

        ``listener(app_id, [(document, stored_id), ...])`` runs under
        the ingest lock, after the ledger committed — exactly once per
        stored observation, never for a deduplicated delivery.
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
        a stable ``obs_id`` and a redelivered document is recognized
        against the bounded ledger and skipped. The returned list is
        parallel to ``documents`` — a stored id per new observation,
        None per deduplicated one (an ``obs_id`` already in the ledger,
        or repeated earlier in the same call). Documents without an
        ``obs_id`` (legacy producers, feedback blobs) are stored
        unconditionally.

        ``owned=True`` declares the documents server-owned already —
        e.g. freshly parsed from a wire body — so pseudonymization may
        scrub them in place instead of cloning first. Never pass
        caller-retained documents as owned.

        Failure keeps the exactly-once contract: ``insert_many`` rolls
        the whole call back and nothing reaches the ledger, so a
        client's redelivery rolls forward instead of becoming a dedup
        hit (silent data loss).
        """
        for document in documents:
            if not isinstance(document, dict):
                raise ValidationError(
                    f"observation must be a dict, got {type(document).__name__}"
                )
        # the whole check → insert → observe → commit sequence runs
        # under one lock: two threads redelivering the same obs_id must
        # resolve to exactly one stored document, never a double insert
        # from both missing the ledger at once.
        with self.ingest_lock:
            results: List[Optional[Any]] = [None] * len(documents)
            fresh: List[Dict[str, Any]] = []
            slots: List[int] = []
            # wire-form ledger key -> region (sharded) or True, in input
            # order: the seen-in-this-call set, the insert's WAL meta
            # and the ledger commit at once.
            pending: Dict[str, Any] = {}
            region_fn = self._region_fn
            for slot, document in enumerate(documents):
                obs_id = document.get("obs_id")
                if obs_id is not None and self._dedup_capacity:
                    ledger_key = str(obs_id)
                    if ledger_key in self._dedup_ledger:
                        self._dedup_ledger.move_to_end(ledger_key)
                        continue
                    if ledger_key in pending:
                        continue
                    pending[ledger_key] = (
                        True if region_fn is None else region_fn(document)
                    )
                slots.append(slot)
                fresh.append(document)
            self.dedup_hits += len(documents) - len(fresh)
            if fresh:
                to_store = self._privacy.anonymize_ingest_many(fresh, owned=owned)
                for stored in to_store:
                    stored["app_id"] = app_id
                # the ledger keys travel inside the insert's WAL record:
                # recovery re-learns them if and only if the insert
                # itself survived, keeping exactly-once across a kill -9.
                wal_meta = None
                if pending:
                    wal_meta = {"ledger": list(pending)}
                    if region_fn is not None:
                        wal_meta["regions"] = list(pending.values())
                # to_store are private copies already: the collection
                # takes ownership rather than cloning a second time.
                ids = self._observations.insert_many(
                    to_store, copy=False, wal_meta=wal_meta
                )
                self.materialized.observe_batch(to_store)
                for slot, doc_id in zip(slots, ids):
                    results[slot] = doc_id
                self.ingested += len(ids)
                # the ledger learns the keys only now, once the
                # documents are stored.
                self._dedup_ledger.update(pending)
                while len(self._dedup_ledger) > self._dedup_capacity:
                    self._dedup_ledger.popitem(last=False)
                stored_pairs = list(zip(to_store, ids))
                for listener in self._ingest_listeners:
                    listener(app_id, stored_pairs)
            return results

    def restore_ledger(
        self, keys: List[str], regions: Optional[List[Any]] = None
    ) -> int:
        """Reload the idempotence ledger after crash recovery.

        ``keys`` come from ``DocumentStore.recover`` (snapshot state +
        the ledger metadata of every replayed insert record), oldest
        first; only the most recent ``dedup_capacity`` survive, exactly
        like the live LRU. ``regions`` is the parallel per-key region
        list recovered alongside (sharded deployments). Returns the
        resulting ledger size.
        """
        with self.ingest_lock:
            if not self._dedup_capacity:
                return 0
            for index, key in enumerate(keys):
                key = str(key)
                value: Any = True
                if regions is not None and index < len(regions):
                    value = regions[index]
                if key in self._dedup_ledger:
                    self._dedup_ledger.move_to_end(key)
                self._dedup_ledger[key] = value
            while len(self._dedup_ledger) > self._dedup_capacity:
                self._dedup_ledger.popitem(last=False)
            return len(self._dedup_ledger)

    # -- shard rebalancing ----------------------------------------------------

    def ledger_entries_for(
        self, regions: Optional[Iterable[str]]
    ) -> List[Tuple[str, Any]]:
        """The ledger entries whose observations routed by ``regions``
        (None: every region-tagged entry — a draining shard hands them
        all off)."""
        wanted = None if regions is None else set(regions)
        with self.ingest_lock:
            return [
                (key, value)
                for key, value in self._dedup_ledger.items()
                if (isinstance(value, str) if wanted is None else value in wanted)
            ]

    def adopt(
        self,
        documents: List[Dict[str, Any]],
        ledger_entries: List[Tuple[str, Any]],
    ) -> List[Any]:
        """Rebalance receive path: take ownership of already-stored
        observations handed off by another shard.

        ``documents`` are storage-form clones that keep their global
        ``_id``s; they replay through the journaled ``insert_many``
        path with the handed-off ledger keys/regions riding the WAL
        record, so both the documents and the dedup state survive a
        crash mid-rebalance exactly like a first ingest would.
        """
        with self.ingest_lock:
            ids: List[Any] = []
            keys = [key for key, _ in ledger_entries]
            values = [value for _, value in ledger_entries]
            if documents:
                wal_meta = None
                if keys:
                    wal_meta = {"ledger": keys, "regions": values}
                ids = self._observations.insert_many(
                    documents, copy=False, wal_meta=wal_meta
                )
                self.materialized.observe_batch(documents)
            elif keys:
                # ledger entries with no surviving documents (retention
                # expiry, erasure) still need a journaled carrier.
                journal = self._store.journal
                if journal is not None:
                    journal.log(
                        {
                            "op": "ledger",
                            "c": OBSERVATIONS,
                            "keys": keys,
                            "regions": values,
                        }
                    )
            if self._dedup_capacity:
                for key, value in ledger_entries:
                    if key in self._dedup_ledger:
                        self._dedup_ledger.move_to_end(key)
                    self._dedup_ledger[key] = value
                while len(self._dedup_ledger) > self._dedup_capacity:
                    self._dedup_ledger.popitem(last=False)
            return ids

    def release_keys(self, keys: Iterable[str]) -> int:
        """Rebalance send path: forget handed-off ledger entries.

        Live-state hygiene only (not journaled): stale keys in this
        shard's WAL are harmless because the region no longer routes
        here, while the adopting shard's journal now owns the entries.
        """
        with self.ingest_lock:
            removed = 0
            for key in keys:
                if self._dedup_ledger.pop(key, None) is not None:
                    removed += 1
            return removed

    def remove_documents(self, ids: Iterable[Any]) -> int:
        """Rebalance send path: journaled delete of handed-off docs."""
        removed = 0
        for doc_id in ids:
            removed += self._observations.delete_one({"_id": doc_id})
        return removed

    def dedup_info(self) -> Dict[str, int]:
        """Observability snapshot of the idempotence ledger."""
        with self.ingest_lock:
            return {
                "size": len(self._dedup_ledger),
                "capacity": self._dedup_capacity,
                "hits": self.dedup_hits,
            }

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

    def delete_contributor_data(self, app_id: str, user_id: str) -> int:
        """CNIL right-to-erasure: drop a contributor's observations."""
        pseudonym = self._privacy.pseudonym(user_id)
        return self._observations.delete_many(
            {"app_id": app_id, "contributor": pseudonym}
        )

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
