"""The shard router: consistent-hash ingest fan-out + scatter-gather.

Each :class:`Shard` is a vertical slice of the middleware data plane —
its own :class:`~repro.docstore.store.DocumentStore` (with its own WAL
when durable) and its own :class:`~repro.core.datamgmt.DataManager`
(privacy scrub, the ``obs_id`` dedup index, materialized analytics,
columnar mirror).

:class:`ShardRouter` keeps the shards behind the ``DataManager``
surface the server already speaks:

- **Ingest** routes by the observation's region key on a consistent
  hash ring. The router allocates globally monotonic ``_id``s, so the
  union of all shards has a total insertion order and scatter-gather
  reads can be row-exact against an unsharded store. ``ingest_many``
  splits a batch by owning shard and holds the router's
  ``ingest_lock`` from id allocation to its ingest listeners — the
  ``DataManager`` listener contract, so the delta stream arrives in
  ``_id`` order on both topologies.
- **Reads** scatter to every shard and merge on the coordinator:
  ``find``/``retrieve`` re-establish the global ``_id`` order before
  re-applying sort/limit; ``aggregate`` runs a partial ``$group``
  through every shard's own engine and merges the group rows (see
  :mod:`repro.sharding.merge`), gathering documents centrally
  otherwise. Results carry ``explain["strategy"] == "scattered"`` with
  per-shard detail.
- **Rebalancing** (``add_shard``/``remove_shard``) re-rings the
  topology and hands each relocated region's documents to the new
  owner through the journaled write path. Each shard's dedup ledger is
  its store's unique ``obs_id`` index, so the keys follow the
  documents and exactly-once survives both the move and a crash in the
  middle of it; a durable router repairs half-finished handoffs at
  startup. Erasure tombstones are on every shard: an erasure reaches
  them all, and a new shard learns the fleet's tombstones.
"""

from __future__ import annotations

import re
import shutil
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro import concurrency
from repro.core.datamgmt import (
    DataManager,
    DataQuery,
    OBSERVATIONS,
    Packaging,
    validate_observations,
)
from repro.core.errors import ValidationError
from repro.core.privacy import PrivacyPolicy
from repro.docstore.aggregate import _safe_group_key, compile_pipeline
from repro.docstore.clone import json_clone
from repro.docstore.collection import AggregationResult, CollectionStats
from repro.docstore.cursor import Cursor, sort_documents
from repro.docstore.store import DocumentStore
from repro.sharding.merge import global_order_key, plan_scatter
from repro.sharding.region import DEFAULT_CELL_M, region_of
from repro.sharding.ring import DEFAULT_VNODES, HashRing

#: a shard directory renamed to this suffix is dead: ``remove_shard``
#: retires it atomically before best-effort deletion, so a crash during
#: cleanup can never resurrect a half-deleted shard.
RETIRED_SUFFIX = ".retired"

_SHARD_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_-]*")


def validate_shard_name(name: Any) -> str:
    """A shard name becomes a directory under ``data_dir`` and can
    arrive from the admin REST surface: one flat path component, never
    one ``_discover_names`` would skip as retired."""
    if (
        not isinstance(name, str)
        or _SHARD_NAME.fullmatch(name) is None
        or name.endswith(RETIRED_SUFFIX)
    ):
        raise ValidationError(
            f"invalid shard name {name!r}: expected letters, digits, '_' or '-', "
            "starting with a letter or digit"
        )
    return name


class ShardingConfig:
    """Topology parameters for a :class:`ShardRouter`.

    Args:
        shards: shard count (named ``shard-00`` …) or explicit names.
        vnodes: virtual nodes per shard on the hash ring.
        cell_m: grid cell size of the region routing key.
    """

    def __init__(
        self,
        shards: Union[int, Sequence[str]] = 4,
        vnodes: int = DEFAULT_VNODES,
        cell_m: float = DEFAULT_CELL_M,
    ) -> None:
        if isinstance(shards, int):
            if shards < 1:
                raise ValidationError("shard count must be >= 1")
            self.names = [f"shard-{i:02d}" for i in range(shards)]
        else:
            self.names = [validate_shard_name(name) for name in shards]
            if not self.names:
                raise ValidationError("at least one shard name required")
            if len(set(self.names)) != len(self.names):
                raise ValidationError("shard names must be unique")
        self.vnodes = vnodes
        self.cell_m = cell_m


class Shard:
    """One vertical slice: a store and the data manager over it. Its
    ``DataManager`` carries no ingest listener — the router fires the
    one delta stream itself, in global ``_id`` order."""

    def __init__(self, name: str, store: DocumentStore, data: DataManager) -> None:
        self.name = name
        self.store = store
        self.data = data

    @property
    def collection(self):
        return self.data.collection

    # -- router seam (bench/trace.py times these three by name) -----------

    def submit_ingest_many(
        self, app_id: str, documents: List[Dict[str, Any]], owned: bool
    ) -> List[Optional[Any]]:
        """Apply a sub-batch through this shard's write body."""
        return self.data.ingest_many(app_id, documents, owned=owned)

    def submit_partial_fold(self, plan: Any) -> AggregationResult:
        """The partial ``$group`` through this shard's own engine
        (index pushdown, plan cache, columnar kernel)."""
        return self.collection.aggregate(plan.shard_pipeline)

    def submit_documents(self) -> List[Dict[str, Any]]:
        return self.collection.iter_documents()

    def max_int_id(self) -> int:
        top = 0
        for doc in self.collection.iter_documents():
            doc_id = doc.get("_id")
            if isinstance(doc_id, int) and not isinstance(doc_id, bool):
                if doc_id > top:
                    top = doc_id
        return top

    def shutdown(self) -> None:
        journal = self.store.journal
        if journal is not None:
            journal.close()


class ShardedObservations:
    """The observations collection surface over every shard.

    Implements the read-side subset of
    :class:`~repro.docstore.collection.Collection` that the analytics
    engine, materialized views and packaging layers consume —
    scatter-gathered, with the global ``_id`` order re-established.
    """

    def __init__(self, router: "ShardRouter") -> None:
        self._router = router
        self.name = OBSERVATIONS

    def _shards(self) -> List[Shard]:
        return self._router._shards_snapshot()

    def __len__(self) -> int:
        return sum(len(shard.collection) for shard in self._shards())

    def count(self, filter_doc: Optional[Dict[str, Any]] = None) -> int:
        return sum(shard.collection.count(filter_doc) for shard in self._shards())

    def iter_documents(self) -> List[Dict[str, Any]]:
        """Every shard's snapshot merged into global insertion order."""
        merged: List[Dict[str, Any]] = []
        for shard in self._shards():
            merged.extend(shard.collection.iter_documents())
        merged.sort(key=global_order_key)
        return merged

    def read_locked(self):
        """One atomic look across every shard (locks in name order)."""
        stack = ExitStack()
        for shard in self._shards():
            stack.enter_context(shard.collection.read_locked())
        return stack

    def write_marker(self) -> Tuple[int, int, int]:
        inserts = updates = deletes = 0
        for shard in self._shards():
            i, u, d = shard.collection.write_marker()
            inserts += i
            updates += u
            deletes += d
        return (inserts, updates, deletes)

    def inserted_since(
        self, marker: Optional[Tuple[int, int, int]]
    ) -> Tuple[Optional[Tuple[Dict[str, Any], ...]], Tuple[int, int, int]]:
        """No cross-shard tail is kept: ``()`` while the summed marker
        has not moved, else None (the caller rebuilds)."""
        live = self.write_marker()
        return ((), live) if live == marker else (None, live)

    def stats_snapshot(self) -> CollectionStats:
        total = CollectionStats()
        for shard in self._shards():
            snap = shard.collection.stats_snapshot()
            total.inserts += snap.inserts
            total.updates += snap.updates
            total.deletes += snap.deletes
            total.queries += snap.queries
            total.index_hits += snap.index_hits
            total.full_scans += snap.full_scans
            total.plan_cache_hits += snap.plan_cache_hits
            total.plan_cache_misses += snap.plan_cache_misses
            total.index_folds += snap.index_folds
        return total

    def find(self, filter_doc: Optional[Dict[str, Any]] = None) -> Cursor:
        """Scatter the filter, merge matches in global ``_id`` order.

        The returned cursor's ``sort``/``skip``/``limit`` therefore
        re-apply *globally*, exactly as on an unsharded collection.
        """
        merged: List[Dict[str, Any]] = []
        for shard in self._shards():
            merged.extend(shard.collection.find(filter_doc).to_list())
        merged.sort(key=global_order_key)
        return Cursor(merged)

    def distinct(
        self, path: str, filter_doc: Optional[Dict[str, Any]] = None
    ) -> List[Any]:
        values: List[Any] = []
        seen: set = set()
        for shard in self._shards():
            for value in shard.collection.distinct(path, filter_doc):
                if value not in seen:
                    seen.add(value)
                    values.append(value)
        try:
            return sorted(values, key=lambda v: (str(type(v)), str(v)))
        except TypeError:  # pragma: no cover - defensive
            return values

    def aggregate(self, pipeline: List[Dict[str, Any]]) -> AggregationResult:
        return self._router.scatter_aggregate(pipeline)

    def explain(self, filter_doc: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        return {
            "strategy": "scattered",
            "shards": {
                shard.name: shard.collection.explain(filter_doc)
                for shard in self._shards()
            },
        }

    def columnar_info(self) -> Dict[str, Any]:
        per_shard = {
            shard.name: shard.collection.columnar_info() for shard in self._shards()
        }
        return {
            "enabled": any(info.get("enabled") for info in per_shard.values()),
            "fresh": all(
                info.get("fresh", True)
                for info in per_shard.values()
                if info.get("enabled")
            ),
            "sharded": True,
            "rows": sum(info.get("rows", 0) or 0 for info in per_shard.values()),
            "column_bytes": sum(info.get("column_bytes", 0) for info in per_shard.values()),
            "shards": per_shard,
        }


def _canonical_group_order(value: Any) -> str:
    return repr(_safe_group_key(value))


class MergedMaterialized:
    """Coordinator view over every shard's materialized analytics.

    Additive counters (totals, measurements, localized, day and
    provider counts) merge by summing; distinct-device counts merge by
    *set union* of the per-shard contributor sets, since one
    contributor observed from two regions must still count once.
    Group rows come back in a canonical (stable, shard-count-
    independent) order: the global first-seen order is not
    reconstructible from per-shard folds alone.
    """

    def __init__(self, router: "ShardRouter") -> None:
        self._router = router

    def _views(self) -> List[Any]:
        return [shard.data.materialized for shard in self._router._shards_snapshot()]

    def totals(self) -> Optional[Dict[str, int]]:
        total = localized = 0
        for view in self._views():
            part = view.totals()
            if part is None:
                return None
            total += part["total"]
            localized += part["localized"]
        return {"total": total, "localized": localized}

    def per_model_groups(self) -> Optional[List[Dict[str, Any]]]:
        merged: Dict[Any, List[Any]] = {}  # key -> [value, meas, devices, localized]
        for view in self._views():
            entries = view.model_entries()
            if entries is None:
                return None
            for value, measurements, contributors, localized in entries:
                key = _safe_group_key(value)
                entry = merged.get(key)
                if entry is None:
                    merged[key] = [value, measurements, set(contributors), localized]
                else:
                    entry[1] += measurements
                    entry[2] |= contributors
                    entry[3] += localized
        return [
            {
                "_id": value,
                "measurements": measurements,
                "devices": len(contributors),
                "localized": localized,
            }
            for value, measurements, contributors, localized in sorted(
                merged.values(), key=lambda e: _canonical_group_order(e[0])
            )
        ]

    def day_counts(self) -> Optional[List[Dict[str, Any]]]:
        days: Dict[Any, int] = {}
        for view in self._views():
            rows = view.day_counts()
            if rows is None:
                return None
            for row in rows:
                days[row["_id"]] = days.get(row["_id"], 0) + row["count"]
        return [{"_id": day, "count": count} for day, count in sorted(days.items())]

    def provider_counts(self) -> Optional[List[Dict[str, Any]]]:
        merged: Dict[Any, List[Any]] = {}
        for view in self._views():
            rows = view.provider_counts()
            if rows is None:
                return None
            for row in rows:
                key = _safe_group_key(row["_id"])
                entry = merged.get(key)
                if entry is None:
                    merged[key] = [row["_id"], row["count"]]
                else:
                    entry[1] += row["count"]
        return [
            {"_id": value, "count": count}
            for value, count in sorted(
                merged.values(), key=lambda e: _canonical_group_order(e[0])
            )
        ]

    def info(self) -> Dict[str, Any]:
        views = self._views()
        infos = [view.info() for view in views]
        return {
            "fresh": all(info["fresh"] for info in infos),
            "rebuilds": sum(info["rebuilds"] for info in infos),
            "incremental_updates": sum(info["incremental_updates"] for info in infos),
            "invalidations": sum(info["invalidations"] for info in infos),
            "degraded": any(info["degraded"] for info in infos),
            "merged_shards": len(views),
        }


class ShardRouter(Packaging):
    """Region-keyed front over N shards; speaks the DataManager surface."""

    def __init__(
        self,
        privacy: PrivacyPolicy,
        clock: Optional[Callable[[], float]] = None,
        config: Optional[ShardingConfig] = None,
        durable: bool = False,
        data_dir: Optional[Union[str, Path]] = None,
        wal_config: Optional[Any] = None,
    ) -> None:
        self._privacy = privacy
        self._clock = clock
        self._config = config or ShardingConfig()
        self._cell_m = self._config.cell_m
        self._durable = durable
        self._wal_config = wal_config
        if durable:
            if data_dir is None:
                raise ValidationError("durable sharding requires a data_dir")
            self._data_dir: Optional[Path] = Path(data_dir)
            self._data_dir.mkdir(parents=True, exist_ok=True)
        else:
            self._data_dir = None
        #: topology lock: ingest/queries take read, rebalancing takes
        #: write — a shard can never disappear mid-request.
        self._topology = concurrency.make_rwlock()
        #: public, re-entrant: ``ingest_many`` holds it from ``_id``
        #: allocation through every shard sub-batch to the listeners, so
        #: listener order is ``_id`` order across concurrent callers —
        #: ``DataManager.ingest_lock``'s guarantee, fleet-wide. Also
        #: guards the routing counters. Lock order: topology (read) →
        #: this → shard ingest lock.
        self.ingest_lock = concurrency.make_rlock()
        self._next_id = 1
        self._ingest_listeners: List[
            Callable[[str, List[Tuple[Dict[str, Any], Any]]], None]
        ] = []
        self._routes: Dict[str, int] = {}
        self._fanout_queries = 0
        self._single_shard_batches = 0
        self._split_batches = 0
        #: rebalance counters: written under the topology write lock,
        #: so readers holding its read side need nothing more
        self._rebalance_moves = 0
        self._handoffs = 0
        self._repaired = 0
        self._shards: Dict[str, Shard] = {}
        names = self._discover_names()
        self._ring = HashRing(vnodes=self._config.vnodes)
        for name in names:
            self._shards[name] = self._build_shard(name)
            self._ring.add_node(name)
        self._advance_id_past_existing()
        #: the observations-collection and materialized-analytics
        #: surfaces the server wires into its analytics engine
        self.collection = ShardedObservations(self)
        self.materialized = MergedMaterialized(self)
        if durable:
            self._repair()

    # -- topology -------------------------------------------------------------

    def _discover_names(self) -> List[str]:
        """Durable topology is owned by the directory layout: a shard
        exists iff its directory does (created before any handoff write,
        so a crash mid-``add_shard`` recovers the *new* topology)."""
        if self._data_dir is not None:
            found = sorted(
                child.name
                for child in self._data_dir.iterdir()
                if child.is_dir() and not child.name.endswith(RETIRED_SUFFIX)
            )
            if found:
                return found
        return list(self._config.names)

    def _build_shard(self, name: str) -> Shard:
        """One shard's full stack, durable recovery included."""
        if self._data_dir is not None:
            # the directory is the durable topology record
            shard_dir = self._data_dir / name
            shard_dir.mkdir(parents=True, exist_ok=True)
            store = DocumentStore.recover(
                shard_dir,
                name=f"shard:{name}",
                clock=self._clock,
                config=self._wal_config,
            )
        else:
            store = DocumentStore(name=f"shard:{name}", clock=self._clock)
        return Shard(name, store, DataManager(store, self._privacy))

    def _advance_id_past_existing(self) -> None:
        top = 0
        for shard in self._shards.values():
            shard_top = shard.max_int_id()
            if shard_top > top:
                top = shard_top
        if self._next_id <= top:
            self._next_id = top + 1

    def _shards_snapshot(self) -> List[Shard]:
        with self._topology.read():
            return [self._shards[name] for name in sorted(self._shards)]

    @property
    def shards(self) -> Dict[str, Shard]:
        """Read-only view of the live shards (tests, stats)."""
        with self._topology.read():
            return dict(self._shards)

    @property
    def ring(self) -> HashRing:
        return self._ring

    def region_for(self, document: Dict[str, Any]) -> str:
        return region_of(document, self._cell_m)

    def shard_for(self, document: Dict[str, Any]) -> str:
        """Which shard owns ``document`` — deterministic placement."""
        with self._topology.read():
            return self._ring.node_for(self.region_for(document))

    def _shard(self, name: str) -> Shard:
        shard = self._shards.get(name)
        if shard is None:
            raise ValidationError(f"unknown shard {name!r}")
        return shard

    # -- ingest ---------------------------------------------------------------

    def add_ingest_listener(
        self,
        listener: Callable[[str, List[Tuple[Dict[str, Any], Any]]], None],
    ) -> None:
        """Register a stored-observation listener (the delta stream).

        ``DataManager.add_ingest_listener``'s contract:
        ``listener(app_id, [(document, stored_id), ...])`` runs under
        :attr:`ingest_lock`, once per call, for stored observations
        only — never for a deduplicated delivery — so listener order is
        ``_id`` order across the fleet. The documents are the
        router-held forms the ids were stamped on; the event projection
        is ingest-stable, so they project exactly like stored forms.
        """
        self._ingest_listeners.append(listener)

    @contextmanager
    def ingest_paused(self) -> Iterator[None]:
        """``DataManager.ingest_paused`` fleet-wide: the topology read
        side, then :attr:`ingest_lock` — the order ``ingest_many``
        takes them in, so a reader listing the shards inside cannot
        deadlock against a rebalance waiting for the write side."""
        with self._topology.read(), self.ingest_lock:
            yield

    def ingest(self, app_id: str, document: Dict[str, Any]) -> Any:
        """Route one observation to its region's shard: the batch of
        one. See :meth:`ingest_many`."""
        return self.ingest_many(app_id, [document])[0]

    def ingest_many(
        self, app_id: str, documents: List[Dict[str, Any]], owned: bool = False
    ) -> List[Optional[Any]]:
        """Split a batch by owning shard; results in input order.

        The router stamps globally monotonic ``_id``s (on shallow
        copies unless the batch is ``owned``) before the shards'
        DataManagers run, so ids are unique and ordered across the
        whole fleet. A deduplicated delivery burns its id — gaps are
        harmless, only the relative order matters. Ids are stamped in
        input order, so the stored pairs the listeners receive are
        already in ``_id`` order. The batch is validated whole before
        any shard stores a part of it.
        """
        validate_observations(documents)
        with self._topology.read(), self.ingest_lock:
            docs = documents if owned else [dict(doc) for doc in documents]
            start = self._next_id
            self._next_id += len(docs)
            buckets: Dict[str, Tuple[List[Dict[str, Any]], List[int]]] = {}
            for index, doc in enumerate(docs):
                doc["_id"] = start + index
                name = self._ring.node_for(self.region_for(doc))
                bucket = buckets.get(name)
                if bucket is None:
                    bucket = buckets[name] = ([], [])
                bucket[0].append(doc)
                bucket[1].append(index)
            for name, (sub, _) in buckets.items():
                self._routes[name] = self._routes.get(name, 0) + len(sub)
            if len(buckets) == 1:
                self._single_shard_batches += 1
            elif buckets:
                self._split_batches += 1
            results: List[Optional[Any]] = [None] * len(docs)
            for name in sorted(buckets):
                sub, slots = buckets[name]
                ids = self._shard(name).submit_ingest_many(app_id, sub, owned)
                for slot, doc_id in zip(slots, ids):
                    results[slot] = doc_id
            stored_pairs = [
                (doc, doc_id) for doc, doc_id in zip(docs, results) if doc_id is not None
            ]
            if stored_pairs:
                for listener in self._ingest_listeners:
                    listener(app_id, stored_pairs)
            return results

    # -- reads ----------------------------------------------------------------

    def scatter_aggregate(self, pipeline: List[Dict[str, Any]]) -> AggregationResult:
        """Scatter ``pipeline`` across shards and merge on the
        coordinator — each shard's partial group rows when the pipeline
        is fold-mergeable, central gather (in global ``_id`` order)
        otherwise."""
        with self._topology.read():
            plan = plan_scatter(pipeline)
            shards = [self._shards[name] for name in sorted(self._shards)]
            detail: Dict[str, Dict[str, Any]] = {}
            rows: Optional[List[Dict[str, Any]]] = None
            merge_kind = "partial_folds"
            if plan is not None:
                partials = [shard.submit_partial_fold(plan) for shard in shards]
                for shard, partial in zip(shards, partials):
                    detail[shard.name] = {
                        "strategy": partial.explain["strategy"],
                        "groups": len(partial),
                    }
                rows = plan.merge(partials)
            # not fold-mergeable, or a float fed a $sum/$avg (the merged
            # total would not be bit-identical to the sequential one):
            # gather documents and run the pipeline in global _id order
            if rows is None:
                merge_kind = "central"
                gathered: List[Dict[str, Any]] = []
                for shard in shards:
                    documents = shard.submit_documents()
                    detail[shard.name] = {"documents": len(documents)}
                    gathered.extend(documents)
                gathered.sort(key=global_order_key)
                rows = compile_pipeline(pipeline).run(gathered)
        with self.ingest_lock:
            self._fanout_queries += 1
        return AggregationResult(
            rows,
            {
                "strategy": "scattered",
                "pushdown": False,
                "candidates": None,
                "examined_share": None,
                "merge": merge_kind,
                "shards": detail,
            },
        )

    def retrieve(
        self,
        query: DataQuery,
        limit: Optional[int] = None,
        share_with_app: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Scatter the query, merge newest-first globally.

        Per-shard retrieval applies the same per-shard limit (the
        global top-L is a subset of the union of per-shard top-Ls),
        then the coordinator re-sorts over the global insertion order
        and re-applies the limit.
        """
        gathered: List[Dict[str, Any]] = []
        for shard in self._shards_snapshot():
            gathered.extend(
                shard.data.retrieve(query, limit=limit, share_with_app=share_with_app)
            )
        gathered.sort(key=global_order_key)
        gathered = sort_documents(gathered, [("taken_at", -1)])
        if limit is not None:
            gathered = gathered[:limit]
        return gathered

    def count(self, query: DataQuery) -> int:
        return sum(shard.data.count(query) for shard in self._shards_snapshot())

    def delete_contributor_data(self, app_id: str, user_id: str) -> int:
        """Erase on every shard, each leaving its tombstone. The ingest
        pause keeps a rebalance from adding a shard mid-erasure."""
        with self.ingest_paused():
            return sum(
                shard.data.delete_contributor_data(app_id, user_id)
                for shard in self._shards.values()
            )

    def dedup_info(self) -> Dict[str, int]:
        size = hits = 0
        for shard in self._shards_snapshot():
            info = shard.data.dedup_info()
            size += info["size"]
            hits += info["hits"]
        return {"size": size, "hits": hits}

    # -- coherent stats -------------------------------------------------------

    @property
    def ingested(self) -> int:
        """Observations stored, summed over the live shards."""
        return sum(shard.data.ingested for shard in self._shards_snapshot())

    @property
    def dedup_hits(self) -> int:
        """Redeliveries the shards' ``obs_id`` indexes collapsed."""
        return sum(shard.data.dedup_hits for shard in self._shards_snapshot())

    def reliability_snapshot(self) -> Dict[str, Any]:
        """``DataManager.reliability_snapshot`` under the router's
        ingest lock — every shard's counters and index move only inside
        it (or under the topology write lock), so the merged counters
        are as coherent as one shard's would be."""
        with self._topology.read(), self.ingest_lock:
            return {
                "ingested": self.ingested,
                "deduped": self.dedup_hits,
                "dedup_ledger": self.dedup_info(),
            }

    def sharding_stats(self) -> Dict[str, Any]:
        with self._topology.read(), self.ingest_lock:
            per_shard: Dict[str, Any] = {}
            for name in sorted(self._shards):
                shard = self._shards[name]
                per_shard[name] = {
                    "documents": len(shard.collection),
                    "ingested": shard.data.ingested,
                    "deduped": shard.data.dedup_hits,
                    "ledger": shard.data.dedup_info()["size"],
                }
            return {
                "enabled": True,
                "shards": per_shard,
                "ring": {"nodes": self._ring.nodes, "vnodes": self._ring.vnodes},
                "router": {
                    "routes": dict(self._routes),
                    "fanout_queries": self._fanout_queries,
                    "single_shard_batches": self._single_shard_batches,
                    "split_batches": self._split_batches,
                },
                "rebalance": {
                    "moves": self._rebalance_moves,
                    "handoffs": self._handoffs,
                    "repaired": self._repaired,
                },
            }

    # -- rebalancing ----------------------------------------------------------

    def add_shard(self, name: Optional[str] = None) -> Dict[str, Any]:
        """Grow the ring by one shard and hand it its key ranges.

        The new shard's directory (durable mode) is created *before*
        any handoff write, so a crash mid-handoff recovers into the new
        topology and the startup repair finishes the move.
        """
        with self._topology.write():
            if name is None:
                index = len(self._shards)
                while f"shard-{index:02d}" in self._shards:
                    index += 1
                name = f"shard-{index:02d}"
            validate_shard_name(name)
            if name in self._shards:
                raise ValidationError(f"shard name unavailable: {name!r}")
            self._shards[name] = self._build_shard(name)
            self._share_erasures()
            self._ring.add_node(name)
            moved = 0
            for src_name in sorted(self._shards):
                if src_name != name:
                    moved += self._handoff_misplaced(self._shards[src_name])
            self._rebalance_moves += moved
            self._handoffs += 1
            return {"shard": name, "moved": moved, "shards": sorted(self._shards)}

    def remove_shard(self, name: str) -> Dict[str, Any]:
        """Drain and retire one shard, handing every region it owned to
        the ring's remaining owners through the journaled path; the
        other shards hold its erasure tombstones already."""
        with self._topology.write():
            victim = self._shard(name)
            if len(self._shards) < 2:
                raise ValidationError("cannot remove the last shard")
            self._ring.remove_node(name)
            del self._shards[name]
            moved = self._handoff_misplaced(victim)
            victim.shutdown()
            if self._data_dir is not None:
                live = self._data_dir / name
                retired = self._data_dir / f"{name}{RETIRED_SUFFIX}"
                if live.exists():
                    live.rename(retired)
                    shutil.rmtree(retired, ignore_errors=True)
            self._rebalance_moves += moved
            self._handoffs += 1
            return {"shard": name, "moved": moved, "shards": sorted(self._shards)}

    def _handoff_misplaced(self, src: Shard) -> int:
        """Move every document on ``src`` whose region the ring now
        assigns elsewhere. Protocol, in never-lose order: journaled
        adopt on the destination, then journaled delete on the source.
        A crash between the two leaves a duplicate, which the startup
        repair resolves in the destination's favor."""
        by_dst: Dict[str, Dict[str, List[Dict[str, Any]]]] = {}
        for doc in src.collection.iter_documents():
            region = self.region_for(doc)
            owner = self._ring.node_for(region)
            if owner != src.name:
                by_dst.setdefault(owner, {}).setdefault(region, []).append(doc)
        moved = 0
        for dst_name in sorted(by_dst):
            regions = by_dst[dst_name]
            documents = [
                json_clone(doc)
                for region in sorted(regions)
                for doc in regions[region]
            ]
            self._shard(dst_name).data.adopt(documents)
            src.data.remove_documents([doc["_id"] for doc in documents])
            moved += len(documents)
        return moved

    def _share_erasures(self) -> None:
        """Give every shard the union of all shards' erasure tombstones
        — O(erasures), not O(documents)."""
        shards = list(self._shards.values())
        erased = set().union(*(shard.data.erasures() for shard in shards))
        if erased:
            for shard in shards:
                shard.data.record_erasures(sorted(erased))

    def _repair(self) -> None:
        """Idempotent startup repair after a crash mid-rebalance: every
        shard gets the fleet's erasure tombstones (a crash can cut an
        ``add_shard`` before its new shard learned them), and every
        document whose region routes elsewhere is finished moving (or,
        when the destination already adopted it, deleted here)."""
        with self._topology.write():
            self._share_erasures()
            moved = 0
            dst_ids: Dict[str, set] = {}

            def ids_of(shard: Shard) -> set:
                cached = dst_ids.get(shard.name)
                if cached is None:
                    cached = dst_ids[shard.name] = {
                        doc.get("_id") for doc in shard.collection.iter_documents()
                    }
                return cached

            for src_name in sorted(self._shards):
                src = self._shards[src_name]
                for doc in list(src.collection.iter_documents()):
                    region = self.region_for(doc)
                    owner = self._ring.node_for(region)
                    if owner == src_name:
                        continue
                    dst = self._shard(owner)
                    # unless the destination already adopted it (the
                    # crash hit between adopt and source delete)
                    if doc.get("_id") not in ids_of(dst):
                        dst.data.adopt([json_clone(doc)])
                        ids_of(dst).add(doc.get("_id"))
                    src.data.remove_documents([doc.get("_id")])
                    moved += 1
            self._repaired += moved

    # -- durability -----------------------------------------------------------

    def checkpoint(self) -> Dict[str, Any]:
        return {
            shard.name: shard.store.checkpoint()
            for shard in self._shards_snapshot()
        }

    def durability_info(self) -> Dict[str, Any]:
        return {
            "enabled": self._durable,
            "sharded": True,
            "shards": {
                shard.name: shard.store.durability_info()
                for shard in self._shards_snapshot()
            },
        }

    def close(self) -> None:
        for shard in self._shards_snapshot():
            shard.shutdown()
