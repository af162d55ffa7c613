"""The document store: a namespace of collections.

Mirrors a single MongoDB database. GoFlow owns one store and keeps one
collection per concern (observations, accounts, jobs, analytics,
calibration), exactly like the paper's "Data storage stores/deletes
individual crowd-sensed messages as well as accounts, jobs and analytics
information".

Durability is opt-in: a store recovered via :meth:`DocumentStore.recover`
(or handed a journal with :meth:`attach_journal`) journals every
collection mutation into an append-only write-ahead log *before*
applying it, and can be rebuilt — snapshot plus log replay — after a
kill -9. See :mod:`repro.docstore.wal`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Union

from repro import concurrency
from repro.docstore.collection import Collection
from repro.docstore.errors import DocStoreError


class DocumentStore:
    """A named set of collections, created lazily on first access."""

    def __init__(
        self, name: str = "goflow", clock: Optional[Callable[[], float]] = None
    ) -> None:
        if not name:
            raise DocStoreError("store name must be non-empty")
        self.name = name
        self._clock = clock
        self._collections: Dict[str, Collection] = {}
        self._lock = concurrency.make_rlock()
        #: write-ahead log shared by every collection (None = in-memory)
        self._journal: Optional[Any] = None

    # -- durability -----------------------------------------------------------

    @classmethod
    def recover(
        cls,
        directory: Union[str, "Path"],
        name: str = "goflow",
        clock: Optional[Callable[[], float]] = None,
        config: Optional[Any] = None,
    ) -> "DocumentStore":
        """Open (or create) a durable store rooted at ``directory``.

        Replays the latest snapshot plus every surviving write-ahead-log
        record — idempotently, truncating at the first torn record —
        then attaches a live journal so subsequent writes keep being
        logged.

        Args:
            directory: data directory; created when absent.
            name: store name for a fresh (empty) directory.
            clock: passed through to collections.
            config: a :class:`repro.docstore.wal.WalConfig` (defaults
                apply when None).
        """
        from repro.docstore.wal import recover_store

        return recover_store(directory, name=name, clock=clock, config=config)

    def attach_journal(self, journal: Optional[Any]) -> None:
        """Attach ``journal`` to this store and every collection."""
        with self._lock:
            self._journal = journal
            for collection in self._collections.values():
                collection.attach_journal(journal)

    @property
    def journal(self) -> Optional[Any]:
        """The attached write-ahead log, or None for in-memory stores."""
        return self._journal

    def checkpoint(self) -> int:
        """Compact the write-ahead log into a fresh snapshot.

        Returns the number of documents in the snapshot. Raises for
        in-memory stores (there is nothing to checkpoint).
        """
        journal = self._journal
        if journal is None:
            raise DocStoreError(f"store {self.name!r} has no write-ahead log")
        return journal.checkpoint()

    def sync(self) -> None:
        """Force the journal to disk (no-op for in-memory stores)."""
        if self._journal is not None:
            self._journal.sync()

    def durability_info(self) -> Dict[str, Any]:
        """Journal health for ``middleware_stats()``; safe without one."""
        if self._journal is None:
            return {"enabled": False}
        return self._journal.info()

    # -- collections ----------------------------------------------------------

    def collection(self, name: str) -> Collection:
        """The collection named ``name``, creating it if needed.

        Creation is serialized so two threads racing on a new name get
        the same Collection object, never two half-populated twins.
        """
        with self._lock:
            coll = self._collections.get(name)
            if coll is None:
                coll = Collection(name, clock=self._clock, journal=self._journal)
                self._collections[name] = coll
            return coll

    def __getitem__(self, name: str) -> Collection:
        return self.collection(name)

    def has_collection(self, name: str) -> bool:
        """Whether ``name`` has been created."""
        with self._lock:
            return name in self._collections

    def collection_names(self) -> List[str]:
        """Names of existing collections."""
        with self._lock:
            return sorted(self._collections)

    def drop_collection(self, name: str) -> None:
        """Delete a collection and its documents."""
        with self._lock:
            if name not in self._collections:
                raise DocStoreError(f"unknown collection {name!r}")
            if self._journal is not None:
                self._journal.log({"op": "drop_collection", "c": name})
            del self._collections[name]

    def total_documents(self) -> int:
        """Documents across all collections."""
        with self._lock:
            collections = list(self._collections.values())
        return sum(len(c) for c in collections)

    def __repr__(self) -> str:
        return f"DocumentStore({self.name!r}, collections={len(self._collections)})"
