"""The live subscription plane: continuous queries with backpressure.

One :class:`SubscriptionManager` per server. Registration installs a
standing :class:`~repro.streaming.filters.FilterSpec`; the data plane's
one ingest listener (``DataManager`` or ``ShardRouter``, fired under its
ingest lock) calls :meth:`SubscriptionManager.on_stored` with every
*stored* observation in ``_id`` order, and the manager fans matching
events out to per-subscriber bounded outboxes — the same drop-oldest
:class:`~repro.client.buffer.ObservationBuffer` machinery the phone
uses, pointed the other way.

Fan-out cost: live subscriptions sit in an index keyed ``(app or None,
region or None)`` — a spec naming k cells occupies k buckets, a
region-unfiltered one its app's wildcard bucket — so a stored
observation looks up at most four buckets and evaluates only the
residual predicate (datatype / model / ``taken_at`` window) on what
they hold: O(candidates), not O(subscribers). Each observation builds
one event (plus one tile event per built scope) that every recipient's
outbox references; a queued event is never mutated, and the only copies are
the per-poll ones :meth:`SubscriptionManager.next_events` hands out,
with the recipient's cursor stamped in. The cursor is not stored: an
outbox only ever loses its oldest entries, so what it holds is always
the contiguous run ending at ``next_cursor - 1``.

Isolation: subscription ids are sequential and therefore guessable, so
each subscription records the principal scope (``owner_app``,
``owner_user``) it was created under, and polls/deletes from any other
scope 404 exactly like a bogus id. Tile aggregates are scoped the same
way: an app-filtered subscription streams tiles folded from that app's
observations only (a per-app :class:`~repro.streaming.tiles.
TileDeltaEngine`), while the global scope (``None``) remains the
deliberate cross-app map surface for unscoped, in-process consumers.

Tiles fold only for their readers. No tile scope exists until its first
reader — a ``tiles_snapshot`` of it or a ``tiles=True`` subscription in
it — builds it from the store: one left fold over the data plane's
``collection.iter_documents()`` (global ``_id`` order on both
topologies) filtered to the scope's app, under the data plane's
``ingest_paused()`` so no stored-but-undelivered batch is counted
twice. From then on ``on_stored`` folds each delivered batch into the
built scopes it belongs to, and a write path with no tile reader folds
nothing at all. A built scope is kept (at most apps + 1 of them), so a
polled map never rescans.

One staleness rule, the write marker: each scope records
``collection.write_marker()`` when it is built and moves it forward
with every batch it is handed, and it may fold a batch only when the
live marker is exactly ``len(batch)`` inserts ahead
(:func:`~repro.docstore.collection.follows_inserts`, the rule behind
the ``Collection.inserted_since`` pull of ``MaterializedAnalytics`` and
the columnar mirror). Any other movement — contributor erasure, a
rebalance, a direct collection write, a drop, recovery replay —
drops the scope and its next reader rebuilds it; a scope with live tile
subscribers is rebuilt at once instead, from a store that already
holds the batch, so the batch is not folded again. A snapshot whose
scope's marker is not the live one rebuilds before it answers.

Event projection and privacy: a pushed observation event carries only
the ingest-stable projection ``{_id, region, app_id, datatype, model,
noise_dba, taken_at}`` — never the document body. The scrubbed
``user_id`` and the per-client ``obs_id`` stamp cannot leak because
they are never projected, and per-app private fields (stripped only at
*sharing* time) never enter an event either.

Backpressure, per subscriber (no head-of-line blocking — each
subscription owns its outbox and its cursor space):

1. the outbox is capacity-bounded; overflow drops the **oldest**
   undelivered event (freshest-data-wins, like the phone outbox);
2. a poll that lands after drops sees one ``lagged`` marker naming the
   missed cursor range, then resumes from what survived;
3. a subscriber that keeps overrunning — more than ``max_overruns``
   events dropped — is **evicted**: its outbox is discarded and polls
   report ``state == "evicted"`` until it unsubscribes.

Cursors are per-subscription, contiguous from 1, assigned under the
manager's lock at fan-out time: a drained stream is gap-free and
duplicate-free in cursor order, which is exactly what the soak legs
assert under 8-thread ingest.

Staleness model: events are stamped with the simulated clock
(``emitted_at``) *and* a wall clock (``emitted_wall``, ``time.
perf_counter`` by default). Tile staleness — the benchmark's p99 — is
measured wall-to-wall: drain time minus ``emitted_wall`` of the folded
tile delta.
"""

from __future__ import annotations

import itertools
import time
from contextlib import nullcontext
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro import concurrency
from repro.client.buffer import ObservationBuffer
from repro.core.errors import NotFoundError, ValidationError
from repro.docstore.collection import follows_inserts
from repro.sharding.region import DEFAULT_CELL_M, region_of
from repro.streaming.filters import FilterSpec, datatype_of
from repro.streaming.tiles import TileDeltaEngine

#: default per-subscriber outbox bound (events, not bytes)
DEFAULT_OUTBOX_CAPACITY = 1024
#: default dropped-event budget before a slow consumer is evicted
DEFAULT_MAX_OVERRUNS = 4096


def observation_event(
    document: Dict[str, Any], doc_id: Any, app_id: str, region: str
) -> Dict[str, Any]:
    """The push projection of one stored observation.

    Computable identically from the wire form and the stored form — the
    fields below are exactly the ones the ingest scrub never touches.
    """
    return {
        "kind": "observation",
        "_id": doc_id,
        "region": region,
        "app_id": app_id,
        "datatype": datatype_of(document),
        "model": document.get("model"),
        "noise_dba": document.get("noise_dba"),
        "taken_at": document.get("taken_at"),
    }


class Subscription:
    """One continuous query and its delivery state."""

    def __init__(
        self,
        sub_id: str,
        spec: FilterSpec,
        observations: bool,
        tiles: bool,
        capacity: Optional[int],
        max_overruns: Optional[int],
        owner_app: Optional[str] = None,
        owner_user: Optional[str] = None,
    ) -> None:
        self.sub_id = sub_id
        self.spec = spec
        self.observations = observations
        self.tiles = tiles
        self.capacity = capacity
        self.max_overruns = max_overruns
        #: principal scope stamped at subscribe time. Sub ids are
        #: guessable (sub-1, sub-2, ...), so possession of an id is not
        #: authorization: polls and deletes must come from the owning
        #: app (and, when recorded, the owning user) or they 404.
        self.owner_app = owner_app
        self.owner_user = owner_user
        #: queued events, oldest first — the very dicts every other
        #: recipient's outbox holds, so never mutated. Their cursors
        #: are positional: the run ending at ``next_cursor - 1``
        #: (see :attr:`front_cursor`). No per-entry wrapper — a
        #: ``(cursor, event)`` tuple per push would be a GC-tracked
        #: object per push, and full collections over a few hundred
        #: thousand of them showed as 20-30 ms ingest stalls.
        self.outbox = ObservationBuffer(capacity=capacity)
        #: next cursor to assign (cursors are contiguous from 1)
        self.next_cursor = 1
        #: highest cursor the consumer has acknowledged
        self.acked = 0
        self.state = "live"
        self.delivered = 0
        self.dropped = 0
        self.overruns = 0
        self.lagged_markers = 0
        self.polls = 0
        self._eviction_reported = False

    @property
    def front_cursor(self) -> int:
        """Cursor of the oldest queued event (``next_cursor`` when the
        outbox is empty): drops, acks and eviction only ever remove
        from the front, so the queue is a contiguous cursor run."""
        return self.next_cursor - len(self.outbox)

    def index_keys(self) -> List[Tuple[Optional[str], Optional[str]]]:
        """The fan-out index buckets this subscription's spec occupies:
        one per named region cell, the app's wildcard bucket when
        regions are unfiltered, none for an empty region set."""
        spec = self.spec
        if spec.regions is None:
            return [(spec.app_id, None)]
        return [(spec.app_id, region) for region in spec.regions]

    def info(self) -> Dict[str, Any]:
        """Observability snapshot (caller holds the manager lock)."""
        return {
            "state": self.state,
            "owner_app": self.owner_app,
            "pending": len(self.outbox),
            "acked": self.acked,
            "next_cursor": self.next_cursor,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "overruns": self.overruns,
            "lagged_markers": self.lagged_markers,
            "polls": self.polls,
            "capacity": self.capacity,
            "max_overruns": self.max_overruns,
        }


def _tiles_of(
    engine: TileDeltaEngine, region: Optional[str]
) -> Dict[str, Dict[str, Any]]:
    """Copies of one region's tile (``{}`` when unseen), or of all."""
    if region is None:
        return engine.snapshot()
    tile = engine.tile(region)
    return {} if tile is None else {region: tile}


class _TileScope:
    """One built tile scope: its engine and the collection write marker
    it is current at."""

    __slots__ = ("engine", "marker")

    def __init__(self, engine: TileDeltaEngine, marker: Tuple[int, int, int]) -> None:
        self.engine = engine
        self.marker = marker


class SubscriptionManager:
    """Registers continuous queries and fans stored observations out.

    Args:
        data: the data plane whose ingest listener feeds ``on_stored``
            (a ``DataManager`` or a ``ShardRouter``): tile scopes are
            built from its ``collection`` inside its
            ``ingest_paused()``. Without one there is no store, and
            tile reads and ``tiles=True`` subscriptions raise.
        clock: simulated-time source (event ``emitted_at`` stamps).
        wall_clock: real-time source for staleness measurement
            (``emitted_wall`` stamps); defaults to ``time.perf_counter``.
        cell_m: region grid cell size — must match the sharding
            layer's so a subscription's region filter and the router's
            placement speak the same keys.
        default_capacity: outbox bound when ``subscribe`` passes none.
        default_max_overruns: eviction budget when none is passed.

    Subscriptions are deliberately **transient** (never journaled): a
    recovered durable server starts with an empty manager, so a crash
    can never leave phantom cursors behind — consumers re-subscribe and
    stream post-recovery deltas only. Tiles are not state of their own:
    a scope is built from the (recovered) store at its first reader.
    """

    def __init__(
        self,
        data: Optional[Any] = None,
        clock: Optional[Callable[[], float]] = None,
        wall_clock: Optional[Callable[[], float]] = None,
        cell_m: float = DEFAULT_CELL_M,
        default_capacity: int = DEFAULT_OUTBOX_CAPACITY,
        default_max_overruns: int = DEFAULT_MAX_OVERRUNS,
    ) -> None:
        self._data = data
        self._clock = clock or (lambda: 0.0)
        self._wall = wall_clock or time.perf_counter
        self._cell_m = cell_m
        self._default_capacity = default_capacity
        self._default_max_overruns = default_max_overruns
        #: one lock covers the registry, every outbox, every cursor and
        #: the tile scopes: cursor assignment and outbox append must be
        #: atomic per event, or a drained stream shows gaps/duplicates.
        #: Taken after the data plane's ingest lock, never before.
        self._lock = concurrency.make_rlock()
        self._subs: Dict[str, Subscription] = {}
        #: the fan-out index: *live* subscriptions by ``(app or None,
        #: region or None)`` bucket (see ``Subscription.index_keys``).
        #: ``_subs`` keeps evicted entries for their marker poll and
        #: 404-free delete; the index — what ingest pays for — doesn't.
        self._index: Dict[
            Tuple[Optional[str], Optional[str]], Dict[str, Subscription]
        ] = {}
        self._live = 0
        self._ids = itertools.count(1)
        #: the built tile scopes: an app id (that app's observations
        #: only — what a subscription naming the app streams) or None
        #: (every app's: app-unscoped subscriptions and snapshots).
        #: Empty until a first reader; see the module docstring.
        self._scopes: Dict[Optional[str], _TileScope] = {}
        self._created = 0
        self._unsubscribed = 0
        self._evictions = 0
        self._fanned_out = 0
        #: subscriptions ``on_stored`` examined (bucket members) — the
        #: attempts ``fanned_out`` is the useful outcome of
        self._candidates = 0
        self._dropped = 0
        self._lagged = 0
        self._polls = 0

    @property
    def cell_m(self) -> float:
        """Region grid cell size the manager filters and tiles by."""
        return self._cell_m

    # -- registration --------------------------------------------------------

    def subscribe(
        self,
        spec: Optional[FilterSpec] = None,
        observations: bool = True,
        tiles: bool = False,
        capacity: Optional[int] = None,
        max_overruns: Optional[int] = None,
        owner_app: Optional[str] = None,
        owner_user: Optional[str] = None,
    ) -> str:
        """Register a continuous query; returns the subscription id.

        ``tiles=True`` makes it a reader of the tile scope its spec
        names (``spec.app_id``, None for the global one): the scope is
        built from the store first if it is not built and current.

        ``capacity``/``max_overruns``: per-subscriber backpressure
        knobs; None takes the manager defaults, 0 ``max_overruns``
        disables eviction (drop-oldest forever).

        ``owner_app``/``owner_user``: the principal scope recorded on
        the subscription — the REST layer always passes both, and
        ``next_events``/``unsubscribe`` then 404 any caller whose path
        app or authenticated user doesn't match. In-process callers may
        leave them None (an unowned subscription skips the check).
        """
        if not observations and not tiles:
            raise ValidationError(
                "subscription must request observations, tiles, or both"
            )
        if capacity is not None and capacity < 1:
            raise ValidationError(f"capacity must be >= 1, got {capacity}")
        if max_overruns is not None and max_overruns < 0:
            raise ValidationError(
                f"max_overruns must be >= 0, got {max_overruns}"
            )
        if capacity is None:
            capacity = self._default_capacity
        if max_overruns is None:
            max_overruns = self._default_max_overruns
        spec = spec or FilterSpec()
        # a tile subscription's scope is built (or made current) in the
        # same critical section that registers it: no batch slips in
        # between, and a scope with tile subscribers always exists
        paused = self._plane().ingest_paused() if tiles else nullcontext()
        with paused, self._lock:
            if tiles:
                self._current_scope(spec.app_id)
            sub_id = f"sub-{next(self._ids)}"
            sub = self._subs[sub_id] = Subscription(
                sub_id,
                spec,
                observations,
                tiles,
                capacity,
                max_overruns,
                owner_app=owner_app,
                owner_user=owner_user,
            )
            for key in sub.index_keys():
                self._index.setdefault(key, {})[sub_id] = sub
            self._live += 1
            self._created += 1
            return sub_id

    def _unindex(self, sub: Subscription) -> None:
        """Take a live subscription out of the fan-out index (caller
        holds the lock): ingest stops paying for it from here on."""
        for key in sub.index_keys():
            bucket = self._index[key]
            del bucket[sub.sub_id]
            if not bucket:
                del self._index[key]
        self._live -= 1

    def _checked(
        self,
        sub_id: str,
        app_id: Optional[str],
        user_id: Optional[str],
    ) -> Subscription:
        """Look a subscription up, enforcing principal scope.

        Caller holds the manager lock. An owned subscription is only
        visible to its owning app (and owning user, when one was
        recorded); a mismatch raises the same :class:`NotFoundError` a
        bogus id does, so a prober can't distinguish "not yours" from
        "doesn't exist". ``None`` check values skip that dimension —
        the trusted in-process surface.
        """
        sub = self._subs.get(sub_id)
        if sub is not None:
            if (
                sub.owner_app is not None
                and app_id is not None
                and app_id != sub.owner_app
            ):
                sub = None
            elif (
                sub.owner_user is not None
                and user_id is not None
                and user_id != sub.owner_user
            ):
                sub = None
        if sub is None:
            raise NotFoundError(f"unknown subscription {sub_id!r}")
        return sub

    def unsubscribe(
        self,
        sub_id: str,
        app_id: Optional[str] = None,
        user_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Remove a subscription (evicted ones included).

        ``app_id``/``user_id``: the caller's scope — an owned
        subscription 404s unless they match its owner.
        """
        with self._lock:
            sub = self._checked(sub_id, app_id, user_id)
            del self._subs[sub_id]
            if sub.state == "live":
                self._unindex(sub)
            self._unsubscribed += 1
            return {"removed": True, "state": sub.state}

    def get(self, sub_id: str) -> Subscription:
        """The live subscription object (tests, observability)."""
        with self._lock:
            sub = self._subs.get(sub_id)
            if sub is None:
                raise NotFoundError(f"unknown subscription {sub_id!r}")
            return sub

    # -- ingest-side fan-out -------------------------------------------------

    def on_stored(
        self, app_id: str, pairs: List[Tuple[Dict[str, Any], Any]]
    ) -> None:
        """Fan freshly stored observations out to matching outboxes.

        ``pairs`` are ``(document, stored_id)`` in insertion order —
        ``DataManager`` passes stored forms, ``ShardRouter`` the forms
        it stamped the ids on; the event projection is identical either
        way. The whole fan-out runs under the manager lock so
        per-subscription cursors stay contiguous.

        With no live subscription and no built tile scope it returns at
        once: a write path nobody reads pays one lock. Otherwise, per
        observation: ``region_of``, one in-place tile fold per built
        scope it belongs to (its app's, the global one), at most four
        index lookups — ``(app, region)``, ``(app, None)``, ``(None,
        region)``, ``(None, None)`` — and the residual predicate on the
        candidates those buckets hold. With no candidate, no event is
        built at all.

        Tile scoping: a subscription whose spec names an app (every
        REST subscription — ``FilterSpec.from_body`` forces the path
        app in) streams that app's scope, so its aggregates carry that
        app's data only; an app-unscoped spec streams the global scope.
        Before folding, every built scope checks the write marker (see
        :meth:`_advance_scopes`).
        """
        with self._lock:
            index = self._index
            scopes = self._scopes
            if not index and not scopes:
                return
            rebuilt = self._advance_scopes(len(pairs)) if scopes else ()
            #: (scope, engine or None, fold the batch into it?)
            targets = []
            for scope in (app_id, None):
                state = scopes.get(scope)
                engine = None if state is None else state.engine
                targets.append((scope, engine, scope not in rebuilt))
            if not index and targets[0][1] is None and targets[1][1] is None:
                return
            emitted_at = self._clock()
            emitted_wall = self._wall()
            cell_m = self._cell_m
            for document, doc_id in pairs:
                region = region_of(document, cell_m)
                #: built on first use, then shared by every recipient
                event: Optional[Dict[str, Any]] = None
                # a subscription sits in at most one of these four
                # buckets (one app key; wildcard *or* named regions),
                # so no candidate is visited twice
                for scope, engine, fold in targets:
                    if engine is None:
                        tile = None
                    elif fold:
                        tile = engine.observe(document, region)
                    else:
                        # rebuilt from a store that holds the batch
                        tile = engine.tile(region)
                    tile_event: Optional[Dict[str, Any]] = None
                    for key in ((scope, region), (scope, None)):
                        bucket = index.get(key)
                        if bucket is None:
                            continue
                        self._candidates += len(bucket)
                        evictions = self._evictions
                        for sub in bucket.values():
                            if sub.observations and sub.spec.matches_fields(
                                document
                            ):
                                if event is None:
                                    event = observation_event(
                                        document, doc_id, app_id, region
                                    )
                                    event["emitted_at"] = emitted_at
                                    event["emitted_wall"] = emitted_wall
                                self._push(sub, event)
                            if (
                                sub.tiles
                                and tile is not None
                                and sub.state == "live"
                            ):
                                if tile_event is None:
                                    tile_event = {
                                        "kind": "tile",
                                        "region": region,
                                        **tile,
                                        "emitted_at": emitted_at,
                                        "emitted_wall": emitted_wall,
                                    }
                                self._push(sub, tile_event)
                        if self._evictions != evictions:
                            # deferred to here: a bucket can't shrink
                            # while it is being iterated
                            for sub in [
                                sub
                                for sub in bucket.values()
                                if sub.state != "live"
                            ]:
                                self._unindex(sub)

    # -- tile scopes ---------------------------------------------------------

    def _plane(self) -> Any:
        """The data plane tile scopes are built from."""
        if self._data is None:
            raise RuntimeError(
                "tile scopes are built from the store: this manager "
                "was given no data plane"
            )
        return self._data

    def _build(self, scope: Optional[str]) -> _TileScope:
        """Fold ``scope`` from the store and keep it (caller holds the
        data plane's ingest lock, then the manager lock, so every
        stored batch has been delivered and none is half-way).

        One pass over the collection in global ``_id`` order, filtered
        to the scope's app: the same left fold as the recompute. The
        marker and the listing come from one atomic look, so a delete
        landing in between cannot be missed.
        """
        collection = self._plane().collection
        with collection.read_locked():
            marker = collection.write_marker()
            documents = collection.iter_documents()
        if scope is not None:
            documents = [doc for doc in documents if doc.get("app_id") == scope]
        state = self._scopes[scope] = _TileScope(
            TileDeltaEngine.from_documents(documents, self._cell_m), marker
        )
        return state

    def _current_scope(self, scope: Optional[str]) -> _TileScope:
        """``scope`` built and current at the live marker (caller holds
        the data plane's ingest lock, then the manager lock: no batch is
        in flight, so a marker that moved means writes the scope was
        never handed)."""
        state = self._scopes.get(scope)
        if state is None or not follows_inserts(
            state.marker, self._plane().collection.write_marker(), 0
        ):
            state = self._build(scope)
        return state

    def _advance_scopes(self, inserted: int) -> Set[Optional[str]]:
        """Move every built scope past a just-stored batch of
        ``inserted`` (caller holds the manager lock, inside the data
        plane's ingest lock).

        A scope the live marker follows by exactly the batch advances
        and folds it. Any other movement drops the scope for its next
        reader to rebuild — unless it has live tile subscribers, then
        it is rebuilt here, from a store that already holds the batch.
        Returns the scopes rebuilt: they must not fold the batch again.
        """
        live = self._data.collection.write_marker()
        rebuilt: Set[Optional[str]] = set()
        for scope, state in list(self._scopes.items()):
            if follows_inserts(state.marker, live, inserted):
                state.marker = live
            elif self._has_tile_subscribers(scope):
                self._build(scope)
                rebuilt.add(scope)
            else:
                del self._scopes[scope]
        return rebuilt

    def _has_tile_subscribers(self, scope: Optional[str]) -> bool:
        """Whether a live subscription streams ``scope``'s tiles."""
        return any(
            sub.tiles
            for (app_id, _), bucket in self._index.items()
            if app_id == scope
            for sub in bucket.values()
        )

    def _push(self, sub: Subscription, event: Dict[str, Any]) -> None:
        """Queue ``event`` under the next cursor; applies the drop
        policy. The outbox references the shared event — no copy."""
        sub.next_cursor += 1
        sub.delivered += 1
        self._fanned_out += 1
        dropped = sub.outbox.push(event)
        if dropped:
            sub.dropped += len(dropped)
            sub.overruns += len(dropped)
            self._dropped += len(dropped)
            if sub.max_overruns and sub.overruns >= sub.max_overruns:
                # the slow consumer exhausted its budget: discard the
                # outbox (those events were never going to be drained
                # in time anyway); ``on_stored`` drops it from the
                # index so ingest stops paying for it.
                sub.state = "evicted"
                sub.outbox.drain()
                self._evictions += 1

    # -- consumer side -------------------------------------------------------

    def next_events(
        self,
        sub_id: str,
        ack: Optional[int] = None,
        limit: int = 100,
        app_id: Optional[str] = None,
        user_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Long-poll surface: acknowledge up to ``ack``, return what's
        pending past it (at-least-once — unacked events are re-served).

        The response's ``events`` may start with a ``lagged`` marker
        when backpressure dropped events since the last poll; ``cursor``
        is the ack value that acknowledges everything returned.
        Returned events are copies — mutating them never corrupts the
        queued originals that an unacked re-poll will serve again.

        ``app_id``/``user_id``: the caller's scope — an owned
        subscription 404s unless they match its owner.
        """
        if limit < 1:
            raise ValidationError(f"limit must be >= 1, got {limit}")
        with self._lock:
            sub = self._checked(sub_id, app_id, user_id)
            sub.polls += 1
            self._polls += 1
            if ack is not None:
                if ack < 0:
                    raise ValidationError(f"ack must be >= 0, got {ack}")
                sub.acked = min(max(sub.acked, ack), sub.next_cursor - 1)
                sub.outbox.pop_oldest(sub.acked - sub.front_cursor + 1)
            if sub.state == "evicted":
                events: List[Dict[str, Any]] = []
                if not sub._eviction_reported:
                    sub._eviction_reported = True
                    events.append(
                        {"kind": "evicted", "overruns": sub.overruns}
                    )
                return {
                    "subscription_id": sub_id,
                    "state": "evicted",
                    "events": events,
                    "cursor": sub.acked,
                    "pending": 0,
                }
            # everything still queued is past ``acked`` (acks pop their
            # prefix), so a poll costs O(limit), not O(outbox depth)
            front = sub.front_cursor
            head = sub.outbox.peek(limit)
            events = []
            if front > sub.acked + 1:
                # the drop-oldest policy consumed the gap: surface it
                # once, then resume from the oldest surviving event.
                events.append(
                    {
                        "kind": "lagged",
                        "missed_from": sub.acked + 1,
                        "missed_to": front - 1,
                        "missed": front - 1 - sub.acked,
                    }
                )
                sub.acked = front - 1
                sub.lagged_markers += 1
                self._lagged += 1
            events.extend(
                {**event, "cursor": cursor}
                for cursor, event in enumerate(head, front)
            )
            return {
                "subscription_id": sub_id,
                "state": sub.state,
                "events": events,
                # nothing returned -> nothing new to ack: ``acked``
                # is ``front - 1`` by now
                "cursor": front + len(head) - 1,
                "pending": len(sub.outbox) - len(head),
            }

    # -- map surface ---------------------------------------------------------

    def tiles_snapshot(
        self,
        region: Optional[str] = None,
        app_id: Optional[str] = None,
    ) -> Dict[str, Dict[str, Any]]:
        """Current live-map tile state (one region, or all of them).

        ``app_id`` selects that app's scope — aggregates over its
        observations only; ``None`` is the global map. The first read
        of a scope builds it from the store; later reads serve the kept
        scope while its marker is the live one, and rebuild it first
        when writes it was not handed (an erasure, a rebalance) moved
        the marker. Either way the answer equals
        ``tiles_from_documents`` over the scope's stored documents.
        """
        live = self._plane().collection.write_marker()
        with self._lock:
            state = self._scopes.get(app_id)
            if state is not None and follows_inserts(state.marker, live, 0):
                return _tiles_of(state.engine, region)
        with self._data.ingest_paused(), self._lock:
            return _tiles_of(self._current_scope(app_id).engine, region)

    # -- observability -------------------------------------------------------

    def subscription_info(self, sub_id: str) -> Dict[str, Any]:
        with self._lock:
            sub = self._subs.get(sub_id)
            if sub is None:
                raise NotFoundError(f"unknown subscription {sub_id!r}")
            return sub.info()

    def stats(self) -> Dict[str, Any]:
        """The ``middleware_stats()["streaming"]`` section."""
        with self._lock:
            return {
                "subscriptions": self._live,
                "created": self._created,
                "unsubscribed": self._unsubscribed,
                "evicted": self._evictions,
                "fanned_out": self._fanned_out,
                "candidates": self._candidates,
                "dropped": self._dropped,
                "lagged_markers": self._lagged,
                "polls": self._polls,
                # built scopes only: tiles held, folds made (build
                # passes included) and app scopes built
                "tiles": {
                    "regions": sum(len(t.engine) for t in self._scopes.values()),
                    "deltas": sum(t.engine.deltas for t in self._scopes.values()),
                    "app_engines": sum(1 for scope in self._scopes if scope is not None),
                },
            }
