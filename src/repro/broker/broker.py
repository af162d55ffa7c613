"""The broker: the registry of exchanges, queues, and connections.

This is the process-wide object GoFlow's channel management talks to. It
exposes AMQP-style declaration verbs (idempotent redeclaration with
matching arguments, error on mismatch — like RabbitMQ's PRECONDITION
FAILED) plus routing statistics used by the middleware-throughput bench.

The publish hot path keeps a **route-plan cache**: the resolved queue
list of ``(exchange, routing_key)`` covering the full transitive
exchange-to-exchange traversal of Figure 3. Entries carry the topology
version at which they were computed; any bind/unbind/declare/delete
bumps the version, so stale plans are never served. The cache is a
bounded LRU: per-user routing keys (``Z*-0.NoiseObservation`` at
23M-observation scale) can be unbounded in number, cached plans cannot.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro import concurrency
from repro.broker.errors import BrokerError, ExchangeError, QueueError
from repro.broker.exchange import Exchange, ExchangeType
from repro.broker.faults import FaultInjector
from repro.broker.message import Message
from repro.broker.queue import MessageQueue
from repro.broker.connection import Connection

#: Default bound on cached route plans.
DEFAULT_ROUTE_CACHE_SIZE = 4096


@dataclass
class BrokerStats:
    """Lifetime broker counters."""

    publishes: int = 0
    routed: int = 0
    unroutable: int = 0
    connections_opened: int = 0
    route_cache_hits: int = 0
    route_cache_misses: int = 0
    topic_cache_hits: int = 0
    topic_cache_misses: int = 0


class Broker:
    """An in-process AMQP-style broker.

    Args:
        clock: optional zero-argument callable returning simulated time;
            defaults to a constant 0.0 so the broker also works outside a
            simulation.
        route_cache_size: LRU bound on the route-plan cache (``<= 0``
            disables route-plan caching entirely).
        faults: optional :class:`~repro.broker.faults.FaultInjector`;
            may also be installed after construction with
            :meth:`install_faults`.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        route_cache_size: int = DEFAULT_ROUTE_CACHE_SIZE,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self._clock = clock or (lambda: 0.0)
        # one topology lock covers exchanges, bindings, the route-plan
        # cache, connections and the delayed-delivery list. It is NEVER
        # held while a queue is enqueued into (lock hierarchy: broker
        # before queue never happens; queue -> broker does, via DLX
        # republish from a dispatch callback).
        self._lock = concurrency.make_rlock()
        self._exchanges: Dict[str, Exchange] = {}
        self._queues: Dict[str, MessageQueue] = {}
        self._connections: Dict[str, Connection] = {}
        self._connection_ids = itertools.count(1)
        self.faults = faults
        self._delayed: List[Tuple[List[MessageQueue], Message, float]] = []
        self.stats = BrokerStats()
        self._route_cache_size = route_cache_size
        self._route_cache: "OrderedDict[Tuple[str, str], Tuple[int, List[MessageQueue]]]" = (
            OrderedDict()
        )
        self._topology_version = 0
        # the default (nameless) direct exchange routes straight to the
        # queue whose name equals the routing key, like AMQP's "".
        self._default_exchange = self._new_exchange("(default)", ExchangeType.DIRECT)

    def now(self) -> float:
        """Current simulated time according to the broker's clock."""
        return self._clock()

    # -- fault injection -------------------------------------------------------

    def install_faults(self, injector: Optional[FaultInjector]) -> None:
        """Activate (or, with None, deactivate) fault injection.

        Deactivating releases any still-held delayed deliveries so no
        message is stranded.
        """
        if injector is None:
            self.release_delayed(force=True)
        self.faults = injector

    def release_delayed(self, force: bool = False) -> int:
        """Enqueue delayed deliveries whose hold expired; returns count.

        Called automatically on every publish; call with ``force=True``
        to drain everything regardless of release time (e.g. at the end
        of a simulation).
        """
        with self._lock:
            if not self._delayed:
                return 0
            now = self._clock()
            still_held = []
            releasable = []
            for entry in self._delayed:
                if force or entry[2] <= now:
                    releasable.append(entry)
                else:
                    still_held.append(entry)
            self._delayed = still_held
        # enqueue outside the broker lock: dispatch callbacks run under
        # the queue lock and may publish back into the broker.
        for queues, message, _ in releasable:
            for queue in queues:
                queue.enqueue(message)
        return len(releasable)

    @property
    def delayed_count(self) -> int:
        """Deliveries currently held back by the fault injector."""
        with self._lock:
            return len(self._delayed)

    # -- topology versioning -------------------------------------------------

    def _new_exchange(
        self, name: str, type: ExchangeType, durable: bool = True
    ) -> Exchange:
        exchange = Exchange(
            name, type, durable=durable, stats=self.stats, lock=self._lock
        )
        exchange._on_change = self._bump_topology
        return exchange

    def _bump_topology(self) -> None:
        """Invalidate every cached route plan (lazily, via the version)."""
        with self._lock:
            self._topology_version += 1

    @property
    def topology_version(self) -> int:
        """Monotone counter bumped on any bind/unbind/declare/delete."""
        with self._lock:
            return self._topology_version

    def route_cache_info(self) -> Dict[str, int]:
        """Observability snapshot of the route-plan cache."""
        with self._lock:
            return {
                "size": len(self._route_cache),
                "capacity": self._route_cache_size,
                "hits": self.stats.route_cache_hits,
                "misses": self.stats.route_cache_misses,
                "topology_version": self._topology_version,
            }

    def stats_snapshot(self) -> BrokerStats:
        """A coherent copy of the lifetime counters."""
        with self._lock:
            return replace(self.stats)

    # -- declaration ---------------------------------------------------------

    def declare_exchange(
        self, name: str, type: ExchangeType, durable: bool = True
    ) -> Exchange:
        """Declare an exchange; idempotent when arguments match."""
        with self._lock:
            existing = self._exchanges.get(name)
            if existing is not None:
                if existing.type is not type:
                    raise ExchangeError(
                        f"exchange {name!r} already declared as {existing.type.value}, "
                        f"cannot redeclare as {type.value}"
                    )
                return existing
            exchange = self._new_exchange(name, type, durable=durable)
            self._exchanges[name] = exchange
            self._bump_topology()
            return exchange

    def declare_queue(
        self,
        name: str,
        max_length: Optional[int] = None,
        message_ttl_s: Optional[float] = None,
        dead_letter_exchange: Optional[str] = None,
    ) -> MessageQueue:
        """Declare a queue; idempotent when arguments match.

        ``dead_letter_exchange`` names an exchange that receives every
        message this queue drops (TTL expiry, overflow, requeue-less
        rejection); the drop reason travels in the ``x-death`` header.
        """
        with self._lock:
            existing = self._queues.get(name)
            if existing is not None:
                if (
                    existing.max_length != max_length
                    or existing.message_ttl_s != message_ttl_s
                ):
                    raise QueueError(
                        f"queue {name!r} already declared with different "
                        "arguments; cannot redeclare"
                    )
                return existing
            dead_letter = None
            if dead_letter_exchange is not None:
                if dead_letter_exchange == name:
                    raise QueueError("a queue cannot dead-letter to itself")

                def dead_letter(message: Message, reason: str) -> None:
                    if not self.has_exchange(dead_letter_exchange):
                        return  # DLX deleted; drops become silent, like AMQP
                    forwarded = message.copy_with(
                        headers={**message.headers, "x-death": reason}
                    )
                    self.publish(dead_letter_exchange, forwarded)

            queue = MessageQueue(
                name,
                max_length=max_length,
                clock=self._clock,
                message_ttl_s=message_ttl_s,
                dead_letter=dead_letter,
            )
            self._queues[name] = queue
            # implicit binding on the default exchange by queue name
            self._default_exchange.bind(queue, key=name)
            return queue

    def delete_exchange(self, name: str) -> None:
        """Delete an exchange and every binding referencing it.

        Other exchanges' bindings into the deleted exchange are swept so
        no publish keeps flowing through a dead hop.
        """
        with self._lock:
            if name not in self._exchanges:
                raise ExchangeError(f"unknown exchange {name!r}")
            del self._exchanges[name]
            for other in self._exchanges.values():
                other._drop_destination("exchange", name)
            self._bump_topology()

    def delete_queue(self, name: str) -> int:
        """Delete a queue; returns the number of ready messages dropped.

        Every binding referencing the queue — the implicit default-
        exchange binding and any explicit ones in other exchanges — is
        removed, so a deleted queue can never receive routed messages.
        A publish racing the delete may still reach the queue's ready
        list before the purge; those messages are dropped with it.
        """
        with self._lock:
            queue = self._queues.pop(name, None)
            if queue is None:
                raise QueueError(f"unknown queue {name!r}")
            self._default_exchange._drop_destination("queue", name)
            for exchange in self._exchanges.values():
                exchange._drop_destination("queue", name)
            self._bump_topology()
        # purge outside the broker lock: it takes the queue lock, and a
        # dispatch callback holding that lock may be publishing here.
        return queue.purge()

    # -- lookup ------------------------------------------------------------------

    def get_exchange(self, name: str) -> Exchange:
        """The exchange named ``name`` ('' for the default exchange)."""
        if name == "":
            return self._default_exchange
        with self._lock:
            exchange = self._exchanges.get(name)
        if exchange is None:
            raise ExchangeError(f"unknown exchange {name!r}")
        return exchange

    def get_queue(self, name: str) -> MessageQueue:
        """The queue named ``name``."""
        with self._lock:
            queue = self._queues.get(name)
        if queue is None:
            raise QueueError(f"unknown queue {name!r}")
        return queue

    def has_exchange(self, name: str) -> bool:
        """Whether an exchange named ``name`` exists."""
        with self._lock:
            return name in self._exchanges

    def has_queue(self, name: str) -> bool:
        """Whether a queue named ``name`` exists."""
        with self._lock:
            return name in self._queues

    def exchange_names(self) -> List[str]:
        """Names of all declared exchanges."""
        with self._lock:
            return list(self._exchanges)

    def queue_names(self) -> List[str]:
        """Names of all declared queues."""
        with self._lock:
            return list(self._queues)

    # -- binding ----------------------------------------------------------------

    def bind_queue(self, exchange: str, queue: str, key: str = "") -> None:
        """Bind ``queue`` to ``exchange`` with binding ``key``."""
        self.get_exchange(exchange).bind(self.get_queue(queue), key=key)

    def bind_exchange(self, source: str, destination: str, key: str = "") -> None:
        """Bind exchange ``destination`` to exchange ``source``."""
        self.get_exchange(source).bind(self.get_exchange(destination), key=key)

    def unbind_queue(self, exchange: str, queue: str, key: str = "") -> None:
        """Remove a queue binding."""
        self.get_exchange(exchange).unbind(self.get_queue(queue), key=key)

    def unbind_exchange(self, source: str, destination: str, key: str = "") -> None:
        """Remove an exchange-to-exchange binding."""
        self.get_exchange(source).unbind(self.get_exchange(destination), key=key)

    # -- publish ------------------------------------------------------------------

    def publish(self, exchange: str, message: Message) -> int:
        """Route ``message`` through ``exchange``; returns queues reached.

        Route resolution is served from the route-plan cache when the
        topology has not changed since the plan was computed; otherwise
        the exchange graph is walked once and the plan is (re)cached.

        With a fault injector installed, queue dispatch itself can
        misbehave: a routed message may be enqueued twice (duplicate
        delivery) or held back for a while (delayed delivery). Both
        count as *routed* — the broker took responsibility — which is
        exactly why the ingest side needs idempotence.
        """
        faults = self.faults
        if faults is not None:
            self.release_delayed()
        duplicate = False
        with self._lock:
            target = self.get_exchange(exchange)
            cache = self._route_cache
            cache_key = (exchange, message.routing_key)
            entry = cache.get(cache_key)
            if entry is not None and entry[0] == self._topology_version:
                cache.move_to_end(cache_key)
                queues = entry[1]
                target.published += 1
                self.stats.route_cache_hits += 1
            else:
                queues = target.route(message)
                self.stats.route_cache_misses += 1
                if self._route_cache_size > 0:
                    cache[cache_key] = (self._topology_version, queues)
                    if len(cache) > self._route_cache_size:
                        cache.popitem(last=False)
            self.stats.publishes += 1
            if queues:
                self.stats.routed += 1
            else:
                self.stats.unroutable += 1
            if faults is not None and queues:
                delay = faults.delay_delivery()
                if delay is not None:
                    self._delayed.append(
                        (list(queues), message, self._clock() + delay)
                    )
                    return len(queues)
                duplicate = faults.duplicate_delivery()
        # dispatch outside the broker lock: consumer callbacks run under
        # the queue lock and may publish back into this broker.
        for queue in queues:
            queue.enqueue(message)
            if duplicate:
                queue.enqueue(message.copy_with())
        return len(queues)

    # -- connections ------------------------------------------------------------------

    def connect(self, client_id: Optional[str] = None) -> Connection:
        """Open a connection for ``client_id`` (auto-generated if omitted)."""
        connection_id = client_id or f"conn-{next(self._connection_ids)}"
        with self._lock:
            if self.faults is not None and self.faults.refuse_connect():
                raise BrokerError(f"injected connect refusal for {connection_id!r}")
            if connection_id in self._connections:
                raise BrokerError(f"connection {connection_id!r} already open")
            connection = Connection(self, connection_id)
            self._connections[connection_id] = connection
            self.stats.connections_opened += 1
            return connection

    def connection_count(self) -> int:
        """Number of currently open connections."""
        with self._lock:
            return len(self._connections)

    def drop_connection(self, connection_id: str) -> None:
        """Forcibly close a connection (fault injection, admin kill)."""
        with self._lock:
            connection = self._connections.get(connection_id)
        if connection is not None:
            connection.close()

    def _forget_connection(self, connection_id: str) -> None:
        with self._lock:
            self._connections.pop(connection_id, None)
