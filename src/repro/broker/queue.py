"""Message queues with consumers, acks, prefetch, TTL and dead-lettering.

Queues are strictly FIFO. Delivery happens eagerly: when a message is
enqueued and a consumer has prefetch credit, the consumer callback runs
inline. Unacknowledged deliveries are tracked per consumer; a nack with
``requeue=True`` puts the message back at the head of the queue with the
redelivered flag set (at-least-once semantics, like RabbitMQ).

Two RabbitMQ policies that matter for mobile workloads are modelled:

- **message TTL**: a disconnected client's queue must not grow stale
  forever; expired messages are dropped lazily (checked whenever the
  head of the queue is touched, which is sufficient because FIFO order
  makes enqueue times monotone);
- **dead-lettering**: messages dropped by TTL expiry, overflow, or
  requeue-less rejection can be routed to a dead-letter handler (the
  broker wires this to a dead-letter exchange).

Thread safety: every queue guards its ready list, consumer registry and
counters with one re-entrant lock, so concurrent publishers interleave
at message granularity and FIFO dispatch stays serial per queue (the
ordering guarantee RabbitMQ gives per queue). Consumer callbacks run
*under* the queue lock — re-entrant enqueues from a callback (e.g. a
dead-letter republish that routes back here) are legal for the same
thread, and a callback that publishes into *another* queue follows the
broker's lock hierarchy (the broker lock is never held while a queue
lock is taken, see ``docs/ARCHITECTURE.md``).
"""

from __future__ import annotations

import itertools
from collections import OrderedDict, deque
from dataclasses import dataclass, field, replace
from typing import Callable, Deque, Dict, Optional, Tuple

from repro import concurrency
from repro.broker.errors import QueueError
from repro.broker.message import Delivery, Message

#: Signature of a dead-letter handler: (message, reason).
DeadLetterHandler = Callable[[Message, str], None]


@dataclass
class Consumer:
    """A registered consumer on a queue.

    Attributes:
        tag: unique consumer tag within the broker.
        callback: invoked with each :class:`Delivery`.
        prefetch: max unacknowledged deliveries in flight (0 = unlimited).
        auto_ack: when True, deliveries are acknowledged implicitly.
    """

    tag: str
    callback: Callable[[Delivery], None]
    prefetch: int = 0
    auto_ack: bool = False
    unacked: "OrderedDict[int, Delivery]" = field(default_factory=OrderedDict)

    def has_credit(self) -> bool:
        """Whether the consumer may receive another delivery."""
        return self.prefetch == 0 or len(self.unacked) < self.prefetch


@dataclass
class QueueStats:
    """Lifetime counters for a queue."""

    enqueued: int = 0
    delivered: int = 0
    acked: int = 0
    requeued: int = 0
    dropped_overflow: int = 0
    expired: int = 0
    dead_lettered: int = 0


class MessageQueue:
    """A FIFO queue with consumer dispatch.

    Args:
        name: queue name (unique within the broker).
        max_length: optional bound; when full, the **oldest ready**
            message is dropped (RabbitMQ's default overflow behaviour).
        clock: optional callable returning the current simulated time,
            stamped on deliveries and used for TTL expiry.
        message_ttl_s: optional per-message time-to-live.
        dead_letter: optional handler receiving (message, reason) for
            every message the queue drops.
    """

    _delivery_tags = itertools.count(1)

    def __init__(
        self,
        name: str,
        max_length: Optional[int] = None,
        clock: Optional[Callable[[], float]] = None,
        message_ttl_s: Optional[float] = None,
        dead_letter: Optional[DeadLetterHandler] = None,
    ) -> None:
        if max_length is not None and max_length <= 0:
            raise QueueError(f"max_length must be positive, got {max_length}")
        if message_ttl_s is not None and message_ttl_s <= 0:
            raise QueueError(f"message_ttl_s must be positive, got {message_ttl_s}")
        self.name = name
        self.max_length = max_length
        self.message_ttl_s = message_ttl_s
        self._clock = clock
        self._dead_letter = dead_letter
        self._ready: Deque[Tuple[Message, float]] = deque()
        self._consumers: "OrderedDict[str, Consumer]" = OrderedDict()
        self._push_cache: Optional[list] = None  # memoized push-consumer list
        self._rr: int = 0  # round-robin cursor over consumers
        self._redelivered_ids: set = set()
        self._lock = concurrency.make_rlock()
        self.stats = QueueStats()

    # -- state inspection ---------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            self._expire_head()
            return len(self._ready)

    @property
    def ready_count(self) -> int:
        """Messages waiting in the queue (not yet delivered)."""
        with self._lock:
            self._expire_head()
            return len(self._ready)

    @property
    def unacked_count(self) -> int:
        """Deliveries awaiting acknowledgement across all consumers."""
        with self._lock:
            return sum(len(c.unacked) for c in self._consumers.values())

    def stats_snapshot(self) -> QueueStats:
        """A coherent copy of the counters (no torn mid-dispatch reads)."""
        with self._lock:
            return replace(self.stats)

    # -- time & drop handling -------------------------------------------------

    def _now(self) -> float:
        return self._clock() if self._clock else 0.0

    def _drop(self, message: Message, reason: str) -> None:
        if self._dead_letter is not None:
            self.stats.dead_lettered += 1
            self._dead_letter(message, reason)

    def _expire_head(self) -> None:
        """Lazily drop expired messages from the head of the queue."""
        if self.message_ttl_s is None or not self._ready:
            return
        now = self._now()
        while self._ready and now - self._ready[0][1] > self.message_ttl_s:
            message, _ = self._ready.popleft()
            self.stats.expired += 1
            self._drop(message, "expired")

    # -- enqueue / deliver ----------------------------------------------------

    def enqueue(self, message: Message) -> None:
        """Append a message and dispatch to consumers if possible."""
        with self._lock:
            self._expire_head()
            if self.max_length is not None and len(self._ready) >= self.max_length:
                dropped, _ = self._ready.popleft()
                self.stats.dropped_overflow += 1
                self._drop(dropped, "maxlen")
            self._ready.append((message, self._now()))
            self.stats.enqueued += 1
            self._dispatch()

    def get(self, auto_ack: bool = True) -> Optional[Delivery]:
        """Synchronously pull one message (AMQP basic.get semantics).

        Returns None when the queue is empty. With ``auto_ack=False`` the
        caller must later :meth:`ack` or :meth:`nack` through the pull
        consumer registered under the tag ``"<queue>.get"``.
        """
        with self._lock:
            self._expire_head()
            if not self._ready:
                return None
            message, _ = self._ready.popleft()
            delivery = self._make_delivery(
                message, redelivered=message.message_id in self._redelivered_ids
            )
            self.stats.delivered += 1
            if auto_ack:
                self.stats.acked += 1
            else:
                puller = self._consumers.get(self._pull_tag())
                if puller is None:
                    puller = Consumer(tag=self._pull_tag(), callback=lambda d: None)
                    self._consumers[self._pull_tag()] = puller
                puller.unacked[delivery.delivery_tag] = delivery
            return delivery

    def add_consumer(
        self,
        tag: str,
        callback: Callable[[Delivery], None],
        prefetch: int = 0,
        auto_ack: bool = False,
    ) -> Consumer:
        """Register a push consumer and start dispatching to it."""
        with self._lock:
            if tag in self._consumers:
                raise QueueError(f"consumer tag {tag!r} already registered on {self.name!r}")
            if prefetch < 0:
                raise QueueError(f"prefetch must be >= 0, got {prefetch}")
            consumer = Consumer(tag=tag, callback=callback, prefetch=prefetch, auto_ack=auto_ack)
            self._consumers[tag] = consumer
            self._push_cache = None
            self._dispatch()
            return consumer

    def remove_consumer(self, tag: str, requeue_unacked: bool = True) -> None:
        """Deregister a consumer, optionally requeueing its unacked messages."""
        with self._lock:
            consumer = self._consumers.pop(tag, None)
            if consumer is None:
                raise QueueError(f"no consumer {tag!r} on queue {self.name!r}")
            self._push_cache = None
            if requeue_unacked:
                now = self._now()
                for delivery in reversed(consumer.unacked.values()):
                    self._redelivered_ids.add(delivery.message.message_id)
                    self._ready.appendleft((delivery.message, now))
                    self.stats.requeued += 1
                self._dispatch()

    # -- acknowledgement -------------------------------------------------------

    def ack(self, delivery_tag: int) -> None:
        """Acknowledge a delivery; frees prefetch credit."""
        with self._lock:
            consumer = self._find_owner(delivery_tag)
            del consumer.unacked[delivery_tag]
            self.stats.acked += 1
            self._dispatch()

    def nack(self, delivery_tag: int, requeue: bool = True) -> None:
        """Reject a delivery; requeue it or dead-letter it."""
        with self._lock:
            consumer = self._find_owner(delivery_tag)
            delivery = consumer.unacked.pop(delivery_tag)
            if requeue:
                self._redelivered_ids.add(delivery.message.message_id)
                self._ready.appendleft((delivery.message.copy_with(), self._now()))
                self.stats.requeued += 1
            else:
                self._drop(delivery.message, "rejected")
            self._dispatch()

    def purge(self) -> int:
        """Drop all ready messages; returns how many were dropped."""
        with self._lock:
            count = len(self._ready)
            self._ready.clear()
            return count

    # -- internals ---------------------------------------------------------------

    def _pull_tag(self) -> str:
        return f"{self.name}.get"

    def _find_owner(self, delivery_tag: int) -> Consumer:
        for consumer in self._consumers.values():
            if delivery_tag in consumer.unacked:
                return consumer
        raise QueueError(
            f"unknown delivery tag {delivery_tag} on queue {self.name!r} "
            "(already acked, or never delivered here)"
        )

    def _make_delivery(self, message: Message, redelivered: bool) -> Delivery:
        return Delivery(
            message=message,
            delivery_tag=next(self._delivery_tags),
            queue_name=self.name,
            redelivered=redelivered,
            delivered_at=self._clock() if self._clock else None,
        )

    def _push_consumers(self) -> list:
        cached = self._push_cache
        if cached is None:
            pull_tag = self._pull_tag()
            cached = [c for t, c in self._consumers.items() if t != pull_tag]
            self._push_cache = cached
        return cached

    def _dispatch(self) -> None:
        """Deliver ready messages to consumers round-robin while credit lasts.

        Always called with the queue lock held; callbacks therefore run
        under it, which is what keeps per-queue delivery order serial.
        """
        consumers = self._push_consumers()
        if not consumers:
            return
        if len(consumers) == 1:
            # fast path: no round-robin bookkeeping for the common
            # single-consumer queue (every GoFlow/client queue).
            consumer = consumers[0]
            while True:
                self._expire_head()
                if not self._ready or not consumer.has_credit():
                    return
                message, _ = self._ready.popleft()
                delivery = self._make_delivery(
                    message,
                    redelivered=message.message_id in self._redelivered_ids,
                )
                self.stats.delivered += 1
                if consumer.auto_ack:
                    self.stats.acked += 1
                else:
                    consumer.unacked[delivery.delivery_tag] = delivery
                consumer.callback(delivery)
        progress = True
        while progress:
            self._expire_head()
            if not self._ready:
                break
            progress = False
            for offset in range(len(consumers)):
                if not self._ready:
                    break
                consumer = consumers[(self._rr + offset) % len(consumers)]
                if not consumer.has_credit():
                    continue
                message, _ = self._ready.popleft()
                delivery = self._make_delivery(
                    message,
                    redelivered=message.message_id in self._redelivered_ids,
                )
                self.stats.delivered += 1
                if consumer.auto_ack:
                    self.stats.acked += 1
                else:
                    consumer.unacked[delivery.delivery_tag] = delivery
                self._rr = (self._rr + offset + 1) % len(consumers)
                consumer.callback(delivery)
                progress = True
                # restart the round to honour round-robin fairness
                break
