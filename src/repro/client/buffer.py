"""The client-side observation outbox.

Holds observations that have been produced but not yet acknowledged by
the server. Distinct from broker-side queues: this buffer lives on the
phone and survives connectivity gaps — it is what makes the "sent at the
next cycle" retry semantics (§5.3) possible.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Deque, List, Optional

from repro.errors import ConfigurationError
from repro.sensing.scheduler import Observation


class ObservationBuffer:
    """FIFO outbox with an optional capacity.

    When full, the *oldest* observation is evicted (the freshest data is
    the most valuable for a live pollution map).
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ConfigurationError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._items: Deque[Observation] = deque()
        self.evicted = 0

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def push(self, observation: Observation) -> List[Observation]:
        """Append an observation, evicting the oldest when full.

        Returns the evicted observations (empty when the buffer had
        room) so the caller can release any per-observation state.
        """
        evicted: List[Observation] = []
        if self.capacity is not None and len(self._items) >= self.capacity:
            evicted.append(self._items.popleft())
            self.evicted += 1
        self._items.append(observation)
        return evicted

    def drain(self) -> List[Observation]:
        """Remove and return everything, oldest first."""
        items = list(self._items)
        self._items.clear()
        return items

    def peek_all(self) -> List[Observation]:
        """Everything, oldest first, without removing."""
        return list(self._items)

    def peek(self, limit: int) -> List[Observation]:
        """The oldest ``limit`` items, oldest first, without removing —
        O(limit) however deep the buffer is."""
        return list(islice(self._items, limit))

    def pop_oldest(self, count: int) -> List[Observation]:
        """Remove and return the ``count`` oldest items (everything,
        when fewer are queued).

        The ack-cursor primitive: a subscriber's queued events carry
        contiguous cursors, so acknowledging up to cursor N pops a
        prefix of known length, leaving unacked items queued. Popping a
        prefix is not an eviction, so ``evicted`` does not move.
        """
        return [
            self._items.popleft() for _ in range(min(count, len(self._items)))
        ]

    def requeue_front(self, observations: List[Observation]) -> List[Observation]:
        """Put back observations after a failed transmission (order kept).

        The capacity cap holds here too: a failed transmit must not
        balloon the outbox past its bound. When requeued + buffered
        exceed ``capacity``, the oldest observations are evicted first
        (same freshest-data-wins policy as :meth:`push`), counted in
        ``evicted``, and returned to the caller.
        """
        for observation in reversed(observations):
            self._items.appendleft(observation)
        evicted: List[Observation] = []
        if self.capacity is not None:
            overflow = len(self._items) - self.capacity
            if overflow > 0:
                for _ in range(overflow):
                    evicted.append(self._items.popleft())
                self.evicted += overflow
        return evicted

    @property
    def oldest_taken_at(self) -> Optional[float]:
        """Timestamp of the oldest pending observation."""
        return self._items[0].taken_at if self._items else None
