"""Locking primitives for the thread-safe middleware core.

The paper's deployment served 2,091 concurrent phones through RabbitMQ
and MongoDB — both internally concurrent. This module gives the
in-process reproduction the same property: the broker, the document
store, and the ingest path are driven from many client threads at once,
each subsystem guarding its state with locks created here.

Two primitives:

- :func:`make_rlock` — a re-entrant mutex for mutually exclusive state
  (broker topology, queue dispatch, the ingest path);
- :func:`make_rwlock` — a reader-friendly :class:`RWLock` for the
  document store, where dashboard queries vastly outnumber writes and
  must not serialize against each other.

**Lock-disabled test mode.** The concurrency test harness needs to
demonstrate that the locks are load-bearing: the same seeded workload
that passes with locking must fail without it. Inside
:func:`lock_mode` ``("off")`` the factories return a :class:`YieldLock`
— a no-op lock whose acquisition *forces a context switch* instead of
excluding anyone. Critical sections are exactly where the races live,
so yielding the GIL at every would-be acquisition surfaces them with
near certainty while adding zero overhead to the normal locked build
(the mode is captured at lock construction; production code never
checks a flag on the hot path).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Union

__all__ = [
    "LockLike",
    "RWLock",
    "YieldLock",
    "lock_mode",
    "locks_enabled",
    "make_rlock",
    "make_rwlock",
]

#: Module-wide switch consulted by the factories at construction time.
_LOCKS_ENABLED = True


def locks_enabled() -> bool:
    """Whether locks constructed *now* would be real locks."""
    return _LOCKS_ENABLED


@contextmanager
def lock_mode(mode: str) -> Iterator[None]:
    """Temporarily select the lock implementation (``"on"``/``"off"``).

    Test-only: objects built inside the ``"off"`` window get
    :class:`YieldLock` instances and therefore run with the pre-lock
    (racy) semantics plus forced preemption at every critical-section
    boundary. Objects built outside keep their real locks.
    """
    global _LOCKS_ENABLED
    if mode not in ("on", "off"):
        raise ValueError(f"lock mode must be 'on' or 'off', got {mode!r}")
    previous = _LOCKS_ENABLED
    _LOCKS_ENABLED = mode == "on"
    try:
        yield
    finally:
        _LOCKS_ENABLED = previous


class YieldLock:
    """A lock that excludes nobody but yields the thread on entry.

    Stands in for both ``RLock`` and :class:`RWLock` in the disabled
    mode: ``time.sleep(0)`` releases the GIL so another runnable thread
    is scheduled right at the critical-section boundary — precisely the
    interleaving a real lock would have forbidden.
    """

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        time.sleep(0)
        return True

    def release(self) -> None:
        pass

    def __enter__(self) -> "YieldLock":
        time.sleep(0)
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass

    # RWLock-compatible surface -------------------------------------------

    @contextmanager
    def read(self) -> Iterator[None]:
        time.sleep(0)
        yield

    @contextmanager
    def write(self) -> Iterator[None]:
        time.sleep(0)
        yield


class RWLock:
    """A re-entrant, writer-preferring readers/writer lock.

    - Any number of threads may hold :meth:`read` concurrently.
    - :meth:`write` is exclusive against readers and other writers.
    - Writer preference: once a writer is waiting, *new* readers queue
      behind it, so a stream of dashboard queries cannot starve ingest.
    - Re-entrancy: a thread already holding the write lock may take
      read or write again (the docstore's update path matches under a
      read view it already owns via its write lock); a thread already
      holding a read view may take read again.
    - Upgrades (read → write by the same thread) deadlock by
      construction in every classic RW lock; attempting one here raises
      immediately instead of hanging the process.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        #: per-thread read hold counts (supports re-entrant readers)
        self._readers: Dict[int, int] = {}
        self._writer: int = 0  # ident of the write holder, 0 when free
        self._write_depth = 0
        self._writers_waiting = 0

    @contextmanager
    def read(self) -> Iterator[None]:
        """Shared access; blocks while a writer holds or waits."""
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                # the write holder implicitly owns a read view
                self._write_depth += 1
                reentrant_write = True
            else:
                reentrant_write = False
                held = me in self._readers
                while self._writer or (self._writers_waiting and not held):
                    self._cond.wait()
                self._readers[me] = self._readers.get(me, 0) + 1
        try:
            yield
        finally:
            with self._cond:
                if reentrant_write:
                    self._write_depth -= 1
                else:
                    count = self._readers[me] - 1
                    if count:
                        self._readers[me] = count
                    else:
                        del self._readers[me]
                        if not self._readers:
                            self._cond.notify_all()

    @contextmanager
    def write(self) -> Iterator[None]:
        """Exclusive access; re-entrant for the holding thread."""
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._write_depth += 1
            else:
                if me in self._readers:
                    raise RuntimeError(
                        "read->write upgrade would deadlock: release the "
                        "read view before taking the write lock"
                    )
                self._writers_waiting += 1
                try:
                    while self._writer or self._readers:
                        self._cond.wait()
                finally:
                    self._writers_waiting -= 1
                self._writer = me
                self._write_depth = 1
        try:
            yield
        finally:
            with self._cond:
                self._write_depth -= 1
                if self._write_depth == 0:
                    self._writer = 0
                    self._cond.notify_all()


LockLike = Union[threading.RLock, YieldLock]  # type: ignore[valid-type]


def make_rlock() -> LockLike:
    """A re-entrant mutex, or a :class:`YieldLock` in disabled mode."""
    return threading.RLock() if _LOCKS_ENABLED else YieldLock()


def make_rwlock() -> Union[RWLock, YieldLock]:
    """A readers/writer lock, or a :class:`YieldLock` in disabled mode."""
    return RWLock() if _LOCKS_ENABLED else YieldLock()
