"""Measurement primitives: operations, windows, repetitions.

Every time is a raw ``time.perf_counter`` difference; nothing is scaled
or trimmed. The one defence against a noisy box is repetition
(:func:`fastest`): a run measures the same seeded pass several times on
a fresh server each, and because the program is deterministic, operation
*i* does the same work in every repetition — a WAL group sync, a mirror
rebuild, a buffered merge fall on the same operation each time. Each
operation and each window segment then counts with the fastest of its
repetitions: every operation still counts, whatever it costs, and what
drops out is only what differed between repetitions of identical work.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict
from typing import Any, Dict, List, Sequence, Tuple


class Recorder:
    """Collects per-operation wall times, attempt/failure counts and
    window lengths. With a tracer attached, every operation also opens a
    root span whose trace id is the operation's sequence number."""

    def __init__(self, tracer: Any = None) -> None:
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: per window, the consecutive segments that tile it (see ``mark``)
        self.segments: Dict[str, List[float]] = {}
        self.staleness: List[float] = []
        #: (window start, rows returned) of every window retrieve
        self.window_rows: List[Tuple[float, int]] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.tracer = tracer
        self.sequence = 0

    def op(self, kind: str) -> "_Operation":
        return _Operation(self, kind)

    def window(self, name: str) -> "_Window":
        return _Window(self, name)

    def mark(self) -> None:
        """End a segment of the open window: the time since the window
        opened or since the last mark. Workloads mark after each batch
        or read, so the segments tile the window."""
        now = time.perf_counter()
        self._open.append(now - self._last_mark)
        self._last_mark = now

    def fail(self, message: str) -> None:
        """An attempted operation turned out failed, refused or unconfirmed."""
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def check(self, name: str, failures: List[str]) -> None:
        """One output check; a mismatch counts as a failed operation."""
        self.attempted += 1
        if failures:
            self.fail(f"{name}: {failures[0]}")

    @property
    def windows(self) -> Dict[str, float]:
        """Wall seconds of each measured window."""
        return {name: sum(segments) for name, segments in self.segments.items()}

    @property
    def measured_s(self) -> float:
        return sum(self.windows.values())


def fastest(repetitions: Sequence[Recorder]) -> Recorder:
    """One recorder from repetitions of the same seeded pass: every
    sample and segment with the fastest of its repetitions;
    attempts and failures added up. Raises ``ValueError`` if the
    repetitions did not run the same operations."""
    first = repetitions[0]
    merged = Recorder()

    def pointwise(series: Sequence[List[float]]) -> List[float]:
        return [min(times) for times in zip(*series, strict=True)]

    for kind in first.samples:
        merged.samples[kind] = pointwise([each.samples[kind] for each in repetitions])
    for name in first.segments:
        merged.segments[name] = pointwise([each.segments[name] for each in repetitions])
    merged.staleness = pointwise([each.staleness for each in repetitions])
    merged.window_rows = first.window_rows
    for each in repetitions:
        merged.attempted += each.attempted
        merged.failed += each.failed
        merged.failures += each.failures
    return merged


class _Operation:
    __slots__ = ("recorder", "kind", "start", "root")

    def __init__(self, recorder: Recorder, kind: str) -> None:
        self.recorder = recorder
        self.kind = kind

    def __enter__(self) -> "_Operation":
        recorder = self.recorder
        recorder.sequence += 1
        if recorder.tracer is not None:
            self.root = recorder.tracer.begin_root("op." + self.kind, recorder.sequence)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type: Any, exc: Any, _tb: Any) -> bool:
        elapsed = time.perf_counter() - self.start
        recorder = self.recorder
        if recorder.tracer is not None:
            recorder.tracer.end_root(self.root)
        recorder.samples[self.kind].append(elapsed)
        recorder.attempted += 1
        if exc_type is not None and issubclass(exc_type, Exception):
            recorder.fail(f"{self.kind} raised {exc_type.__name__}: {exc}")
            return True
        return False


class _Window:
    """A measured window: its segments add up to its wall time."""

    def __init__(self, recorder: Recorder, name: str) -> None:
        self.recorder = recorder
        self.name = name

    def __enter__(self) -> None:
        gc.collect()  # keep the set-up's garbage out of the measured window
        recorder = self.recorder
        recorder._open = recorder.segments[self.name] = []
        recorder._last_mark = time.perf_counter()

    def __exit__(self, *_exc: Any) -> None:
        self.recorder.mark()
