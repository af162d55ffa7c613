"""Span tracing from outside the program: class-level wrappers.

The benchmark may not edit ``src/``, so the layer boundaries are traced
by replacing the public entry points of each middleware layer *on their
classes* with timing wrappers — installed before the server is built
(the server binds some of them, e.g. its broker consumer callback, at
construction) and restored afterwards.

A span is ``(name, start, end, parent, trace)``. ``trace`` is the
sequence number of the flush/query/poll that caused it: the harness
opens one *root* span per measured operation (:meth:`Tracer.begin_root`)
and wrappers only record while a root is open, so set-up and output
checks leave no spans. Everything runs on one thread, so spans nest
strictly and a span's **self time** is its duration minus its direct
children's durations; self times of one trace sum to its root's
duration exactly.

Only the traced run imports this module; the plain run that produces
the end-to-end metrics never does.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

#: (module, class, attribute, span name). Several entry points may share
#: a span name — the name is the *layer boundary*, not the function.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    # client
    ("repro.client.client", "GoFlowClient", "try_transmit", "client.encode"),
    ("repro.client.uplink", "RestBatchUplink", "send", "client.uplink_send"),
    ("repro.client.uplink", "BrokerUplink", "send", "client.uplink_send"),
    # broker
    ("repro.broker.channel", "Channel", "basic_publish", "broker.publish"),
    ("repro.broker.broker", "Broker", "publish", "broker.publish"),
    ("repro.broker.queue", "MessageQueue", "enqueue", "broker.dispatch"),
    ("repro.broker.queue", "MessageQueue", "get", "broker.dispatch"),
    # core
    ("repro.core.api", "GoFlowAPI", "dispatch", "core.api_dispatch"),
    ("repro.core.server", "GoFlowServer", "_on_delivery", "core.on_delivery"),
    ("repro.core.datamgmt", "DataManager", "ingest", "core.ingest"),
    ("repro.core.datamgmt", "DataManager", "ingest_many", "core.ingest"),
    ("repro.core.privacy", "PrivacyPolicy", "anonymize_ingest", "core.anonymize"),
    ("repro.core.privacy", "PrivacyPolicy", "anonymize_ingest_many", "core.anonymize"),
    ("repro.core.materialized", "MaterializedAnalytics", "observe", "core.materialized_fold"),
    ("repro.core.materialized", "MaterializedAnalytics", "observe_batch", "core.materialized_fold"),
    ("repro.core.materialized", "MaterializedAnalytics", "totals", "core.materialized_read"),
    ("repro.core.materialized", "MaterializedAnalytics", "per_model_groups", "core.materialized_read"),
    ("repro.core.materialized", "MaterializedAnalytics", "day_counts", "core.materialized_read"),
    ("repro.core.materialized", "MaterializedAnalytics", "provider_counts", "core.materialized_read"),
    ("repro.core.analytics", "AnalyticsEngine", "totals", "core.analytics"),
    ("repro.core.analytics", "AnalyticsEngine", "per_model_table", "core.analytics"),
    ("repro.core.analytics", "AnalyticsEngine", "cumulative_by_day", "core.analytics"),
    ("repro.core.analytics", "AnalyticsEngine", "provider_shares", "core.analytics"),
    ("repro.core.analytics", "AnalyticsEngine", "accuracy_buckets", "core.analytics"),
    ("repro.core.analytics", "AnalyticsEngine", "hourly_distribution", "core.analytics"),
    ("repro.core.analytics", "AnalyticsEngine", "top_contributors", "core.analytics"),
    ("repro.core.datamgmt", "DataManager", "retrieve", "core.retrieve"),
    ("repro.core.datamgmt", "DataManager", "count", "core.retrieve"),
    # docstore
    ("repro.docstore.collection", "Collection", "insert_one", "docstore.insert"),
    ("repro.docstore.collection", "Collection", "insert_many", "docstore.insert"),
    ("repro.docstore.index", "HashIndex", "insert", "docstore.index_insert"),
    ("repro.docstore.index", "HashIndex", "insert_many", "docstore.index_insert"),
    ("repro.docstore.index", "SortedIndex", "insert", "docstore.index_insert"),
    ("repro.docstore.index", "SortedIndex", "insert_many", "docstore.index_insert"),
    ("repro.docstore.columnar", "ColumnarMirror", "on_insert", "docstore.columnar_append"),
    ("repro.docstore.columnar", "ColumnarMirror", "on_insert_batch", "docstore.columnar_append"),
    ("repro.docstore.columnar", "ColumnarMirror", "execute", "docstore.columnar_execute"),
    ("repro.docstore.aggregate", "CompiledPipeline", "run", "docstore.aggregate_compiled"),
    ("repro.docstore.collection", "Collection", "aggregate", "docstore.aggregate_compiled"),
    ("repro.docstore.collection", "Collection", "find", "docstore.find"),
    ("repro.docstore.collection", "Collection", "count", "docstore.find"),
    ("repro.docstore.cursor", "Cursor", "to_list", "docstore.find"),
    ("repro.docstore.wal", "WriteAheadLog", "log", "docstore.wal_log"),
    ("repro.docstore.wal", "WriteAheadLog", "_sync_locked", "docstore.wal_sync"),
    ("repro.docstore.store", "DocumentStore", "recover", "docstore.recover"),
    # sharding
    ("repro.sharding.router", "ShardRouter", "ingest", "sharding.route"),
    ("repro.sharding.router", "ShardRouter", "ingest_many", "sharding.route"),
    ("repro.sharding.router", "Shard", "submit_ingest_many", "sharding.shard_submit"),
    ("repro.sharding.router", "Shard", "submit_partial_fold", "sharding.shard_submit"),
    ("repro.sharding.router", "Shard", "submit_documents", "sharding.shard_submit"),
    ("repro.sharding.router", "ShardRouter", "scatter_aggregate", "sharding.scatter"),
    ("repro.sharding.router", "ShardRouter", "retrieve", "sharding.scatter"),
    ("repro.sharding.router", "ShardRouter", "count", "sharding.scatter"),
    ("repro.sharding.router", "MergedMaterialized", "totals", "sharding.scatter"),
    ("repro.sharding.router", "MergedMaterialized", "per_model_groups", "sharding.scatter"),
    ("repro.sharding.router", "MergedMaterialized", "day_counts", "sharding.scatter"),
    ("repro.sharding.router", "MergedMaterialized", "provider_counts", "sharding.scatter"),
    # streaming
    ("repro.streaming.subscriptions", "SubscriptionManager", "on_stored", "streaming.on_stored"),
    ("repro.streaming.tiles", "TileDeltaEngine", "observe", "streaming.tile_fold"),
    ("repro.streaming.subscriptions", "SubscriptionManager", "next_events", "streaming.next_events"),
    ("repro.streaming.subscriptions", "SubscriptionManager", "tiles_snapshot", "streaming.tiles_snapshot"),
)


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        # parallel columns, one entry per span, in start order
        self.names: List[str] = []
        self.parents: List[int] = []
        self.traces: List[int] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self._stack: List[int] = []
        self._patched: List[Tuple[type, str, Any]] = []

    # -- recording ------------------------------------------------------------

    def begin_root(self, name: str, trace: int) -> int:
        """Open the root span of one measured operation."""
        index = len(self.names)
        self.names.append(name)
        self.parents.append(-1)
        self.traces.append(trace)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def end_root(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, function: Callable[..., Any], name: str) -> Callable[..., Any]:
        names, parents, traces = self.names, self.parents, self.traces
        starts, ends, stack = self.starts, self.ends, self._stack
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not stack:
                return function(*args, **kwargs)
            index = len(names)
            parent = stack[-1]
            names.append(name)
            parents.append(parent)
            traces.append(traces[parent])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return function(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        traced.__name__ = getattr(function, "__name__", name)
        return traced

    # -- install / restore ----------------------------------------------------

    def install(self) -> None:
        """Replace every target attribute with its timing wrapper."""
        for module_name, class_name, attribute, span_name in TARGETS:
            owner = getattr(importlib.import_module(module_name), class_name)
            original = owner.__dict__[attribute]
            if isinstance(original, classmethod):
                wrapper: Any = classmethod(self._wrap(original.__func__, span_name))
            else:
                wrapper = self._wrap(original, span_name)
            self._patched.append((owner, attribute, original))
            setattr(owner, attribute, wrapper)

    def restore(self) -> None:
        """Put the original attributes back (idempotent)."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> List[float]:
        """Per-span self time: duration minus direct children's."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[index] - self.starts[index]
        return own

    def by_name(self) -> Dict[str, Dict[str, float]]:
        """``{span name: {"self_s", "total_s", "calls"}}`` over all spans."""
        table: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0}
        )
        for name, own, start, end in zip(
            self.names, self.self_times(), self.starts, self.ends
        ):
            row = table[name]
            row["self_s"] += own
            row["total_s"] += end - start
            row["calls"] += 1
        return dict(table)

    def self_by_root(self) -> Dict[Tuple[str, str], float]:
        """``{(root span name, span name): self seconds}`` — which kind
        of operation each layer's time was spent on."""
        root_of: Dict[int, str] = {
            trace: name
            for name, parent, trace in zip(self.names, self.parents, self.traces)
            if parent < 0
        }
        table: Dict[Tuple[str, str], float] = defaultdict(float)
        for name, trace, own in zip(self.names, self.traces, self.self_times()):
            table[(root_of[trace], name)] += own
        return dict(table)

    def self_time_under(self, name: str, parent_name: str) -> float:
        """Self time of ``name`` spans whose direct parent is a
        ``parent_name`` span (caller-side attribution)."""
        own = self.self_times()
        return sum(
            own[index]
            for index, parent in enumerate(self.parents)
            if parent >= 0
            and self.names[index] == name
            and self.names[parent] == parent_name
        )

    def durations(self, name: str) -> List[float]:
        return [
            end - start
            for span, start, end in zip(self.names, self.starts, self.ends)
            if span == name
        ]

    def dump(self, path: str) -> None:
        """Write the span table: ``names`` is the string table, each
        span row is ``[name index, parent, trace, start_s, end_s]``."""
        table = sorted(set(self.names))
        code = {name: index for index, name in enumerate(table)}
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "names": table,
                    "columns": ["name", "parent", "trace", "start_s", "end_s"],
                    "spans": [
                        [code[name], parent, trace, start - origin, end - origin]
                        for name, parent, trace, start, end in zip(
                            self.names, self.parents, self.traces, self.starts, self.ends
                        )
                    ],
                },
                handle,
            )
