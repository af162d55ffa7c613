"""One pass of one workload, and the metrics derived from passes.

A *pass* is: set-up, the measured windows, the output checks. A plain
run repeats the pass (same seed, fresh server) and reports each
operation with the fastest of its repetitions (see
:func:`bench.recorder.fastest`) and ``setup_s`` as the median of the
set-ups; that yields the end-to-end metrics. One traced pass — same
workload, same seed, with :mod:`bench.trace` installed — yields the
per-layer ones. This module never imports :mod:`bench.trace`: the
caller hands a tracer in.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from bench.compare import SINGLE_WORKLOAD
from bench.recorder import Recorder, fastest
from bench.workloads import AFTER_WRITE, APP, WORKLOADS, Workload
from repro.core.datamgmt import DataQuery

#: ``--seconds`` to scale: at ``FULL_SECONDS`` the workloads run at the
#: issue's full sizes.
FULL_SECONDS = 20.0

Metric = Tuple[float, str, int]  # value, unit, samples behind it


@dataclass
class PassResult:
    """What one pass leaves behind; the workload and its server are
    dropped, so the next repetition starts from the same heap."""

    name: str
    recorder: Recorder
    setup_s: float
    stats_before: Dict[str, Any]
    stats_after: Dict[str, Any]
    peak_rss_mb: float
    observations_sent: int
    window_operations: int
    wal_bytes_written: int
    examined_per_returned: float
    requeued: int


def run_pass(
    name: str, seed: int, scale: float, scratch_dir: str, tracer: Any = None, verify: bool = True
) -> PassResult:
    """Set up, measure and (unless told otherwise) check one workload.
    The caller installs the tracer (if any) before this runs, so the
    server is built on wrapped classes; the caller restores it
    afterwards."""
    # free the previous repetition first, or two corpora are alive at
    # once and peak_rss_mb measures the harness
    gc.collect()
    started = time.perf_counter()
    workload = WORKLOADS[name](seed, scale, scratch_dir)
    workload.setup()
    setup_s = time.perf_counter() - started
    recorder = Recorder(tracer)
    try:
        before = workload.server.middleware_stats()
        workload.run(recorder)
        result = PassResult(
            name, recorder, setup_s, before, workload.final_stats(),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            observations_sent=workload.observations_sent,
            window_operations=workload.window_operations,
            wal_bytes_written=workload.wal_bytes_written,
            examined_per_returned=examined_per_returned(workload, recorder),
            requeued=sum(client.stats.requeued for client in workload.clients.values()),
        )
        if verify:
            workload.verify(recorder)
    finally:
        workload.close()
    return result


# -- small statistics -----------------------------------------------------------


def percentile(samples: List[float], pct: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def median(samples: List[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def supported_tail_pct(count: int) -> float:
    """The highest percentile with at least ten samples beyond it,
    capped at p99 (0 when fewer than twenty samples)."""
    if count < 20:
        return 0.0
    return min(99.0, 100.0 * (1.0 - 10.0 / count))


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# -- end-to-end metrics (plain pass) --------------------------------------------


def end_to_end(passes: Sequence[PassResult], startup_s: float) -> Dict[str, Metric]:
    """Every end-to-end metric of a plain run — repetitions of one
    seeded pass: the ones ``BENCHMARK.json`` bounds on every workload,
    then the ones that exist on one workload only."""
    last = passes[-1]
    recorder = fastest([each.recorder for each in passes])
    samples = recorder.samples
    setups = [each.setup_s for each in passes]

    def p50(kind: str, unit: str) -> Metric:
        values = samples.get(kind, [])
        return (median(values) * {"ms": 1e3, "us": 1e6}[unit], unit, len(values))

    # analyst_mixed interleaves its write batches with its reads: its one
    # mixed window is both its write window and its read window
    windows = recorder.windows
    write_s = windows.get("write") or windows["mixed"]
    read_s = windows.get("read") or windows["mixed"]
    metrics: Dict[str, Metric] = {
        "setup_s": (startup_s + median(setups), "s", len(setups)),
        "ingest_obs_per_s": (
            ratio(last.observations_sent, write_s), "obs/s",
            last.observations_sent,
        ),
        "flush_p50_ms": p50("flush", "ms"),
        "query_window_p50_ms": p50("query_window", "ms"),
        "query_scan_p50_ms": p50("query_scan", "ms"),
        "query_topk_p50_ms": p50("query_topk", "ms"),
        "dashboard_p50_us": p50("dashboard", "us"),
        "mixed_ops_per_s": (
            ratio(last.window_operations, read_s), "ops/s", last.window_operations,
        ),
        "peak_rss_mb": (last.peak_rss_mb, "MB", 1),
        "failed_share": (ratio(recorder.failed, recorder.attempted), "ratio", recorder.attempted),
    }
    if last.name == "perop_broker":
        flushes = samples["flush"]
        metrics["flush_p99_ms"] = (percentile(flushes, 99) * 1e3, "ms", len(flushes))
    if last.name == "live_map":
        stale = recorder.staleness
        metrics["staleness_p50_ms"] = (median(stale) * 1e3, "ms", len(stale))
        metrics["staleness_p99_ms"] = (percentile(stale, 99) * 1e3, "ms", len(stale))
    if last.name == "sharded_durable":
        metrics["recover_s"] = (samples["recover"][0], "s", 1)
    if last.name == "analyst_mixed":
        for name, (unit, _better, _bound) in SINGLE_WORKLOAD.items():
            if AFTER_WRITE in name:
                metrics[name] = p50(name[: -len(f"_p50_{unit}")], unit)
    return metrics


# -- per-layer metrics (traced pass) --------------------------------------------


def examined_per_returned(workload: Workload, recorder: Recorder) -> float:
    """Index entries examined per row returned, over the window
    retrieves: the planner's candidate count for each window's filter
    (asked after the window, so nothing is added to the timings)."""
    collection = workload.server.data.collection
    examined = returned = 0
    for since, rows in recorder.window_rows:
        plan = collection.explain(
            DataQuery(app_id=APP, since=since, until=since + workload.window_s).to_filter()
        )
        plans = plan["shards"].values() if "shards" in plan else [plan]
        for shard_plan in plans:
            candidates = shard_plan["candidates"]
            examined += len(collection) if candidates is None else candidates
        returned += rows
    return ratio(examined, returned)


def _delta(after: Dict[str, Any], before: Dict[str, Any], *path: str) -> float:
    for key in path:
        after, before = after.get(key, {}), before.get(key, {})
    return (after or 0) - (before or 0)


def _columnar_counters(info: Dict[str, Any]) -> Dict[str, int]:
    parts = list(info["shards"].values()) if info.get("sharded") else [info]
    return {
        key: sum(part.get(key, 0) or 0 for part in parts)
        for key in ("kernel_hits", "fallbacks", "rebuilds")
    }


def _wal_syncs(durability: Dict[str, Any]) -> int:
    if durability.get("sharded"):
        return sum(shard.get("syncs", 0) for shard in durability["shards"].values())
    return durability.get("syncs", 0)


def trace_overhead_share(plain: Recorder, traced: Recorder) -> float:
    """(traced - plain) / plain wall time of the measured windows."""
    return ratio(traced.measured_s - plain.measured_s, plain.measured_s)


LAYERS = ("client", "broker", "core", "docstore", "sharding", "streaming")
#: root spans of the write window; every other operation is a read
WRITE_ROOTS = ("op.flush", "op.poll", "op.tiles_snapshot", "op.retransmit")


def per_layer(traced: PassResult, plain: PassResult, plain_metrics: Dict[str, Metric]) -> Dict[str, Metric]:
    """Every per-layer metric of one traced pass. Span times are self
    times; counts are ``middleware_stats()`` deltas over the measured
    windows and repeat exactly for a seed. ``plain`` is the plain pass
    that ran just before it, for the tracing overhead."""
    tracer = traced.recorder.tracer
    spans = tracer.by_name()
    before, after = traced.stats_before, traced.stats_after
    recorder = traced.recorder
    metrics: Dict[str, Metric] = {}

    def span(metric: str, name: str, column: str = "self_s") -> None:
        row = spans.get(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        metrics[metric] = (row[column], "s", int(row["calls"]))

    def count(metric: str, value: float) -> None:
        metrics[metric] = (value, "count", 1)

    def share(metric: str, part: float, whole: float) -> None:
        metrics[metric] = (ratio(part, whole), "ratio", int(whole))

    # client
    span("client.encode.self_s", "client.encode")
    span("client.uplink_send.self_s", "client.uplink_send")
    count("client.transmits.calls", spans.get("client.encode", {}).get("calls", 0))
    count("client.requeued.count", traced.requeued)
    flushes = recorder.samples["flush"]
    tail_pct = supported_tail_pct(len(flushes))
    metrics["client.flush.tail_ms"] = (percentile(flushes, tail_pct) * 1e3, "ms", len(flushes))
    metrics["client.flush.tail_pct"] = (tail_pct, "%", len(flushes))
    # broker
    span("broker.publish.self_s", "broker.publish")
    span("broker.dispatch.self_s", "broker.dispatch")
    count("broker.publish.calls", _delta(after, before, "broker", "publishes"))
    count("broker.routed.count", _delta(after, before, "broker", "routed"))
    count("broker.unroutable.count", _delta(after, before, "broker", "unroutable"))
    route_hits = _delta(after, before, "broker", "route_cache", "hits")
    route_misses = _delta(after, before, "broker", "route_cache", "misses")
    share("broker.route_cache.hit_ratio", route_hits, route_hits + route_misses)
    topic_hits = _delta(after, before, "broker", "topic_cache_hits")
    topic_misses = _delta(after, before, "broker", "topic_cache_misses")
    share("broker.topic_cache.hit_ratio", topic_hits, topic_hits + topic_misses)
    # core
    for name in (
        "api_dispatch", "on_delivery", "ingest", "anonymize",
        "materialized_fold", "materialized_read", "analytics", "retrieve",
    ):
        span(f"core.{name}.self_s", f"core.{name}")
    count("core.dedup.hits", _delta(after, before, "reliability", "dedup_ledger", "hits"))
    count("core.materialized.rebuilds", _delta(after, before, "materialized", "rebuilds"))
    # docstore
    for name in (
        "insert", "index_insert", "columnar_append", "columnar_execute",
        "aggregate_compiled", "find", "wal_log", "wal_sync", "recover",
    ):
        span(f"docstore.{name}.self_s", f"docstore.{name}")
    count("docstore.wal.syncs", _wal_syncs(after["durability"]) - _wal_syncs(before["durability"]))
    metrics["docstore.wal.bytes_per_obs"] = (
        ratio(traced.wal_bytes_written, traced.observations_sent), "B/obs",
        traced.observations_sent,
    )
    plan_hits = _delta(after, before, "observations", "plan_cache_hits")
    plan_misses = _delta(after, before, "observations", "plan_cache_misses")
    share("docstore.plan_cache.hit_ratio", plan_hits, plan_hits + plan_misses)
    index_hits = _delta(after, before, "observations", "index_hits")
    full_scans = _delta(after, before, "observations", "full_scans")
    share("docstore.index_hit_ratio", index_hits, index_hits + full_scans)
    count("docstore.full_scans.count", full_scans)
    columnar_after = _columnar_counters(after["columnar"])
    columnar_before = _columnar_counters(before["columnar"])
    kernel_hits = columnar_after["kernel_hits"] - columnar_before["kernel_hits"]
    fallbacks = columnar_after["fallbacks"] - columnar_before["fallbacks"]
    share("docstore.columnar.kernel_hit_ratio", kernel_hits, kernel_hits + fallbacks)
    count("docstore.columnar.rebuilds", columnar_after["rebuilds"] - columnar_before["rebuilds"])
    metrics["docstore.examined_per_returned"] = (
        traced.examined_per_returned, "ratio", len(recorder.window_rows),
    )
    # sharding
    span("sharding.route.self_s", "sharding.route")
    span("sharding.shard_submit.wait_s", "sharding.shard_submit", "total_s")
    span("sharding.scatter.self_s", "sharding.scatter")
    listener_calls = spans.get("sharding.route", {}).get("calls", 0)
    metrics["sharding.delta_listener.self_s"] = (
        tracer.self_time_under("streaming.on_stored", "sharding.route"), "s", int(listener_calls),
    )
    shards = after["sharding"].get("shards", {})
    documents = [shard["documents"] for shard in shards.values()]
    metrics["sharding.skew"] = (
        ratio(max(documents, default=0), statistics.fmean(documents) if documents else 0),
        "ratio", len(documents),
    )
    # streaming
    span("streaming.on_stored.self_s", "streaming.on_stored")
    span("streaming.tile_fold.self_s", "streaming.tile_fold")
    span("streaming.next_events.self_s", "streaming.next_events")
    snapshots = tracer.durations("streaming.tiles_snapshot")
    metrics["streaming.tiles_snapshot.p50_ms"] = (median(snapshots) * 1e3, "ms", len(snapshots))
    fanned_out = _delta(after, before, "streaming", "fanned_out")
    live = after["streaming"]["subscriptions"]
    share("streaming.match_ratio", fanned_out, live * traced.observations_sent)
    count("streaming.fanned_out.count", fanned_out)
    count("streaming.dropped.count", _delta(after, before, "streaming", "dropped"))
    count("streaming.polls.count", _delta(after, before, "streaming", "polls"))
    # where the traced windows went: each layer's self time as a share
    # of the write window (flushes and what runs between them) and of
    # the read window (queries and dashboards)
    # on analyst_mixed the write side is its flushes, the read side the rest
    write_s = recorder.windows.get("write") or sum(recorder.samples["flush"])
    read_s = recorder.measured_s - write_s - recorder.windows.get("recover", 0.0)
    busy: Dict[Tuple[str, str], float] = defaultdict(float)
    for (root, name), own in tracer.self_by_root().items():
        side = "write" if root in WRITE_ROOTS else "read" if root != "op.recover" else None
        if side is not None and not name.startswith("op."):
            busy[(side, name.split(".", 1)[0])] += own
    for side, window_s in (("write", write_s), ("read", read_s)):
        for layer in LAYERS:
            metrics[f"{layer}.{side}_share"] = (ratio(busy[(side, layer)], window_s), "ratio", 1)
        accounted = sum(busy[(side, layer)] for layer in LAYERS)
        metrics[f"bench.harness.{side}_share"] = (ratio(window_s - accounted, window_s), "ratio", 1)
    metrics["bench.trace_overhead_share"] = (
        trace_overhead_share(plain.recorder, recorder), "ratio", 1,
    )
    metrics["docstore.index_insert.write_share"] = (
        ratio(spans.get("docstore.index_insert", {}).get("self_s", 0.0), write_s), "ratio", 1,
    )
    metrics["bench.reads_after_write.count"] = (
        sum(len(v) for kind, v in recorder.samples.items() if kind.endswith(AFTER_WRITE)),
        "count", traced.window_operations,
    )
    for name, (unit, _better, _bound) in SINGLE_WORKLOAD.items():
        metrics[f"plain.{name}"] = plain_metrics.get(name, (0.0, unit, 0))
    return metrics
