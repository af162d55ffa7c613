"""The harness at 1/50 scale: the metric contract, exact counts, and
output checks that really fail on a corrupted result."""

import json
import os
import subprocess
import sys

import pytest

from bench import reference
from bench.compare import SINGLE_WORKLOAD
from bench.tests.conftest import ROOT
from bench.workloads import (
    ANALYST_MIX, APP, WINDOW_LIMIT, WORKLOADS, AnalystMixed, LiveMap, Recorder, ShardedDurable,
)

SECONDS = "0.4"  # 1/50 of the full sizes
SEED = "3"

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)

#: per-layer metrics made of counts only: these must repeat exactly
EXACT_SUFFIXES = (
    ".count", ".calls", ".hits", ".rebuilds", ".syncs", "hit_ratio", ".skew",
    ".bytes_per_obs", ".examined_per_returned", ".match_ratio", ".tail_pct",
)


def _run(workload, trace):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", SEED,
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def runs(request):
    return request.param, _run(request.param, 0), _run(request.param, 1), _run(request.param, 1)


def test_benchmark_json_names_the_five_workloads():
    assert {workload["name"] for workload in BENCHMARK["workloads"]} == set(WORKLOADS)
    assert BENCHMARK["paths"] == ["bench"]


def test_single_workload_metrics_are_named_once():
    """``compare.SINGLE_WORKLOAD`` is the one table of the metrics that
    exist on a single workload; ``BENCHMARK.json`` lists each as a
    ``plain.*`` per-layer row and none as an end-to-end metric."""
    plain = {m["name"][len("plain."):]: m["unit"] for m in BENCHMARK["per_layer"]
             if m["name"].startswith("plain.")}
    assert plain == {name: spec[0] for name, spec in SINGLE_WORKLOAD.items()}
    assert not set(SINGLE_WORKLOAD) & {m["name"] for m in BENCHMARK["end_to_end"]}


def test_every_named_metric_is_emitted_with_its_unit(runs):
    _name, plain, traced, _again = runs
    for result, section in ((plain, "end_to_end"), (traced, "per_layer")):
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        want = {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}
        got = {name: row["unit"] for name, row in result["metrics"].items()}
        assert got == want


def test_end_to_end_metrics_are_never_zero(runs):
    _name, plain, _traced, _again = runs
    for name, row in plain["metrics"].items():
        assert row["value"] > 0, name


def test_count_metrics_repeat_exactly_for_a_seed(runs):
    _name, _plain, first, second = runs
    exact = [name for name in first["metrics"] if name.endswith(EXACT_SUFFIXES)]
    assert len(exact) >= 20
    for name in exact:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["attempted"] == second["attempted"]


def test_layers_a_workload_does_not_touch_report_zero_calls(runs):
    name, _plain, traced, _again = runs
    metrics = traced["metrics"]
    if name != "perop_broker":
        assert metrics["broker.publish.calls"]["value"] == 0
        assert metrics["broker.publish.self_s"]["value"] == 0
    if name != "sharded_durable":
        for metric in ("sharding.route.self_s", "docstore.wal_log.self_s", "docstore.wal.syncs"):
            assert metrics[metric]["value"] == 0, metric
    else:
        for metric in ("sharding.route.self_s", "docstore.wal_log.self_s",
                       "docstore.recover.self_s", "docstore.wal.syncs"):
            assert metrics[metric]["value"] > 0, metric


def _analyst_plan(seed):
    workload = AnalystMixed(seed, 0.1, "unused")
    workload.setup()
    return workload.plan


def test_the_operation_order_is_drawn_from_the_seed():
    first, again, other = _analyst_plan(3), _analyst_plan(3), _analyst_plan(4)
    assert first == again
    assert [kind for kind, _ in first] != [kind for kind, _ in other]
    # whatever the order, the mix is the issue's
    kinds = [kind for kind, _ in first]
    for kind, share in ANALYST_MIX:
        assert kinds.count(kind) == round(share * len(kinds)), kind


def test_twin_check_fails_on_a_corrupted_answer(tmp_path):
    workload = ShardedDurable(int(SEED), 0.02, str(tmp_path))
    workload.setup()
    try:
        recorder = Recorder()
        workload.run(recorder)
        assert not workload.twin_failures()
        at = next(i for i, (kind, _a, rows) in enumerate(workload.answers)
                  if kind == "query_window" and rows)
        kind, argument, rows = workload.answers[at]
        workload.answers[at] = (kind, argument, rows[1:])
        assert workload.twin_failures()
    finally:
        workload.close()


@pytest.fixture(scope="module")
def live_map(tmp_path_factory):
    workload = LiveMap(int(SEED), 0.02, str(tmp_path_factory.mktemp("scratch")))
    workload.setup()
    recorder = Recorder()
    workload.run(recorder)
    workload.verify(recorder)
    assert recorder.failed == 0, recorder.failures
    return workload


def test_conservation_check_fails_on_a_dropped_document(live_map):
    server = live_map.server
    documents = list(live_map.stored_documents())
    totals = server.data.materialized.totals()
    assert not reference.verify_conservation(len(documents), totals, documents, len(documents))
    assert reference.verify_conservation(len(documents) - 1, totals, documents[:-1], len(documents))


def test_stream_check_fails_on_a_dropped_event(live_map):
    documents = live_map.stored_documents()
    cell_m = live_map.server.streaming.cell_m
    events, regions = live_map.received[0], live_map.regions[0]
    assert events
    assert not reference.verify_stream(events, documents, APP, regions, cell_m)
    middle = len(events) // 2
    assert reference.verify_stream(events[:middle] + events[middle + 1 :], documents, APP, regions, cell_m)
    # and the other way round: a stored document the dashboard was sent goes missing
    delivered = next(event["_id"] for event in events if event["kind"] == "observation")
    survivors = [doc for doc in documents if doc["_id"] != delivered]
    assert reference.verify_stream(events, survivors, APP, regions, cell_m)


def test_tile_check_fails_on_a_dropped_tile(live_map):
    documents = live_map.stored_documents()
    streaming = live_map.server.streaming
    snapshot = streaming.tiles_snapshot(app_id=APP)
    assert not reference.verify_tiles(snapshot, documents, streaming.cell_m)
    snapshot.pop(next(iter(snapshot)))
    assert reference.verify_tiles(snapshot, documents, streaming.cell_m)


def test_read_checks_fail_on_corrupted_answers(live_map):
    documents = live_map.stored_documents()
    analytics = live_map.server.analytics
    since = min(doc["taken_at"] for doc in documents)
    rows = live_map.read(Recorder(), "query_window", since)
    assert not reference.verify_window(rows, documents, APP, since, since + live_map.window_s, WINDOW_LIMIT)
    assert reference.verify_window(rows[1:], documents, APP, since, since + live_map.window_s, WINDOW_LIMIT)
    buckets = analytics.accuracy_buckets()
    assert not reference.verify_accuracy_buckets(buckets, documents)
    assert reference.verify_accuracy_buckets(buckets, documents[:-1])
    hourly = analytics.hourly_distribution()
    assert not reference.verify_hourly_distribution(hourly, documents)
    assert reference.verify_hourly_distribution(hourly[1:] + hourly[:1], documents)
    model = documents[0]["model"]
    top = analytics.top_contributors(model)
    assert not reference.verify_top_contributors(top, documents, model, 20)
    assert reference.verify_top_contributors(top + top[:1], documents, model, 20)


def test_a_failed_check_fails_the_run():
    recorder = Recorder()
    recorder.check("conservation", ["collection holds 9 documents, 10 were acknowledged"])
    assert (recorder.attempted, recorder.failed) == (1, 1)
    assert "conservation" in recorder.failures[0]
