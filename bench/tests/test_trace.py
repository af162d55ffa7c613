"""The class-level tracer: nesting, self-time accounting, clean restore."""

import importlib
import os
import subprocess
import sys
from collections import defaultdict

import pytest

from bench import harness
from bench.tests.conftest import ROOT
from bench.trace import TARGETS, Tracer

SCALE = 0.02


def _attributes():
    return [
        getattr(importlib.import_module(module), owner).__dict__[attribute]
        for module, owner, attribute, _span in TARGETS
    ]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    before = _attributes()
    tracer = Tracer()
    tracer.install()
    try:
        installed = _attributes()
        result = harness.run_pass(
            "perop_broker", 1, SCALE, str(tmp_path_factory.mktemp("scratch")), tracer=tracer
        )
    finally:
        tracer.restore()
    return before, installed, _attributes(), tracer, result


def test_every_target_is_wrapped_then_restored(traced):
    before, installed, after, _tracer, _result = traced
    assert all(a is not b for a, b in zip(before, installed))
    assert all(a is b for a, b in zip(before, after))


def test_spans_nest_inside_their_parents(traced):
    tracer = traced[3]
    assert tracer.names, "the traced run recorded no spans"
    for index, parent in enumerate(tracer.parents):
        assert tracer.ends[index] >= tracer.starts[index]
        if parent < 0:
            assert tracer.names[index].startswith("op.")
            continue
        assert parent < index
        assert tracer.starts[parent] <= tracer.starts[index]
        assert tracer.ends[index] <= tracer.ends[parent]
        assert tracer.traces[index] == tracer.traces[parent]


def test_self_times_of_a_trace_sum_to_its_root(traced):
    tracer = traced[3]
    own = tracer.self_times()
    per_trace = defaultdict(float)
    roots = {}
    for index, trace in enumerate(tracer.traces):
        per_trace[trace] += own[index]
        if tracer.parents[index] < 0:
            roots[trace] = tracer.ends[index] - tracer.starts[index]
    assert len(roots) == traced[4].recorder.sequence
    for trace, total in roots.items():
        assert per_trace[trace] == pytest.approx(total, rel=0.01, abs=1e-9)


def test_set_up_and_checks_leave_no_spans(traced):
    tracer, result = traced[3], traced[4]
    # one root per measured operation, nothing recorded outside a root
    roots = sum(1 for parent in tracer.parents if parent < 0)
    assert roots == sum(len(values) for values in result.recorder.samples.values())


def test_the_layers_the_workload_claims_show_up(traced):
    spans = traced[3].by_name()
    for name in ("client.encode", "client.uplink_send", "broker.publish",
                 "broker.dispatch", "core.on_delivery", "core.ingest", "docstore.insert"):
        assert spans[name]["calls"] > 0, name
    assert "sharding.route" not in spans and "docstore.wal_log" not in spans


def test_the_plain_run_never_imports_the_tracer():
    script = (
        "import runpy, sys\n"
        "sys.argv = ['bench/run.py', '--workload', 'live_map', '--seed', '1',"
        " '--seconds', '0.4', '--trace', '0']\n"
        "try:\n"
        "    runpy.run_path('bench/run.py', run_name='__main__')\n"
        "except SystemExit as done:\n"
        "    assert done.code == 0, done.code\n"
        "assert 'bench.harness' in sys.modules\n"
        "assert 'bench.trace' not in sys.modules\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, capture_output=True, text=True,
        env={**os.environ, "PYTHONHASHSEED": "0"}, timeout=120,
    )
    assert done.returncode == 0, done.stderr
