"""Run the middleware benches and record the results.

Wraps pytest-benchmark: runs a bench suite with ``--benchmark-json``,
then folds the run into ``BENCH_middleware.json`` under a named stage.
Keeping a *baseline* stage and an *after* stage in one committed file is
the evidence trail for routing/docstore optimisations — the file also
reports the per-bench speedup whenever both stages are present.

Two suites are available:

- ``throughput`` (default): the routing/ingest hot-path benches;
- ``faults``: the fault-injection scenario — the same ingest workload
  under a plan that nacks publisher confirms and drops connections,
  proving the retry + idempotent-ingest layer converges to exactly-once
  and measuring what it costs;
- ``concurrency``: multi-threaded ingest throughput — 8 client threads
  through the locked broker → docstore stack, with and without
  dedup-ledger contention;
- ``batch``: per-op vs batch ingest through the REST endpoint plus the
  columnar/compiled/naive cold-scan comparison. The stage selects the
  ingest mode (``baseline`` → one POST per observation, ``after`` →
  batch-sized POSTs), so the recorded speedup is the batch-path win.
- ``wal``: durability overhead — the same REST ingest against an
  in-memory server (``baseline`` → ``REPRO_WAL_MODE=memory``) and a
  durable one journaling through the write-ahead log with group commit
  (``after`` → ``REPRO_WAL_MODE=durable``), plus durable-only
  sync-policy and recovery-replay benches.
- ``streaming``: live subscription fan-out — the same ingest window
  pushed to 1, 64 and 512 continuous queries, with a foreground
  consumer draining via ack cursors mid-ingest. Each bench records
  ``fanout_msgs_per_sec`` and ``p99_tile_staleness_ms`` in its
  ``extra_info``.

Usage::

    python benchmarks/run_bench.py --stage baseline   # before a change
    python benchmarks/run_bench.py --stage after      # after the change
    python benchmarks/run_bench.py --suite faults --stage after
    python benchmarks/run_bench.py --stage after --from-json raw.json
    python benchmarks/run_bench.py --suite batch --profile

``--from-json`` imports an existing pytest-benchmark JSON file instead
of running the suite (useful when the raw run was captured separately).

``--profile`` wraps every benchmark in cProfile: the top-20 cumulative
hotspots print per benchmark and the raw ``.prof`` dumps persist under
``benchmarks/profiles/`` for later ``pstats``/``snakeviz`` digging.
Profiled timings carry tracer overhead, so the run is *not* recorded
into the stage file — it is evidence for "where does the time go",
not "how fast is it".
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SUITES = {
    "throughput": "benchmarks/test_middleware_throughput.py",
    "faults": "benchmarks/test_fault_injection.py",
    "analytics": "benchmarks/test_analytics_aggregation.py",
    "concurrency": "benchmarks/test_concurrent_ingest.py",
    "batch": "benchmarks/test_batch_ingest.py",
    "wal": "benchmarks/test_wal_ingest.py",
    "streaming": "benchmarks/test_streaming_fanout.py",
}
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_middleware.json"

#: stats kept per benchmark (full pytest-benchmark output is megabytes)
KEPT_STATS = ("min", "max", "mean", "stddev", "median", "rounds", "iterations")


#: where ``--profile`` persists its cProfile dumps
PROFILE_DIR = REPO_ROOT / "benchmarks" / "profiles"
PROFILE_TOP = 20


def run_suite(
    bench_file: str,
    keyword: str | None,
    extra_env: dict | None = None,
    profile: str | None = None,
) -> dict:
    """Run a bench suite, returning the parsed pytest-benchmark JSON."""
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as handle:
        raw_path = Path(handle.name)
    command = [
        sys.executable,
        "-m",
        "pytest",
        bench_file,
        "--benchmark-only",
        "--benchmark-json",
        str(raw_path),
        "-q",
    ]
    if profile is not None:
        PROFILE_DIR.mkdir(parents=True, exist_ok=True)
        command += [
            "--benchmark-cprofile=cumtime",
            f"--benchmark-cprofile-top={PROFILE_TOP}",
            f"--benchmark-cprofile-dump={PROFILE_DIR / profile}",
        ]
    if keyword:
        command += ["-k", keyword]
    env_path = str(REPO_ROOT / "src")
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = env_path + os.pathsep + env.get("PYTHONPATH", "")
    if extra_env:
        env.update(extra_env)
    result = subprocess.run(command, cwd=REPO_ROOT, env=env)
    if result.returncode != 0:
        raise SystemExit(f"benchmark run failed (exit {result.returncode})")
    try:
        return json.loads(raw_path.read_text())
    finally:
        raw_path.unlink(missing_ok=True)


def summarize(raw: dict) -> dict:
    """Trim a pytest-benchmark JSON blob to the stats worth committing."""
    benches = {}
    for bench in raw.get("benchmarks", []):
        stats = bench.get("stats", {})
        entry = {key: stats.get(key) for key in KEPT_STATS}
        # benches that publish derived figures (fan-out msgs/sec, p99
        # staleness) carry them in extra_info — keep those verbatim
        extra = bench.get("extra_info") or {}
        if extra:
            entry["extra_info"] = extra
        benches[bench["name"]] = entry
    return {
        "datetime": raw.get("datetime"),
        "python": raw.get("machine_info", {}).get("python_version"),
        "benchmarks": benches,
    }


def speedups(stages: dict) -> dict:
    """baseline_mean / after_mean per benchmark present in both stages.

    Non-default suites namespace their stages as ``<suite>:baseline`` /
    ``<suite>:after``; their ratios are reported under the same
    namespaced benchmark names.
    """
    pairs = [("baseline", "after", "")]
    suites = {
        stage.split(":", 1)[0] for stage in stages if ":" in stage
    }
    for suite in sorted(suites):
        pairs.append((f"{suite}:baseline", f"{suite}:after", f"{suite}:"))
    result = {}
    for baseline_stage, after_stage, prefix in pairs:
        baseline = stages.get(baseline_stage, {}).get("benchmarks", {})
        after = stages.get(after_stage, {}).get("benchmarks", {})
        for name in baseline.keys() & after.keys():
            before_mean = baseline[name].get("mean")
            after_mean = after[name].get("mean")
            if before_mean and after_mean:
                result[prefix + name] = round(before_mean / after_mean, 2)
    return result


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stage", default="after", help="stage label (baseline/after)")
    parser.add_argument(
        "--suite",
        default="throughput",
        choices=sorted(SUITES),
        help="which bench suite to run",
    )
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument("-k", dest="keyword", default=None, help="pytest -k filter")
    parser.add_argument(
        "--from-json",
        type=Path,
        default=None,
        help="import an existing pytest-benchmark JSON instead of running",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "wrap the suite in cProfile: print the top-20 cumulative "
            "hotspots per benchmark and persist .prof dumps under "
            "benchmarks/profiles/ (timings are not recorded to the stage "
            "file — profiled runs carry tracer overhead)"
        ),
    )
    args = parser.parse_args(argv)

    if args.from_json is not None:
        if not args.from_json.exists():
            raise SystemExit(f"no such benchmark JSON: {args.from_json}")
        raw = json.loads(args.from_json.read_text())
    else:
        extra_env = None
        if args.suite == "batch":
            # the stage selects the ingest mode: the baseline stage
            # measures one POST per observation, the after stage the
            # batch fast path — same bench names, honest ratio.
            extra_env = {
                "REPRO_BATCH_MODE": (
                    "per_op" if args.stage == "baseline" else "batch"
                )
            }
        elif args.suite == "wal":
            # the stage selects durability: baseline measures the
            # in-memory server, after the journaled one — the ratio is
            # the cost of crash safety.
            extra_env = {
                "REPRO_WAL_MODE": (
                    "memory" if args.stage == "baseline" else "durable"
                )
            }
        raw = run_suite(
            SUITES[args.suite],
            args.keyword,
            extra_env,
            profile=f"{args.suite}-{args.stage}" if args.profile else None,
        )
        if args.profile:
            print(
                f"profiled {args.suite!r}: top-{PROFILE_TOP} cumulative hotspots "
                f"above; .prof dumps in {PROFILE_DIR}/ (stage file untouched)"
            )
            return

    # non-default suites get their own stage namespace so a faults run
    # never clobbers the throughput baseline/after evidence
    stage = args.stage if args.suite == "throughput" else f"{args.suite}:{args.stage}"
    document = (
        json.loads(args.output.read_text()) if args.output.exists() else {"stages": {}}
    )
    document.setdefault("stages", {})[stage] = summarize(raw)
    ratio = speedups(document["stages"])
    if ratio:
        document["speedup_baseline_over_after"] = ratio
    args.output.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")

    print(f"wrote stage {stage!r} to {args.output}")
    for name, factor in sorted(ratio.items()):
        print(f"  {name}: {factor}x")


if __name__ == "__main__":
    main()
