"""The benchmark's one command.

``python bench/run.py [--workload NAME]``
    every workload (or one), plain then traced, each in a fresh subprocess;
    prints every metric by name with unit, sample count and bound, and
    exits non-zero if any output check fails. ``--out FILE`` also writes
    the results (and the traced runs' span tables next to it).

``python bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
    one workload in this process; the last line of standard output is
    the JSON object the driver reads. ``--trace 0`` repeats the plain
    pass (three times; ``live_map``'s short one six) and reports the
    end-to-end metrics; ``--trace 1`` does the same, then one traced
    pass, and reports the per-layer metrics.

``--seconds`` sets the size of a run, not a deadline: every count is the
issue's full size times ``seconds / 20``, so the same seed and seconds
always mean the same inputs and the count metrics repeat exactly.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse
import json
import os
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRATCH = os.path.join(ROOT, "bench", ".scratch")


def positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be > 0")
    return value


def parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=positive, help="run size (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="single-workload mode: 0 plain, 1 traced")
    parser.add_argument("--out", help="write the results here as JSON")
    return parser.parse_args(argv)


def load_benchmark() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# -- single-workload mode (what the driver runs) --------------------------------


def run_single(args: argparse.Namespace) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("bench: src/repro is missing; nothing to benchmark", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # pin string hashing so set/dict orders, and with them the count
        # metrics, repeat; exec keeps this the only process
        os.execve(
            sys.executable,
            [sys.executable, os.path.abspath(__file__)] + sys.argv[1:],
            {**os.environ, "PYTHONHASHSEED": "0"},
        )
    for path in (ROOT, os.path.join(ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from bench import harness

    benchmark = load_benchmark()
    if args.workload not in {workload["name"] for workload in benchmark["workloads"]}:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    scale = seconds / harness.FULL_SECONDS
    os.makedirs(SCRATCH, exist_ok=True)
    traced = bool(args.trace)
    startup_s = time.perf_counter() - PROCESS_START  # interpreter start + imports
    repetitions = harness.WORKLOADS[args.workload].repetitions
    passes = [
        harness.run_pass(args.workload, args.seed, scale, SCRATCH, verify=last)
        for last in [False] * (repetitions - 1) + [True]
    ]
    plain_metrics = harness.end_to_end(passes, startup_s)
    recorders = [each.recorder for each in passes]
    if traced:
        from bench.trace import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced_pass = harness.run_pass(args.workload, args.seed, scale, SCRATCH, tracer=tracer)
        finally:
            tracer.restore()
        recorders.append(traced_pass.recorder)
        metrics = harness.per_layer(traced_pass, passes[-1], plain_metrics)
        wanted = [metric["name"] for metric in benchmark["per_layer"]]
        if args.out:
            tracer.dump(span_path(args.out))
    else:
        metrics = plain_metrics
        wanted = [metric["name"] for metric in benchmark["end_to_end"]]
    attempted = sum(recorder.attempted for recorder in recorders)
    failed = sum(recorder.failed for recorder in recorders)
    failures = [message for recorder in recorders for message in recorder.failures]
    for message in failures:
        print(f"bench: FAILED {message}", file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "workload": args.workload, "seed": args.seed, "seconds": seconds,
                    "trace": int(traced), "attempted": attempted, "failed": failed,
                    "failures": failures,
                    # raw wall seconds of each window, repetition by repetition
                    "windows_s": [each.recorder.windows for each in passes],
                    "metrics": {
                        name: {"value": value, "unit": unit, "n": samples}
                        for name, (value, unit, samples) in metrics.items()
                    },
                },
                handle, indent=1,
            )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in wanted
                },
            }
        )
    )
    return 0 if failed == 0 else 1


def stem(out: str) -> str:
    return out[:-5] if out.endswith(".json") else out


def span_path(out: str) -> str:
    return f"{stem(out)}.spans.json"


# -- all-workloads mode ---------------------------------------------------------


def run_all(args: argparse.Namespace) -> int:
    benchmark = load_benchmark()
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    names = [workload["name"] for workload in benchmark["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
            return 2
        names = [args.workload]
    bounds = {metric["name"]: metric for metric in benchmark["end_to_end"]}
    results: Dict[str, Dict[str, Any]] = {}
    status = 0
    os.makedirs(SCRATCH, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="out-", dir=SCRATCH) as out_dir:
        for name in names:
            results[name] = {}
            for trace in (0, 1):
                out = os.path.join(out_dir, f"{name}.{trace}.json")
                if args.out and trace:
                    out = f"{stem(args.out)}.{name}.json"
                command = [
                    sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", str(args.seed), "--seconds", repr(seconds),
                    "--trace", str(trace), "--out", out,
                ]
                print(f"bench: {name} {'traced' if trace else 'plain'} ...", file=sys.stderr, flush=True)
                done = subprocess.run(
                    command, env={**os.environ, "PYTHONHASHSEED": "0"},
                    stdout=subprocess.DEVNULL, check=False,
                )
                if done.returncode not in (0, 1) or not os.path.exists(out):
                    print(f"bench: {name} trace={trace} exited {done.returncode}", file=sys.stderr)
                    return 2
                status |= done.returncode
                with open(out, encoding="utf-8") as handle:
                    results[name]["traced" if trace else "plain"] = json.load(handle)
    print_tables(results, bounds, seconds, args.seed)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"seed": args.seed, "seconds": seconds, "workloads": results}, handle, indent=1)
    return status


def print_tables(
    results: Dict[str, Dict[str, Any]], bounds: Dict[str, Any], seconds: float, seed: int
) -> None:
    sys.path.insert(0, ROOT)
    from bench.compare import SINGLE_WORKLOAD

    bounds = dict(bounds)
    for metric, (_unit, better, bound) in SINGLE_WORKLOAD.items():
        bounds[metric] = {"better": better, "bound": bound}
    print(f"# end to end (tracing off) - seed {seed}, seconds {seconds:g}")
    print(f"{'workload':<16} {'metric':<22} {'value':>14} {'unit':<6} {'n':>8}  bound")
    for name, passes in results.items():
        for metric, row in passes["plain"]["metrics"].items():
            spec = bounds.get(metric)
            if spec is None:  # failed_share
                bound = "0 (any failure fails the run)"
            else:
                bound = f"{'-' if spec['better'] == 'higher' else '+'}{spec['bound']:.0%}"
            print(f"{name:<16} {metric:<22} {row['value']:>14.4f} {row['unit']:<6} {row['n']:>8}  {bound}")
    print()
    print("# per layer (traced run; self time = span minus its children; counts are stats deltas)")
    print(f"{'metric':<38} {'unit':<6}" + "".join(f" {name[:14]:>15}" for name in results))
    layer_names = list(next(iter(results.values()))["traced"]["metrics"])
    for metric in layer_names:
        rows = [passes["traced"]["metrics"][metric] for passes in results.values()]
        print(f"{metric:<38} {rows[0]['unit']:<6}" + "".join(f" {row['value']:>15.5f}" for row in rows))
    print()
    print("# how to read the two tables together")
    print("- nothing contends (one generator thread): a faster layer saves at most its")
    print("  self-time share of the flush or query that blocks on it.")
    print("- live_map cost grows with subscriptions x observations; useful work grows with")
    print("  streaming.match_ratio x that.")
    print("- read, write and space trade against each other in docstore (mirror append vs")
    print("  scan, index insert vs window retrieve): analyst_mixed carries writes, and every")
    print("  workload carries peak_rss_mb, so a win on one side shows its cost on the other.")
    for name, passes in results.items():
        for which, data in passes.items():
            for message in data["failures"]:
                print(f"FAILED {name} ({which}): {message}")


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(argv)
    if args.trace is None:
        return run_all(args)
    if args.workload is None:
        print("bench: --trace needs --workload", file=sys.stderr)
        return 2
    return run_single(args)


if __name__ == "__main__":
    sys.exit(main())
