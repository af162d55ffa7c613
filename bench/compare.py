"""Compare two sets of benchmark runs, one row per (metric, workload).

``python bench/compare.py --base A1.json A2.json ... --change B1.json B2.json ...``

Each file is an ``--out`` file of ``bench/run.py`` (either mode; only
plain, tracing-off results are read). Runs pair up by position: the
i-th base file against the i-th change file of the same workload — run
them alternating which side goes first.

Verdicts, from the bound in ``BENCHMARK.json`` and the paired-runs rule
of the choosing-metrics guide (section 8):

``regressed``   the change's median is worse than the base's by more
                than the metric's bound;
``improved``    the change wins at least nine tenths of the pairs (ties
                count for neither) and the medians differ by more than
                the base's own quartile distance;
``unresolved``  neither, but one side's quartile distance is wider than
                the bound, so "no worse than the bound" is not shown —
                unless every change run beats every base run;
``unchanged``   otherwise.

Exits 1 on any regression or if the change's ``failed_share`` is higher
on any workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The end-to-end metrics that exist on one workload only, with the
#: issue's bounds: name -> (unit, better, bound). ``BENCHMARK.json``
#: cannot hold them — the driver wants every metric it lists on every
#: workload and never 0 — so this table is their one home; every other
#: bound is read from ``BENCHMARK.json``. The ``*_after_write_*`` ones
#: are ``analyst_mixed``'s first top-k / dashboard read after a write.
SINGLE_WORKLOAD = {
    "flush_p99_ms": ("ms", "lower", 0.10),
    "staleness_p50_ms": ("ms", "lower", 0.10),
    "staleness_p99_ms": ("ms", "lower", 0.10),
    "recover_s": ("s", "lower", 0.15),
    "query_topk_after_write_p50_ms": ("ms", "lower", 0.10),
    "dashboard_after_write_p50_us": ("us", "lower", 0.10),
}

Samples = Dict[Tuple[str, str], List[float]]  # (workload, metric) -> one value per run


def load(paths: List[str]) -> Samples:
    samples: Samples = defaultdict(list)
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        if "workloads" in data:
            runs = [(name, passes["plain"]) for name, passes in data["workloads"].items()]
        elif data.get("trace"):
            continue
        else:
            runs = [(data["workload"], data)]
        for workload, run in runs:
            for metric, row in run["metrics"].items():
                samples[(workload, metric)].append(row["value"])
    return samples


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def verdict(base: List[float], change: List[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0  # sign * (change - base) > 0 means worse
    base_low, base_median, base_high = quartiles(base)
    change_low, change_median, change_high = quartiles(change)
    worse_by = sign * (change_median - base_median) / abs(base_median) if base_median else 0.0
    if worse_by > bound:
        return "regressed"
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) < 0)
    gap = abs(change_median - base_median)
    if pairs and wins >= 0.9 * len(pairs) and gap > base_high - base_low:
        return "improved"
    spread = max(
        (base_high - base_low) / abs(base_median) if base_median else 0.0,
        (change_high - change_low) / abs(change_median) if change_median else 0.0,
    )
    every_run_better = all(sign * (c - b) < 0 for b in base for c in change)
    if spread > bound and not every_run_better:
        return "unresolved"
    return "unchanged"


def compare(base: Samples, change: Samples, benchmark: Dict[str, Any]) -> Tuple[List[str], int]:
    bounds = {m["name"]: (m["better"], m["bound"]) for m in benchmark["end_to_end"]}
    bounds.update({name: spec[1:] for name, spec in SINGLE_WORKLOAD.items()})
    lines = [
        f"{'workload':<16} {'metric':<22} {'base q1/median/q3':>34} {'change q1/median/q3':>34}  verdict"
    ]
    status = 0
    for workload in [w["name"] for w in benchmark["workloads"]]:
        for metric, (better, bound) in bounds.items():
            b, c = base.get((workload, metric)), change.get((workload, metric))
            if not b or not c:
                continue
            result = verdict(b, c, better, bound)
            status |= result == "regressed"
            row = "".join(
                f" {'/'.join(f'{value:.4g}' for value in quartiles(side)):>34}" for side in (b, c)
            )
            lines.append(f"{workload:<16} {metric:<22}{row}  {result} (n={len(b)}/{len(c)}, bound {bound:.0%})")
        b, c = base.get((workload, "failed_share")), change.get((workload, "failed_share"))
        if b and c and max(c) > max(b):
            lines.append(f"{workload:<16} failed_share rose from {max(b):.4g} to {max(c):.4g}")
            status = 1
    return lines, status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True, help="--out files of the parent commit")
    parser.add_argument("--change", nargs="+", required=True, help="--out files of the change")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    lines, status = compare(load(args.base), load(args.change), benchmark)
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main())
