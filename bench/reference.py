"""Output checks: plain-Python recomputes the program's answers must equal.

Every ``verify_*`` function takes the program's result plus the stored
documents (``iter_documents()``, global insertion order) and returns a
list of failure messages — empty when the result is correct. They use
no docstore query, index, pipeline or kernel: a loop over dicts is the
whole oracle, so a fast path that returns a wrong answer cannot agree
with itself here. The one shared piece is
:func:`repro.streaming.tiles.tiles_from_documents`, which is itself the
repo's from-scratch tile oracle.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Iterable, List, Optional, Sequence

import repro.core  # noqa: F401  repro.sharding imports repro.core and vice versa; core must load first
from repro.sharding.region import region_of
from repro.streaming.tiles import tiles_from_documents

Documents = Sequence[Dict[str, Any]]

ACCURACY_BOUNDS = (0, 6, 20, 50, 100, 200, 500)
FLOAT_TOLERANCE = 1e-9


def verify_conservation(
    stored: int, totals: Optional[Dict[str, int]], documents: Documents, expected: int
) -> List[str]:
    """Nothing lost, nothing doubled: the collection's count, the
    materialized totals and the snapshot all equal what was sent."""
    failures = []
    if stored != expected:
        failures.append(f"collection holds {stored} documents, {expected} were acknowledged")
    if len(documents) != expected:
        failures.append(f"snapshot holds {len(documents)} documents, expected {expected}")
    localized = sum(1 for doc in documents if doc.get("location") is not None)
    want = {"total": expected, "localized": localized}
    if totals != want:
        failures.append(f"materialized totals {totals} != recomputed {want}")
    return failures


def verify_window(
    rows: List[Dict[str, Any]],
    documents: Documents,
    app_id: str,
    since: float,
    until: float,
    limit: int,
) -> List[str]:
    """A ``taken_at`` window retrieve: newest first, at most ``limit``."""
    matching = [
        doc
        for doc in documents
        if doc.get("app_id") == app_id and since <= doc["taken_at"] < until
    ]
    matching.sort(key=lambda doc: doc["taken_at"], reverse=True)
    want = [doc["obs_id"] for doc in matching[:limit]]
    got = [row.get("obs_id") for row in rows]
    if got != want:
        return [f"window [{since}, {until}) returned {len(got)} rows, expected {len(want)} (or order differs)"]
    return []


def _bucket(accuracy: float) -> Any:
    for low, high in zip(ACCURACY_BOUNDS, ACCURACY_BOUNDS[1:]):
        if low <= accuracy < high:
            return low
    return "coarse"


def verify_accuracy_buckets(rows: List[Dict[str, Any]], documents: Documents) -> List[str]:
    """Figs. 10-13: count and mean reported accuracy per interval."""
    counts: Counter = Counter()
    sums: Dict[Any, float] = {}
    for doc in documents:
        location = doc.get("location")
        if location is None:
            continue
        bucket = _bucket(location["accuracy_m"])
        counts[bucket] += 1
        sums[bucket] = sums.get(bucket, 0.0) + location["accuracy_m"]
    got = {row["_id"]: row for row in rows}
    failures = []
    if set(got) != set(counts):
        return [f"accuracy buckets {sorted(map(str, got))} != {sorted(map(str, counts))}"]
    for bucket, count in counts.items():
        row = got[bucket]
        mean = sums[bucket] / count
        if row["count"] != count or abs(row["mean"] - mean) > FLOAT_TOLERANCE * mean:
            failures.append(f"accuracy bucket {bucket}: got {row}, expected count={count} mean={mean}")
    return failures


def verify_hourly_distribution(shares: List[float], documents: Documents) -> List[str]:
    """Fig. 18: share of measurements per hour of day."""
    counts = [0] * 24
    for doc in documents:
        counts[int((doc["taken_at"] % 86400) // 3600)] += 1
    total = sum(counts)
    want = [count / total for count in counts]
    if len(shares) != 24 or any(abs(a - b) > FLOAT_TOLERANCE for a, b in zip(shares, want)):
        return ["hourly distribution differs from the recompute"]
    return []


def verify_top_contributors(
    names: List[str], documents: Documents, model: str, limit: int
) -> List[str]:
    """Fig. 15: the most active contributors of one model. Ties at the
    cut-off may resolve either way, so the check is on the counts."""
    counts = Counter(doc["contributor"] for doc in documents if doc.get("model") == model)
    want = sorted(counts.values(), reverse=True)[:limit]
    got = [counts.get(name, 0) for name in names]
    if got != want or len(set(names)) != len(names):
        return [f"top contributors of {model}: counts {got} != {want}"]
    return []


def verify_scan(kind: str, result: Any, documents: Documents) -> List[str]:
    if kind == "accuracy_buckets":
        return verify_accuracy_buckets(result, documents)
    return verify_hourly_distribution(result, documents)


def expected_stream(
    documents: Documents, app_id: str, regions: Iterable[str], cell_m: float
) -> List[Any]:
    """What a dashboard subscribed to ``regions`` (observations and
    tiles) must have been pushed: per matching stored document, its
    ``_id`` then its region's post-fold tile count."""
    wanted = set(regions)
    folded: Counter = Counter()
    events: List[Any] = []
    for doc in documents:
        if doc.get("app_id") != app_id:
            continue
        region = region_of(doc, cell_m)
        folded[region] += 1
        if region in wanted:
            events.append(("observation", doc["_id"]))
            events.append(("tile", region, folded[region]))
    return events


def verify_stream(
    events: List[Dict[str, Any]],
    documents: Documents,
    app_id: str,
    regions: Iterable[str],
    cell_m: float,
) -> List[str]:
    """A fully drained dashboard equals a brute-force re-filter of the
    stored documents, with contiguous cursors from 1."""
    failures = []
    cursors = [event.get("cursor") for event in events]
    if cursors != list(range(1, len(events) + 1)):
        failures.append("stream cursors are not contiguous from 1")
    got = [
        ("observation", event["_id"])
        if event["kind"] == "observation"
        else (event["kind"], event.get("region"), event.get("count"))
        for event in events
    ]
    want = expected_stream(documents, app_id, regions, cell_m)
    if got != want:
        failures.append(f"stream holds {len(got)} events, the re-filter gives {len(want)} (or order differs)")
    return failures


def verify_tiles(
    snapshot: Dict[str, Dict[str, Any]], documents: Documents, cell_m: float
) -> List[str]:
    """The push-maintained map equals a from-scratch fold."""
    if snapshot != tiles_from_documents(documents, cell_m):
        return ["tiles_snapshot differs from tiles_from_documents over the stored documents"]
    return []


def zone_of(document: Dict[str, Any]) -> Optional[str]:
    """The 1 km zone a wire document routes under (``BrokerUplink``)."""
    location = document.get("location")
    if location is None:
        return None
    return f"Z{int(location['x_m'] // 1000)}-{int(location['y_m'] // 1000)}"
