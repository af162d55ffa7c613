"""The region routing key.

Shards are keyed by *where* an observation was taken, mirroring the
paper's per-region noise-map partitioning. The key is derived only
from ingest-stable fields (region/location/taken_at survive the
privacy scrub unchanged), so the wire form and the stored form of the
same observation always route to the same shard — its ``obs_id`` dedup
key lives on exactly one shard.

Never raises: observations with no usable location fall back to a
per-day bucket, and anything else lands in ``"default"``.
"""

from __future__ import annotations

import math
from typing import Any, Dict

DEFAULT_CELL_M = 500.0


def region_of(document: Dict[str, Any], cell_m: float = DEFAULT_CELL_M) -> str:
    """Deterministic region key for an observation document."""
    region = document.get("region")
    if isinstance(region, str) and region:
        return region
    location = document.get("location")
    if isinstance(location, dict):
        x = location.get("x_m")
        y = location.get("y_m")
        if (
            isinstance(x, (int, float))
            and isinstance(y, (int, float))
            and not isinstance(x, bool)
            and not isinstance(y, bool)
            and math.isfinite(x)
            and math.isfinite(y)
        ):
            return f"g{math.floor(x / cell_m)}:{math.floor(y / cell_m)}"
    taken = document.get("taken_at")
    if isinstance(taken, (int, float)) and not isinstance(taken, bool) and math.isfinite(taken):
        return f"d{math.floor(taken / 86400.0)}"
    return "default"
