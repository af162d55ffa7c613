"""Continuous-query filter specifications.

A :class:`FilterSpec` is the standing predicate of one live
subscription: which observations the subscriber wants pushed. The
filterable dimensions mirror the routing dimensions the rest of the
middleware already speaks — owning app, datatype, device model, the
sharding layer's location grid cell (:func:`repro.sharding.region.
region_of`, 500 m cells by default), and a ``taken_at`` window.

Every dimension is *ingest-stable*: the privacy scrub rewrites
``user_id``/``obs_id`` but never touches these fields, so the same spec
matches identically against the wire form (what the sharded router
sees) and the stored form (what the unsharded ingest path sees). That
is the property the push ≡ poll oracle leans on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Optional

from repro.core.errors import ValidationError

#: the datatype an observation without an explicit ``datatype`` field
#: carries — the same default the sharded notification plane stamps.
DEFAULT_DATATYPE = "Observation"


def datatype_of(document: Dict[str, Any]) -> str:
    """The datatype a document publishes under."""
    return document.get("datatype") or DEFAULT_DATATYPE


@dataclass(frozen=True)
class FilterSpec:
    """One subscription's standing predicate (every field optional).

    Attributes:
        app_id: only observations ingested for this app.
        datatype: only this datatype (``"Observation"`` matches
            documents without an explicit datatype field).
        model: only this device model.
        regions: only observations whose region routing key (grid
            cell / day bucket / ``"default"``) is in this set.
        since: only ``taken_at >= since``.
        until: only ``taken_at < until``.
    """

    app_id: Optional[str] = None
    datatype: Optional[str] = None
    model: Optional[str] = None
    regions: Optional[FrozenSet[str]] = None
    since: Optional[float] = None
    until: Optional[float] = None

    def matches(
        self, app_id: str, document: Dict[str, Any], region: str
    ) -> bool:
        """Whether one stored/wire observation satisfies this spec.

        The whole predicate: what the subscription index answers by
        bucket placement (app, region) plus :meth:`matches_fields`.
        """
        if self.app_id is not None and app_id != self.app_id:
            return False
        if self.regions is not None and region not in self.regions:
            return False
        return self.matches_fields(document)

    def matches_fields(self, document: Dict[str, Any]) -> bool:
        """The residual predicate — datatype, model, ``taken_at`` window.

        What is left to evaluate once app and region are settled: the
        fan-out runs only this on the candidates its ``(app, region)``
        index returns.
        """
        if self.datatype is not None and datatype_of(document) != self.datatype:
            return False
        if self.model is not None and document.get("model") != self.model:
            return False
        if self.since is not None or self.until is not None:
            taken_at = document.get("taken_at")
            if not isinstance(taken_at, (int, float)) or isinstance(taken_at, bool):
                return False
            if self.since is not None and taken_at < self.since:
                return False
            if self.until is not None and taken_at >= self.until:
                return False
        return True

    def wants_region(self, region: str) -> bool:
        """Whether tile deltas for ``region`` pass the region filter."""
        return self.regions is None or region in self.regions

    @classmethod
    def from_body(cls, app_id: str, body: Dict[str, Any]) -> "FilterSpec":
        """Build a spec from a REST subscription body.

        The path's ``app_id`` is forced into the spec: a subscriber only
        ever streams the app it authenticated against.
        """
        regions = body.get("regions")
        if regions is not None:
            if not isinstance(regions, (list, tuple, set, frozenset)) or not all(
                isinstance(region, str) for region in regions
            ):
                raise ValidationError("'regions' must be a list of region keys")
            regions = frozenset(regions)
        for bound in ("since", "until"):
            value = body.get(bound)
            if value is not None and (
                not isinstance(value, (int, float)) or isinstance(value, bool)
            ):
                raise ValidationError(f"{bound!r} must be numeric")
        for text in ("datatype", "model"):
            value = body.get(text)
            if value is not None and not isinstance(value, str):
                raise ValidationError(f"{text!r} must be a string")
        return cls(
            app_id=app_id,
            datatype=body.get("datatype"),
            model=body.get("model"),
            regions=regions,
            since=body.get("since"),
            until=body.get("until"),
        )
