"""Crowd-sensing analytics.

Figure 2: "generates statistics about the app/clients operations".
Every statistic here is computed with the document store's aggregation
pipeline over the observations collection — the same queries the paper's
own analysis must have run over MongoDB — and these are exactly the
aggregates the Figure benches consume.

The four highest-traffic statistics (totals, the Figure 9 per-model
table, the Figure 8 cumulative curve, the Figure 20 provider shares)
are additionally served from :class:`~repro.core.materialized.
MaterializedAnalytics` counters, which every read brings current; a
view that is degraded (or a query variant the counters do not cover)
falls back to the full pipeline, whose ``_*_pipeline`` forms are kept
as both the fallback and the oracle the integration tests compare
against.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.datamgmt import OBSERVATIONS
from repro.core.materialized import MaterializedAnalytics
from repro.docstore.store import DocumentStore


class AnalyticsEngine:
    """Aggregate statistics over stored observations.

    Args:
        store: the backing document store.
        materialized: the counter view to serve the hot statistics
            from (the server shares its ``DataManager``'s). When None,
            the engine makes its own. Either way the view is built by
            its first read and pulls what was inserted since at every
            later one; no ingest step feeds it.
        observations: an override for the observations collection —
            any object with ``count``/``aggregate``. A sharded server
            passes its scatter-gather collection facade here so every
            statistic spans the whole fleet.
    """

    def __init__(
        self,
        store: DocumentStore,
        materialized: Optional[MaterializedAnalytics] = None,
        observations: Optional[Any] = None,
    ) -> None:
        self._observations = (
            observations if observations is not None else store.collection(OBSERVATIONS)
        )
        self._materialized = (
            materialized
            if materialized is not None
            else MaterializedAnalytics(self._observations)
        )

    # -- volume -----------------------------------------------------------------

    def totals(self) -> Dict[str, int]:
        """Total and localized observation counts."""
        counts = self._materialized.totals()
        if counts is not None:
            return counts
        return self._totals_pipeline()

    def _totals_pipeline(self) -> Dict[str, int]:
        total = self._observations.count()
        localized = self._observations.count({"location": {"$exists": True}})
        return {"total": total, "localized": localized}

    def per_model_table(self) -> List[Dict[str, Any]]:
        """The Figure 9 table: devices / measurements / localized per model."""
        groups = self._materialized.per_model_groups()
        if groups is None:
            return self._per_model_table_pipeline()
        # same order as the pipeline: groups in first-seen order, then a
        # stable descending sort on the localized count
        groups.sort(key=lambda row: row["localized"], reverse=True)
        return [
            {
                "model": row["_id"],
                "devices": row["devices"],
                "measurements": row["measurements"],
                "localized": row["localized"],
            }
            for row in groups
        ]

    def _per_model_table_pipeline(self) -> List[Dict[str, Any]]:
        rows = self._observations.aggregate(
            [
                {
                    "$group": {
                        "_id": "$model",
                        "measurements": {"$sum": 1},
                        "contributors": {"$addToSet": "$contributor"},
                        "localized": {
                            "$sum": {
                                "$cond": [
                                    {"$ifNull": ["$location", False]},
                                    1,
                                    0,
                                ]
                            }
                        },
                    }
                },
                {"$sort": {"localized": -1}},
            ]
        )
        return [
            {
                "model": row["_id"],
                "devices": len(row["contributors"]),
                "measurements": row["measurements"],
                "localized": row["localized"],
            }
            for row in rows
        ]

    def cumulative_by_day(self) -> List[Dict[str, Any]]:
        """Per-day and cumulative observation counts (Figure 8)."""
        rows = self._materialized.day_counts()
        if rows is None:
            rows = self._cumulative_rows_pipeline()
        cumulative = 0
        out = []
        for row in rows:
            cumulative += row["count"]
            out.append(
                {"day": row["_id"], "count": row["count"], "cumulative": cumulative}
            )
        return out

    def _cumulative_rows_pipeline(self) -> List[Dict[str, Any]]:
        return self._observations.aggregate(
            [
                {
                    "$addFields": {
                        "day": {"$floor": {"$divide": ["$taken_at", 86400]}}
                    }
                },
                {"$group": {"_id": "$day", "count": {"$sum": 1}}},
                {"$sort": {"_id": 1}},
            ]
        )

    def _cumulative_by_day_pipeline(self) -> List[Dict[str, Any]]:
        cumulative = 0
        out = []
        for row in self._cumulative_rows_pipeline():
            cumulative += row["count"]
            out.append(
                {"day": row["_id"], "count": row["count"], "cumulative": cumulative}
            )
        return out

    # -- location ------------------------------------------------------------------

    def provider_shares(self, mode: Optional[str] = None) -> Dict[str, float]:
        """Share of each provider among localized observations.

        ``mode`` restricts to one sensing mode (Figure 20's three bars).
        """
        if mode is None:
            rows = self._materialized.provider_counts()
            if rows is not None:
                total = sum(row["count"] for row in rows)
                if total == 0:
                    return {}
                return {row["_id"]: row["count"] / total for row in rows}
        return self._provider_shares_pipeline(mode)

    def _provider_shares_pipeline(
        self, mode: Optional[str] = None
    ) -> Dict[str, float]:
        match: Dict[str, Any] = {"location": {"$exists": True}}
        if mode is not None:
            match["mode"] = mode
        rows = self._observations.aggregate(
            [
                {"$match": match},
                {"$group": {"_id": "$location.provider", "count": {"$sum": 1}}},
            ]
        )
        total = sum(row["count"] for row in rows)
        if total == 0:
            return {}
        return {row["_id"]: row["count"] / total for row in rows}

    def accuracy_values(self, provider: Optional[str] = None) -> List[float]:
        """Reported accuracies of localized observations (Figs. 10-13)."""
        match: Dict[str, Any] = {"location": {"$exists": True}}
        if provider is not None:
            match["location.provider"] = provider
        rows = self._observations.aggregate(
            [
                {"$match": match},
                {"$project": {"accuracy": "$location.accuracy_m", "_id": 0}},
            ]
        )
        return [row["accuracy"] for row in rows]

    def accuracy_buckets(
        self, provider: Optional[str] = None
    ) -> List[Dict[str, Any]]:
        """Figure 10-13 histograms as one ``$bucket`` pipeline.

        Returns rows ``{_id: lower bound (or 'coarse'), count, mean}``
        over the paper's accuracy intervals.
        """
        match: Dict[str, Any] = {"location": {"$exists": True}}
        if provider is not None:
            match["location.provider"] = provider
        return self._observations.aggregate(
            [
                {"$match": match},
                {
                    "$bucket": {
                        "groupBy": "$location.accuracy_m",
                        "boundaries": [0, 6, 20, 50, 100, 200, 500],
                        "default": "coarse",
                        "output": {
                            "count": {"$sum": 1},
                            "mean": {"$avg": "$location.accuracy_m"},
                        },
                    }
                },
            ]
        )

    # -- noise ---------------------------------------------------------------------------

    def spl_values(
        self, model: Optional[str] = None, contributor: Optional[str] = None
    ) -> List[float]:
        """Reported dB(A) values, optionally per model / contributor."""
        match: Dict[str, Any] = {}
        if model is not None:
            match["model"] = model
        if contributor is not None:
            match["contributor"] = contributor
        pipeline: List[Dict[str, Any]] = []
        if match:
            pipeline.append({"$match": match})
        pipeline.append({"$project": {"dba": "$noise_dba", "_id": 0}})
        return [row["dba"] for row in self._observations.aggregate(pipeline)]

    def top_contributors(self, model: str, limit: int = 20) -> List[str]:
        """The most active contributor pseudonyms for a model (Fig. 15)."""
        rows = self._observations.aggregate(
            [
                {"$match": {"model": model}},
                {"$group": {"_id": "$contributor", "count": {"$sum": 1}}},
                {"$sort": {"count": -1}},
                {"$limit": limit},
            ]
        )
        return [row["_id"] for row in rows]

    # -- participation ---------------------------------------------------------------------

    def hourly_distribution(self, model: Optional[str] = None) -> List[float]:
        """Share of measurements per hour of day (Figures 18-19)."""
        pipeline: List[Dict[str, Any]] = []
        if model is not None:
            pipeline.append({"$match": {"model": model}})
        pipeline += [
            {
                "$addFields": {
                    "hour": {
                        "$floor": {
                            "$divide": [{"$mod": ["$taken_at", 86400]}, 3600]
                        }
                    }
                }
            },
            {"$group": {"_id": "$hour", "count": {"$sum": 1}}},
            {"$sort": {"_id": 1}},
        ]
        rows = self._observations.aggregate(pipeline)
        counts = {int(row["_id"]): row["count"] for row in rows}
        total = sum(counts.values())
        if total == 0:
            return [0.0] * 24
        return [counts.get(hour, 0) / total for hour in range(24)]

    def hourly_distribution_by_contributor(self, model: str) -> Dict[str, List[float]]:
        """Per-contributor hourly shares for one model (Figure 19)."""
        rows = self._observations.aggregate(
            [
                {"$match": {"model": model}},
                {
                    "$addFields": {
                        "hour": {
                            "$floor": {
                                "$divide": [{"$mod": ["$taken_at", 86400]}, 3600]
                            }
                        }
                    }
                },
                {
                    "$group": {
                        "_id": {"contributor": "$contributor", "hour": "$hour"},
                        "count": {"$sum": 1},
                    }
                },
            ]
        )
        per_user: Dict[str, Dict[int, int]] = {}
        for row in rows:
            contributor = row["_id"]["contributor"]
            hour = int(row["_id"]["hour"])
            per_user.setdefault(contributor, {})[hour] = row["count"]
        out: Dict[str, List[float]] = {}
        for contributor, counts in per_user.items():
            total = sum(counts.values())
            out[contributor] = [counts.get(h, 0) / total for h in range(24)]
        return out

    # -- activities ------------------------------------------------------------------------

    def activity_distribution(self) -> Dict[str, float]:
        """Share of each activity label (Figure 21)."""
        rows = self._observations.aggregate(
            [{"$group": {"_id": "$activity.label", "count": {"$sum": 1}}}]
        )
        total = sum(row["count"] for row in rows)
        if total == 0:
            return {}
        return {row["_id"]: row["count"] / total for row in rows}

    # -- delays ------------------------------------------------------------------------------

    def transmission_delays(
        self, app_version: Optional[str] = None
    ) -> List[float]:
        """received_at - taken_at for every stored observation (Fig. 17)."""
        pipeline: List[Dict[str, Any]] = []
        if app_version is not None:
            pipeline.append({"$match": {"app_version": app_version}})
        pipeline.append(
            {
                "$project": {
                    "_id": 0,
                    "delay": {"$subtract": ["$received_at", "$taken_at"]},
                }
            }
        )
        return [row["delay"] for row in self._observations.aggregate(pipeline)]
