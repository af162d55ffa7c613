"""Scatter-gather pipeline planning and partial-``$group`` merging.

A pipeline is *fold-mergeable* when it reaches a ``$group`` whose
accumulators all combine across partitions (``$sum``/``$count``/
``$min``/``$max``/``$avg``) through a prefix that only filters or
reshapes rows without touching ``_id`` (``$match``/``$addFields``).
For those, every shard runs :attr:`GroupScatterPlan.shard_pipeline` —
the prefix plus a *partial* ``$group`` — through its own
``Collection.aggregate``, so the shard's index pushdown, plan cache and
columnar kernel all apply. The coordinator merges the small group rows
(totals add, ``$min``/``$max`` take the best, ``$avg`` travels as a sum
plus a numeric count) and runs the remaining suffix stages centrally.

Group output order matches the unsharded engine exactly: groups come
out in first-seen stream order, which is ``_id`` order, so the partial
group carries ``{"$min": "$_id"}`` — each group's first global position
— and the coordinator orders merged groups by it. ``$unwind`` is not a
prefix stage: two groups first seen in one unwound document would tie
on that marker.

Exactness is read off the value type: float addition is
order-dependent, so a float ``$sum``/``$avg`` partial (or a marker that
is not an int id) makes :meth:`GroupScatterPlan.merge` decline, and the
router gathers documents and runs the whole pipeline centrally in
global ``_id`` order — as it does for every other pipeline.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.docstore.aggregate import _safe_group_key, compile_pipeline
from repro.docstore.collection import id_order_key
from repro.docstore.errors import DocStoreError

#: Prefix stages that preserve ``_id`` and emit at most one row per
#: document.
_PREFIX_OPS = frozenset({"$match", "$addFields"})

#: Accumulators whose partial values combine without the global order;
#: $first/$last/$push/$addToSet would need it, so those gather centrally.
_MERGEABLE = frozenset({"$sum", "$avg", "$min", "$max", "$count"})

#: the partial group's first-seen marker field
_FIRST = "first"


def global_order_key(document: Dict[str, Any]) -> Tuple[int, Any]:
    """Total order over documents by ``_id`` — the global insertion
    order, since the router allocates monotonically increasing ids."""
    return id_order_key(document.get("_id"))


class GroupScatterPlan:
    """A fold-mergeable split: prefix → partial ``$group`` → suffix."""

    def __init__(
        self,
        prefix: List[Dict[str, Any]],
        group_spec: Dict[str, Any],
        suffix: List[Dict[str, Any]],
    ) -> None:
        partial: Dict[str, Any] = {"_id": group_spec["_id"]}
        #: (output name, accumulator op, partial field, $avg count field)
        self._outputs: List[Tuple[str, str, str, str]] = []
        for position, (name, acc) in enumerate(
            (name, acc) for name, acc in group_spec.items() if name != "_id"
        ):
            op, expression = next(iter(acc.items()))
            field, count_field = f"p{position}", f"n{position}"
            if op == "$count":
                partial[field] = {"$sum": 1}
            elif op == "$avg":
                partial[field] = {"$sum": expression}
                # [expression]: an argument list, so a list-valued
                # expression is one argument, not several
                partial[count_field] = {
                    "$sum": {"$cond": [{"$isNumber": [expression]}, 1, 0]}
                }
            else:
                partial[field] = {op: expression}
            self._outputs.append((name, op, field, count_field))
        partial[_FIRST] = {"$min": "$_id"}
        self.shard_pipeline = prefix + [{"$group": partial}]
        # compiled here so a malformed pipeline never reaches a shard
        compile_pipeline(self.shard_pipeline)
        self._suffix = compile_pipeline(suffix) if suffix else None

    def merge(
        self, per_shard_rows: Iterable[List[Dict[str, Any]]]
    ) -> Optional[List[Dict[str, Any]]]:
        """Combine the shards' partial group rows and run the suffix, or
        None when the merge could differ from the sequential result."""
        groups: Dict[Any, List[Dict[str, Any]]] = {}
        for rows in per_shard_rows:
            for row in rows:
                if type(row[_FIRST]) is not int:
                    return None
                groups.setdefault(_safe_group_key(row["_id"]), []).append(row)
        merged: List[Tuple[int, Dict[str, Any]]] = []
        for parts in groups.values():
            parts.sort(key=lambda part: part[_FIRST])
            # the earliest part spells the group id as the sequential
            # engine does (1 vs 1.0 group together)
            row: Dict[str, Any] = {"_id": parts[0]["_id"]}
            for name, op, field, count_field in self._outputs:
                values = [part[field] for part in parts]
                if op in ("$min", "$max"):
                    present = [value for value in values if value is not None]
                    if any(value != value for value in present):  # NaN
                        return None
                    best = min if op == "$min" else max
                    row[name] = best(present) if present else None
                    continue
                if any(type(value) is float for value in values):
                    return None
                total = sum(values)
                if op == "$avg":
                    count = sum(part[count_field] for part in parts)
                    row[name] = total / count if count else None
                else:
                    row[name] = total
            merged.append((parts[0][_FIRST], row))
        merged.sort(key=lambda pair: pair[0])
        rows = [row for _, row in merged]
        return self._suffix.run(rows) if self._suffix is not None else rows


def plan_scatter(pipeline: List[Dict[str, Any]]) -> Optional[GroupScatterPlan]:
    """Split ``pipeline`` at its first ``$group`` if fold-mergeable.

    Returns ``None`` when the pipeline must gather documents centrally
    instead; syntactically invalid pipelines also return ``None`` so
    the central path raises the engine's own error.
    """
    specs: List[Tuple[str, Any]] = []
    for stage in pipeline:
        if not isinstance(stage, dict) or len(stage) != 1:
            return None
        specs.append(next(iter(stage.items())))
    for index, (op, spec) in enumerate(specs):
        if op == "$group":
            if not isinstance(spec, dict) or "_id" not in spec:
                return None
            for name, acc in spec.items():
                if name == "_id":
                    continue
                if not isinstance(acc, dict) or len(acc) != 1:
                    return None
                if next(iter(acc)) not in _MERGEABLE:
                    return None
            try:
                return GroupScatterPlan(
                    [dict([s]) for s in specs[:index]],
                    spec,
                    [dict([s]) for s in specs[index + 1:]],
                )
            except DocStoreError:
                return None
        if op not in _PREFIX_OPS:
            return None
        if op == "$addFields" and isinstance(spec, dict) and "_id" in spec:
            return None
    return None
