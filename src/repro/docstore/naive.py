"""The naive aggregation interpreter, retained as the executable spec.

This is the original per-document, list-materializing pipeline
interpreter that ``repro.docstore.aggregate`` replaced with a compiled
streaming executor. It is kept (not exported on any hot path) as the
*oracle*: ``tests/property/test_aggregate_oracle.py`` runs randomized
documents and pipelines through both implementations and requires
identical output.

Two deliberate behaviour fixes are shared with the compiled executor so
that the two stay comparable:

- group ids are bucketed by the canonical :func:`group_key` (equal
  dicts with different insertion order land in one group, where the old
  ``repr``-based key split them);
- ``$addToSet`` preserves first-seen order (as before), but the oracle
  keeps the O(n²) list scan — it is the specification, not a hot path.
"""

from __future__ import annotations

import copy
import math
from typing import Any, Dict, Iterable, List, Optional

from repro.docstore.aggregate import _safe_group_key
from repro.docstore.cursor import sort_documents
from repro.docstore.errors import QuerySyntaxError
from repro.docstore.query import get_path, is_missing, matches


def _resolve_expression(doc: Dict[str, Any], expression: Any) -> Any:
    """Evaluate an aggregation value expression against ``doc``."""
    if isinstance(expression, str) and expression.startswith("$"):
        value = get_path(doc, expression[1:])
        return None if is_missing(value) else value
    if isinstance(expression, dict):
        if len(expression) == 1:
            op, operand = next(iter(expression.items()))
            if op.startswith("$"):
                return _apply_expr_operator(doc, op, operand)
        return {k: _resolve_expression(doc, v) for k, v in expression.items()}
    if isinstance(expression, list):
        return [_resolve_expression(doc, e) for e in expression]
    return expression


def _numeric_args(doc: Dict[str, Any], operand: Any, op: str, arity: Optional[int]) -> List[float]:
    if not isinstance(operand, list):
        operand = [operand]
    if arity is not None and len(operand) != arity:
        raise QuerySyntaxError(f"{op} requires exactly {arity} arguments")
    values = [_resolve_expression(doc, e) for e in operand]
    result = []
    for value in values:
        if value is None:
            value = 0
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise QuerySyntaxError(f"{op} requires numeric arguments, got {value!r}")
        result.append(value)
    return result


def _apply_expr_operator(doc: Dict[str, Any], op: str, operand: Any) -> Any:
    if op == "$add":
        return sum(_numeric_args(doc, operand, op, None))
    if op == "$subtract":
        a, b = _numeric_args(doc, operand, op, 2)
        return a - b
    if op == "$multiply":
        result = 1.0
        for value in _numeric_args(doc, operand, op, None):
            result *= value
        return result
    if op == "$divide":
        a, b = _numeric_args(doc, operand, op, 2)
        if b == 0:
            raise QuerySyntaxError("$divide by zero")
        return a / b
    if op == "$mod":
        a, b = _numeric_args(doc, operand, op, 2)
        if b == 0:
            raise QuerySyntaxError("$mod by zero")
        return a % b
    if op == "$floor":
        (a,) = _numeric_args(doc, operand, op, 1)
        return math.floor(a)
    if op == "$ceil":
        (a,) = _numeric_args(doc, operand, op, 1)
        return math.ceil(a)
    if op == "$abs":
        (a,) = _numeric_args(doc, operand, op, 1)
        return abs(a)
    if op == "$isNumber":
        if isinstance(operand, list):
            if len(operand) != 1:
                raise QuerySyntaxError(f"{op} requires exactly 1 arguments")
            operand = operand[0]
        value = _resolve_expression(doc, operand)
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if op == "$size":
        value = _resolve_expression(doc, operand)
        if not isinstance(value, list):
            raise QuerySyntaxError(f"$size requires an array, got {value!r}")
        return len(value)
    if op == "$concat":
        if not isinstance(operand, list):
            raise QuerySyntaxError("$concat requires a list")
        parts = [_resolve_expression(doc, e) for e in operand]
        if any(p is None for p in parts):
            return None
        if not all(isinstance(p, str) for p in parts):
            raise QuerySyntaxError("$concat requires string arguments")
        return "".join(parts)
    if op == "$cond":
        if isinstance(operand, dict):
            branches = [operand.get("if"), operand.get("then"), operand.get("else")]
        elif isinstance(operand, list) and len(operand) == 3:
            branches = operand
        else:
            raise QuerySyntaxError("$cond requires [if, then, else]")
        condition = _resolve_expression(doc, branches[0])
        return _resolve_expression(doc, branches[1] if condition else branches[2])
    if op == "$ifNull":
        if not isinstance(operand, list) or len(operand) != 2:
            raise QuerySyntaxError("$ifNull requires [expr, fallback]")
        value = _resolve_expression(doc, operand[0])
        return value if value is not None else _resolve_expression(doc, operand[1])
    raise QuerySyntaxError(f"unknown expression operator {op!r}")


# -- group accumulators -------------------------------------------------------


class _Accumulator:
    """One accumulator instance within one group (buffer then reduce)."""

    def __init__(self, op: str, expression: Any) -> None:
        self.op = op
        self.expression = expression
        self.values: List[Any] = []

    def feed(self, doc: Dict[str, Any]) -> None:
        self.values.append(_resolve_expression(doc, self.expression))

    def result(self) -> Any:
        numeric = [
            v
            for v in self.values
            if isinstance(v, (int, float)) and not isinstance(v, bool)
        ]
        if self.op == "$sum":
            return sum(numeric) if numeric else 0
        if self.op == "$avg":
            return sum(numeric) / len(numeric) if numeric else None
        if self.op == "$min":
            return min(numeric) if numeric else None
        if self.op == "$max":
            return max(numeric) if numeric else None
        if self.op == "$first":
            return self.values[0] if self.values else None
        if self.op == "$last":
            return self.values[-1] if self.values else None
        if self.op == "$push":
            return list(self.values)
        if self.op == "$addToSet":
            seen: List[Any] = []
            for value in self.values:
                if value not in seen:
                    seen.append(value)
            return seen
        if self.op == "$count":
            return len(self.values)
        raise QuerySyntaxError(f"unknown accumulator {self.op!r}")


_ACCUMULATOR_OPS = {
    "$sum",
    "$avg",
    "$min",
    "$max",
    "$first",
    "$last",
    "$push",
    "$addToSet",
    "$count",
}


def _stage_group(docs: List[Dict[str, Any]], spec: Dict[str, Any]) -> List[Dict[str, Any]]:
    if "_id" not in spec:
        raise QuerySyntaxError("$group requires an _id expression")
    id_expr = spec["_id"]
    accumulator_specs: Dict[str, tuple] = {}
    for field_name, acc in spec.items():
        if field_name == "_id":
            continue
        if not isinstance(acc, dict) or len(acc) != 1:
            raise QuerySyntaxError(
                f"$group field {field_name!r} must be a single-accumulator document"
            )
        op, expression = next(iter(acc.items()))
        if op not in _ACCUMULATOR_OPS:
            raise QuerySyntaxError(f"unknown accumulator {op!r}")
        accumulator_specs[field_name] = (op, expression)

    groups: Dict[Any, tuple] = {}  # canonical key -> (group id value, accumulators)
    order: List[Any] = []
    for doc in docs:
        group_id = None if id_expr is None else _resolve_expression(doc, id_expr)
        key = _safe_group_key(group_id)
        if key not in groups:
            accumulators = {
                name: _Accumulator(op, expression)
                for name, (op, expression) in accumulator_specs.items()
            }
            groups[key] = (group_id, accumulators)
            order.append(key)
        for accumulator in groups[key][1].values():
            accumulator.feed(doc)

    results = []
    for key in order:
        group_id, accumulators = groups[key]
        out: Dict[str, Any] = {"_id": group_id}
        for name, accumulator in accumulators.items():
            out[name] = accumulator.result()
        results.append(out)
    return results


def _stage_project(docs: List[Dict[str, Any]], spec: Dict[str, Any]) -> List[Dict[str, Any]]:
    if not spec:
        raise QuerySyntaxError("$project requires a non-empty spec")
    inclusions = {
        k for k, v in spec.items() if v in (1, True) and k != "_id"
    }
    exclusions = {k for k, v in spec.items() if v in (0, False)}
    computed = {
        k: v for k, v in spec.items() if not isinstance(v, bool) and v not in (0, 1)
    }
    if inclusions and (exclusions - {"_id"}):
        raise QuerySyntaxError("$project cannot mix inclusion and exclusion")
    results = []
    for doc in docs:
        if inclusions or computed:
            out: Dict[str, Any] = {}
            if spec.get("_id", 1) in (1, True) and "_id" in doc:
                out["_id"] = doc["_id"]
            for path in inclusions:
                value = get_path(doc, path)
                if not is_missing(value):
                    out[path] = copy.deepcopy(value)
            for path, expression in computed.items():
                out[path] = _resolve_expression(doc, expression)
        else:
            out = copy.deepcopy(doc)
            for path in exclusions:
                out.pop(path, None)
        results.append(out)
    return results


def _stage_add_fields(docs: List[Dict[str, Any]], spec: Dict[str, Any]) -> List[Dict[str, Any]]:
    results = []
    for doc in docs:
        out = copy.deepcopy(doc)
        for field_name, expression in spec.items():
            out[field_name] = _resolve_expression(doc, expression)
        results.append(out)
    return results


def _stage_unwind(docs: List[Dict[str, Any]], spec: Any) -> List[Dict[str, Any]]:
    if isinstance(spec, str):
        path = spec
        keep_empty = False
    elif isinstance(spec, dict) and "path" in spec:
        path = spec["path"]
        keep_empty = bool(spec.get("preserveNullAndEmptyArrays", False))
    else:
        raise QuerySyntaxError("$unwind requires a '$path' string or {path: ...}")
    if not path.startswith("$"):
        raise QuerySyntaxError("$unwind path must start with '$'")
    field_path = path[1:]
    results = []
    for doc in docs:
        value = get_path(doc, field_path)
        if is_missing(value) or value is None or (isinstance(value, list) and not value):
            if keep_empty:
                results.append(copy.deepcopy(doc))
            continue
        elements = value if isinstance(value, list) else [value]
        for element in elements:
            out = copy.deepcopy(doc)
            out[field_path] = copy.deepcopy(element)
            results.append(out)
    return results


def _stage_bucket(docs: List[Dict[str, Any]], spec: Dict[str, Any]) -> List[Dict[str, Any]]:
    """MongoDB's $bucket: histogram documents by boundary intervals."""
    group_by = spec.get("groupBy")
    boundaries = spec.get("boundaries")
    if not isinstance(group_by, str) or not group_by.startswith("$"):
        raise QuerySyntaxError("$bucket requires a '$field' groupBy")
    if (
        not isinstance(boundaries, list)
        or len(boundaries) < 2
        or boundaries != sorted(boundaries)
    ):
        raise QuerySyntaxError("$bucket requires sorted boundaries (>= 2)")
    has_default = "default" in spec
    default_key = spec.get("default")
    output_spec = spec.get("output", {"count": {"$sum": 1}})

    buckets: Dict[Any, List[Dict[str, Any]]] = {}
    order: List[Any] = list(boundaries[:-1]) + ([default_key] if has_default else [])
    for key in order:
        buckets.setdefault(key, [])
    for doc in docs:
        value = _resolve_expression(doc, group_by)
        placed = False
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            for low, high in zip(boundaries, boundaries[1:]):
                if low <= value < high:
                    buckets[low].append(doc)
                    placed = True
                    break
        if not placed:
            if not has_default:
                raise QuerySyntaxError(
                    f"$bucket value {value!r} outside boundaries and no default"
                )
            buckets[default_key].append(doc)

    results = []
    emitted = set()
    for key in order:
        if id(buckets[key]) in emitted:
            continue
        emitted.add(id(buckets[key]))
        members = buckets[key]
        if not members:
            continue
        out: Dict[str, Any] = {"_id": key}
        for name, accumulator in output_spec.items():
            if not isinstance(accumulator, dict) or len(accumulator) != 1:
                raise QuerySyntaxError("$bucket output must use accumulators")
            op, expression = next(iter(accumulator.items()))
            acc = _Accumulator(op, expression)
            for doc in members:
                acc.feed(doc)
            out[name] = acc.result()
        results.append(out)
    return results


def _stage_sort_by_count(docs: List[Dict[str, Any]], spec: Any) -> List[Dict[str, Any]]:
    """MongoDB's $sortByCount: group by expression, count, sort desc."""
    if not (isinstance(spec, str) and spec.startswith("$")) and not isinstance(
        spec, dict
    ):
        raise QuerySyntaxError("$sortByCount requires a '$field' or expression")
    grouped = _stage_group(docs, {"_id": spec, "count": {"$sum": 1}})
    return sorted(grouped, key=lambda d: (-d["count"], repr(d["_id"])))


def naive_aggregate(
    documents: Iterable[Dict[str, Any]], pipeline: List[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """Run ``pipeline`` over ``documents`` with the reference interpreter."""
    docs: List[Dict[str, Any]] = list(documents)
    for stage in pipeline:
        if not isinstance(stage, dict) or len(stage) != 1:
            raise QuerySyntaxError("each pipeline stage must be a single-key dict")
        op, spec = next(iter(stage.items()))
        if op == "$match":
            docs = [d for d in docs if matches(d, spec)]
        elif op == "$group":
            docs = _stage_group(docs, spec)
        elif op == "$project":
            docs = _stage_project(docs, spec)
        elif op == "$addFields":
            docs = _stage_add_fields(docs, spec)
        elif op == "$sort":
            docs = sort_documents(docs, list(spec.items()))
        elif op == "$limit":
            if not isinstance(spec, int) or spec < 0:
                raise QuerySyntaxError("$limit requires a non-negative int")
            docs = docs[:spec]
        elif op == "$skip":
            if not isinstance(spec, int) or spec < 0:
                raise QuerySyntaxError("$skip requires a non-negative int")
            docs = docs[spec:]
        elif op == "$unwind":
            docs = _stage_unwind(docs, spec)
        elif op == "$bucket":
            docs = _stage_bucket(docs, spec)
        elif op == "$sortByCount":
            docs = _stage_sort_by_count(docs, spec)
        elif op == "$count":
            if not isinstance(spec, str) or not spec:
                raise QuerySyntaxError("$count requires a field name")
            docs = [{spec: len(docs)}]
        else:
            raise QuerySyntaxError(f"unknown pipeline stage {op!r}")
    return [copy.deepcopy(d) for d in docs]
