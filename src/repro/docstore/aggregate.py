"""Aggregation pipeline: a compiled, streaming executor.

Stages: ``$match $project $addFields $group $sort $limit $skip $unwind
$count $bucket $sortByCount``. Group accumulators: ``$sum $avg $min
$max $first $last $push $addToSet $count``. Value expressions support ``"$field"`` references
(dotted), literals, and the arithmetic/array operators GoFlow analytics
uses (``$add $subtract $multiply $divide $floor $ceil $abs $size
$concat $cond $ifNull $isNumber``).

GoFlow's crowd-sensing analytics component (paper Figure 2) is built on
this pipeline: hourly participation histograms, per-model measurement
counts, localized-share computation are all ``$group`` queries.

Execution model
---------------

The paper's evaluation figures are aggregations over 23M observations;
re-walking an expression AST per document and materializing a list per
stage is what made the analytics read path the slowest in the system.
This module therefore *compiles* a pipeline once and streams documents
through it:

- value expressions compile to closures (``compile_expression``), so
  the AST is walked once per pipeline instead of once per document;
- ``$match``/``$project``/``$addFields``/``$unwind`` run as generator
  stages — no per-stage list materialization;
- ``$group``/``$bucket`` fold incrementally with O(1) state per
  accumulator instead of buffering every value and reducing at the end
  (``$push``/``$addToSet`` still hold their result values, which *is*
  their output);
- adjacent ``$sort`` + ``$limit`` fuse into a ``heapq`` top-k, so a
  "top 20 contributors" query never fully sorts the stream;
- results are decoupled from stored documents with one ``json_clone``
  at the pipeline exit rather than ``copy.deepcopy`` per stage.

``repro.docstore.naive`` retains the direct interpreter as the
executable specification; the property suite in
``tests/property/test_aggregate_oracle.py`` checks this executor
against it on randomized documents and pipelines.
"""

from __future__ import annotations

import heapq
import math
from itertools import islice
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.docstore.clone import json_clone
from repro.docstore.cursor import _SortKey, sort_documents
from repro.docstore.errors import DocStoreError, QuerySyntaxError
from repro.docstore.query import get_path, is_missing, matches

ExprFn = Callable[[Dict[str, Any]], Any]


# -- expression compiler ------------------------------------------------------


def _is_number(value: Any) -> bool:
    """``$isNumber``: ints and floats, never bools (MongoDB 4.4)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_number(value: Any, op: str) -> float:
    """Numeric coercion shared by the arithmetic operators.

    ``None`` (missing fields) counts as 0; anything else non-numeric is
    a query error, bools included.
    """
    if value is None:
        return 0
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise QuerySyntaxError(f"{op} requires numeric arguments, got {value!r}")
    return value


def _compile_numeric_args(
    operand: Any, op: str, arity: Optional[int]
) -> List[ExprFn]:
    if not isinstance(operand, list):
        operand = [operand]
    if arity is not None and len(operand) != arity:
        raise QuerySyntaxError(f"{op} requires exactly {arity} arguments")
    return [compile_expression(e) for e in operand]


def _compile_operator(op: str, operand: Any) -> ExprFn:
    if op == "$add":
        fns = _compile_numeric_args(operand, op, None)
        return lambda doc: sum(_as_number(fn(doc), "$add") for fn in fns)
    if op == "$subtract":
        fa, fb = _compile_numeric_args(operand, op, 2)
        return lambda doc: _as_number(fa(doc), "$subtract") - _as_number(
            fb(doc), "$subtract"
        )
    if op == "$multiply":
        fns = _compile_numeric_args(operand, op, None)

        def _multiply(doc: Dict[str, Any]) -> float:
            result = 1.0
            for fn in fns:
                result *= _as_number(fn(doc), "$multiply")
            return result

        return _multiply
    if op == "$divide":
        fa, fb = _compile_numeric_args(operand, op, 2)

        def _divide(doc: Dict[str, Any]) -> float:
            b = _as_number(fb(doc), "$divide")
            if b == 0:
                raise QuerySyntaxError("$divide by zero")
            return _as_number(fa(doc), "$divide") / b

        return _divide
    if op == "$mod":
        fa, fb = _compile_numeric_args(operand, op, 2)

        def _mod(doc: Dict[str, Any]) -> float:
            b = _as_number(fb(doc), "$mod")
            if b == 0:
                raise QuerySyntaxError("$mod by zero")
            return _as_number(fa(doc), "$mod") % b

        return _mod
    if op == "$floor":
        (fa,) = _compile_numeric_args(operand, op, 1)
        return lambda doc: math.floor(_as_number(fa(doc), "$floor"))
    if op == "$ceil":
        (fa,) = _compile_numeric_args(operand, op, 1)
        return lambda doc: math.ceil(_as_number(fa(doc), "$ceil"))
    if op == "$abs":
        (fa,) = _compile_numeric_args(operand, op, 1)
        return lambda doc: abs(_as_number(fa(doc), "$abs"))
    if op == "$isNumber":
        (fa,) = _compile_numeric_args(operand, op, 1)
        return lambda doc: _is_number(fa(doc))
    if op == "$size":
        fn = compile_expression(operand)

        def _size(doc: Dict[str, Any]) -> int:
            value = fn(doc)
            if not isinstance(value, list):
                raise QuerySyntaxError(f"$size requires an array, got {value!r}")
            return len(value)

        return _size
    if op == "$concat":
        if not isinstance(operand, list):
            raise QuerySyntaxError("$concat requires a list")
        fns = [compile_expression(e) for e in operand]

        def _concat(doc: Dict[str, Any]) -> Optional[str]:
            parts = [fn(doc) for fn in fns]
            if any(p is None for p in parts):
                return None
            if not all(isinstance(p, str) for p in parts):
                raise QuerySyntaxError("$concat requires string arguments")
            return "".join(parts)

        return _concat
    if op == "$cond":
        if isinstance(operand, dict):
            branches = [operand.get("if"), operand.get("then"), operand.get("else")]
        elif isinstance(operand, list) and len(operand) == 3:
            branches = operand
        else:
            raise QuerySyntaxError("$cond requires [if, then, else]")
        f_if, f_then, f_else = (compile_expression(b) for b in branches)
        return lambda doc: f_then(doc) if f_if(doc) else f_else(doc)
    if op == "$ifNull":
        if not isinstance(operand, list) or len(operand) != 2:
            raise QuerySyntaxError("$ifNull requires [expr, fallback]")
        f_value, f_fallback = compile_expression(operand[0]), compile_expression(
            operand[1]
        )

        def _if_null(doc: Dict[str, Any]) -> Any:
            value = f_value(doc)
            return value if value is not None else f_fallback(doc)

        return _if_null
    raise QuerySyntaxError(f"unknown expression operator {op!r}")


def compile_expression(expression: Any) -> ExprFn:
    """Compile an aggregation value expression to a per-document closure."""
    if isinstance(expression, str) and expression.startswith("$"):
        path = expression[1:]
        if "." not in path:
            # top-level field: a dict lookup; missing resolves to None
            # exactly as the path walker does.
            return lambda doc: doc.get(path)

        def _path(doc: Dict[str, Any]) -> Any:
            value = get_path(doc, path)
            return None if is_missing(value) else value

        return _path
    if isinstance(expression, dict):
        if len(expression) == 1:
            op, operand = next(iter(expression.items()))
            if op.startswith("$"):
                return _compile_operator(op, operand)
        compiled = {k: compile_expression(v) for k, v in expression.items()}
        return lambda doc: {k: fn(doc) for k, fn in compiled.items()}
    if isinstance(expression, list):
        fns = [compile_expression(e) for e in expression]
        return lambda doc: [fn(doc) for fn in fns]
    return lambda doc: expression


# -- group keys --------------------------------------------------------------


def group_key(value: Any) -> Any:
    """A hashable canonical key under which a group id is bucketed.

    Equal values must produce equal keys regardless of representation:
    dicts are keyed by *sorted* items so ``{"a": 1, "b": 2}`` and
    ``{"b": 2, "a": 1}`` land in the same group (a ``repr``-based key
    would split them on insertion order). Bools are tagged so ``True``
    never collides with ``1``.
    """
    cls = value.__class__
    if cls is bool:
        return ("$bool", value)
    if cls is dict:
        return (
            "$doc",
            tuple(sorted((k, group_key(v)) for k, v in value.items())),
        )
    if cls is list or cls is tuple:
        return ("$arr", tuple(group_key(v) for v in value))
    return value


def _safe_group_key(value: Any) -> Any:
    try:
        key = group_key(value)
        hash(key)
        return key
    except TypeError:
        # exotic unhashable scalars (or dicts with unsortable keys):
        # fall back to a repr key, which can only over-split, never merge
        # unequal ids.
        return ("$repr", repr(value))


# -- incremental accumulators -------------------------------------------------


class _SumState:
    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total: Any = 0

    def feed(self, value: Any) -> None:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            self.total += value

    def result(self) -> Any:
        return self.total


class _AvgState:
    __slots__ = ("total", "count")

    def __init__(self) -> None:
        self.total: Any = 0
        self.count = 0

    def feed(self, value: Any) -> None:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            self.total += value
            self.count += 1

    def result(self) -> Any:
        return self.total / self.count if self.count else None


class _MinState:
    __slots__ = ("best",)

    def __init__(self) -> None:
        self.best: Any = None

    def feed(self, value: Any) -> None:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            if self.best is None or value < self.best:
                self.best = value

    def result(self) -> Any:
        return self.best


class _MaxState:
    __slots__ = ("best",)

    def __init__(self) -> None:
        self.best: Any = None

    def feed(self, value: Any) -> None:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            if self.best is None or value > self.best:
                self.best = value

    def result(self) -> Any:
        return self.best


class _FirstState:
    __slots__ = ("value", "seen")

    def __init__(self) -> None:
        self.value: Any = None
        self.seen = False

    def feed(self, value: Any) -> None:
        if not self.seen:
            self.value = value
            self.seen = True

    def result(self) -> Any:
        return self.value


class _LastState:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Any = None

    def feed(self, value: Any) -> None:
        self.value = value

    def result(self) -> Any:
        return self.value


class _PushState:
    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values: List[Any] = []

    def feed(self, value: Any) -> None:
        self.values.append(value)

    def result(self) -> Any:
        return self.values


class _AddToSetState:
    """First-seen-order dedup: set fast path, unhashable fallback.

    Hashable values dedup in O(1) against ``seen``; unhashable ones
    (sub-documents, arrays) fall back to a linear equality scan over the
    collected items, which is the only correct option left for them.
    """

    __slots__ = ("items", "seen")

    def __init__(self) -> None:
        self.items: List[Any] = []
        self.seen: set = set()

    def feed(self, value: Any) -> None:
        try:
            if value in self.seen:
                return
            self.seen.add(value)
        except TypeError:
            if value in self.items:
                return
        self.items.append(value)

    def result(self) -> Any:
        return self.items


class _CountState:
    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def feed(self, value: Any) -> None:
        self.count += 1

    def result(self) -> Any:
        return self.count


_ACCUMULATOR_STATES = {
    "$sum": _SumState,
    "$avg": _AvgState,
    "$min": _MinState,
    "$max": _MaxState,
    "$first": _FirstState,
    "$last": _LastState,
    "$push": _PushState,
    "$addToSet": _AddToSetState,
    "$count": _CountState,
}

_ACCUMULATOR_OPS = frozenset(_ACCUMULATOR_STATES)

#: (output field, value closure, state factory)
AccSpec = Tuple[str, ExprFn, Callable[[], Any]]


def _compile_accumulator(field_name: str, acc: Any) -> AccSpec:
    if not isinstance(acc, dict) or len(acc) != 1:
        raise QuerySyntaxError(
            f"$group field {field_name!r} must be a single-accumulator document"
        )
    op, expression = next(iter(acc.items()))
    state_cls = _ACCUMULATOR_STATES.get(op)
    if state_cls is None:
        raise QuerySyntaxError(f"unknown accumulator {op!r}")
    return field_name, compile_expression(expression), state_cls


# -- stage compilation --------------------------------------------------------

StageFn = Callable[[Iterable[Dict[str, Any]]], Iterable[Dict[str, Any]]]


def _compile_group(spec: Dict[str, Any]) -> StageFn:
    if not isinstance(spec, dict) or "_id" not in spec:
        raise QuerySyntaxError("$group requires an _id expression")
    id_expr = spec["_id"]
    id_fn: ExprFn = (
        (lambda doc: None) if id_expr is None else compile_expression(id_expr)
    )
    accumulators = [
        _compile_accumulator(name, acc)
        for name, acc in spec.items()
        if name != "_id"
    ]

    def _group(documents: Iterable[Dict[str, Any]]) -> Iterator[Dict[str, Any]]:
        groups: Dict[Any, Tuple[Any, List[Any]]] = {}
        for doc in documents:
            group_id = id_fn(doc)
            key = _safe_group_key(group_id)
            entry = groups.get(key)
            if entry is None:
                entry = (group_id, [state() for _, _, state in accumulators])
                groups[key] = entry
            states = entry[1]
            for (_, value_fn, _), state in zip(accumulators, states):
                state.feed(value_fn(doc))
        for group_id, states in groups.values():
            out: Dict[str, Any] = {"_id": group_id}
            for (name, _, _), state in zip(accumulators, states):
                out[name] = state.result()
            yield out

    return _group


def _compile_project(spec: Dict[str, Any]) -> StageFn:
    if not spec:
        raise QuerySyntaxError("$project requires a non-empty spec")
    inclusions = [k for k, v in spec.items() if v in (1, True) and k != "_id"]
    exclusions = [k for k, v in spec.items() if v in (0, False)]
    computed = [
        (k, compile_expression(v))
        for k, v in spec.items()
        if not isinstance(v, bool) and v not in (0, 1)
    ]
    if inclusions and [k for k in exclusions if k != "_id"]:
        raise QuerySyntaxError("$project cannot mix inclusion and exclusion")
    include_id = spec.get("_id", 1) in (1, True)

    if inclusions or computed:

        def _project(
            documents: Iterable[Dict[str, Any]]
        ) -> Iterator[Dict[str, Any]]:
            for doc in documents:
                out: Dict[str, Any] = {}
                if include_id and "_id" in doc:
                    out["_id"] = doc["_id"]
                for path in inclusions:
                    value = get_path(doc, path)
                    if not is_missing(value):
                        out[path] = value
                for path, fn in computed:
                    out[path] = fn(doc)
                yield out

        return _project

    def _exclude(documents: Iterable[Dict[str, Any]]) -> Iterator[Dict[str, Any]]:
        for doc in documents:
            out = dict(doc)
            for path in exclusions:
                out.pop(path, None)
            yield out

    return _exclude


def _compile_add_fields(spec: Dict[str, Any]) -> StageFn:
    computed = [(name, compile_expression(expr)) for name, expr in spec.items()]

    def _add_fields(documents: Iterable[Dict[str, Any]]) -> Iterator[Dict[str, Any]]:
        for doc in documents:
            out = dict(doc)
            for name, fn in computed:
                out[name] = fn(doc)
            yield out

    return _add_fields


def _compile_unwind(spec: Any) -> StageFn:
    if isinstance(spec, str):
        path = spec
        keep_empty = False
    elif isinstance(spec, dict) and "path" in spec:
        path = spec["path"]
        keep_empty = bool(spec.get("preserveNullAndEmptyArrays", False))
    else:
        raise QuerySyntaxError("$unwind requires a '$path' string or {path: ...}")
    if not isinstance(path, str) or not path.startswith("$"):
        raise QuerySyntaxError("$unwind path must start with '$'")
    field_path = path[1:]

    def _unwind(documents: Iterable[Dict[str, Any]]) -> Iterator[Dict[str, Any]]:
        for doc in documents:
            value = get_path(doc, field_path)
            if is_missing(value) or value is None or (
                isinstance(value, list) and not value
            ):
                if keep_empty:
                    yield dict(doc)
                continue
            elements = value if isinstance(value, list) else [value]
            for element in elements:
                out = dict(doc)
                out[field_path] = element
                yield out

    return _unwind


def _compile_bucket(spec: Dict[str, Any]) -> StageFn:
    """MongoDB's $bucket: histogram documents by boundary intervals.

    This is the natural stage for the paper's accuracy-bucket figures
    (10-13): boundaries [0, 6, 20, 50, 100, ...] over
    ``$location.accuracy_m``.
    """
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
    accumulators = [
        _compile_accumulator(name, acc) for name, acc in output_spec.items()
    ]
    value_fn = compile_expression(group_by)
    lower_bounds = boundaries[:-1]
    low, high = boundaries[0], boundaries[-1]

    def _bucket(documents: Iterable[Dict[str, Any]]) -> Iterator[Dict[str, Any]]:
        # bucket key -> (bucket id, accumulator states); keys are lower
        # bounds plus (when declared) the default bucket key. Buckets
        # that never receive a document are omitted, as MongoDB does.
        folds: Dict[Any, Tuple[Any, List[Any]]] = {}
        for doc in documents:
            value = value_fn(doc)
            key: Any = None
            placed = False
            if (
                isinstance(value, (int, float))
                and not isinstance(value, bool)
                and low <= value < high
            ):
                index = _bisect_interval(boundaries, value)
                key = lower_bounds[index]
                placed = True
            if not placed:
                if not has_default:
                    raise QuerySyntaxError(
                        f"$bucket value {value!r} outside boundaries and no default"
                    )
                key = default_key
            bucket_key = _safe_group_key(key)
            entry = folds.get(bucket_key)
            if entry is None:
                entry = (key, [state() for _, _, state in accumulators])
                folds[bucket_key] = entry
            for (_, fn, _), state in zip(accumulators, entry[1]):
                state.feed(fn(doc))
        order = list(lower_bounds) + ([default_key] if has_default else [])
        emitted = set()
        for key in order:
            bucket_key = _safe_group_key(key)
            if bucket_key in emitted or bucket_key not in folds:
                continue
            emitted.add(bucket_key)
            _, states = folds[bucket_key]
            out: Dict[str, Any] = {"_id": key}
            for (name, _, _), state in zip(accumulators, states):
                out[name] = state.result()
            yield out

    return _bucket


def _bisect_interval(boundaries: List[Any], value: Any) -> int:
    """Index of the half-open interval [b[i], b[i+1]) containing value."""
    lo, hi = 0, len(boundaries) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if value < boundaries[mid]:
            hi = mid
        else:
            lo = mid
    return lo


def _compile_sort_by_count(spec: Any) -> StageFn:
    """MongoDB's $sortByCount: group by expression, count, sort desc."""
    if not (isinstance(spec, str) and spec.startswith("$")) and not isinstance(
        spec, dict
    ):
        raise QuerySyntaxError("$sortByCount requires a '$field' or expression")
    grouped = _compile_group({"_id": spec, "count": {"$sum": 1}})

    def _sort_by_count(
        documents: Iterable[Dict[str, Any]]
    ) -> Iterable[Dict[str, Any]]:
        return sorted(
            grouped(documents), key=lambda d: (-d["count"], repr(d["_id"]))
        )

    return _sort_by_count


class _DescKey:
    """Inverts _SortKey ordering for descending sort directions."""

    __slots__ = ("key",)

    def __init__(self, key: _SortKey) -> None:
        self.key = key

    def __lt__(self, other: "_DescKey") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _DescKey) and self.key == other.key


def _compile_top_k(sort_spec: Dict[str, Any], limit: int) -> StageFn:
    """Fused ``$sort`` + ``$limit``: a bounded heap instead of a full sort."""
    spec_items = list(sort_spec.items())
    for _, direction in spec_items:
        if direction not in (1, -1):
            raise DocStoreError(f"sort direction must be 1 or -1, got {direction}")

    def _key(doc: Dict[str, Any], index: int) -> Tuple[Any, ...]:
        parts: List[Any] = []
        for path, direction in spec_items:
            key = _SortKey(get_path(doc, path))
            parts.append(key if direction == 1 else _DescKey(key))
        parts.append(index)  # ties keep input order: a stable sort prefix
        return tuple(parts)

    def _top_k(documents: Iterable[Dict[str, Any]]) -> Iterator[Dict[str, Any]]:
        if limit == 0:
            return iter(())
        best = heapq.nsmallest(
            limit,
            ((_key(doc, index), doc) for index, doc in enumerate(documents)),
            key=lambda pair: pair[0],
        )
        return (doc for _, doc in best)

    return _top_k


def _check_non_negative_int(spec: Any, stage: str) -> int:
    if not isinstance(spec, int) or spec < 0:
        raise QuerySyntaxError(f"{stage} requires a non-negative int")
    return spec


class CompiledPipeline:
    """A pipeline compiled to a chain of streaming stage closures.

    ``leading_match`` exposes the filter of a leading ``$match`` stage so
    :meth:`repro.docstore.collection.Collection.aggregate` can push it
    down into the index planner and feed the executor pre-filtered
    documents (running the remaining stages via
    ``run(..., skip_leading_match=True)``).
    """

    def __init__(self, pipeline: List[Dict[str, Any]]) -> None:
        self.leading_match: Optional[Dict[str, Any]] = None
        self._stages: List[StageFn] = []
        self._post_match_index = 0
        specs: List[Tuple[str, Any]] = []
        for stage in pipeline:
            if not isinstance(stage, dict) or len(stage) != 1:
                raise QuerySyntaxError("each pipeline stage must be a single-key dict")
            specs.append(next(iter(stage.items())))
        index = 0
        while index < len(specs):
            op, spec = specs[index]
            fused = False
            if op == "$match":
                match_spec = spec
                self._stages.append(
                    lambda docs, s=match_spec: (d for d in docs if matches(d, s))
                )
                if index == 0 and isinstance(spec, dict):
                    self.leading_match = spec
                    self._post_match_index = 1
            elif op == "$group":
                self._stages.append(_compile_group(spec))
            elif op == "$project":
                self._stages.append(_compile_project(spec))
            elif op == "$addFields":
                self._stages.append(_compile_add_fields(spec))
            elif op == "$sort":
                if index + 1 < len(specs) and specs[index + 1][0] == "$limit":
                    limit = _check_non_negative_int(specs[index + 1][1], "$limit")
                    self._stages.append(_compile_top_k(spec, limit))
                    fused = True
                else:
                    sort_items = list(spec.items())
                    self._stages.append(
                        lambda docs, s=sort_items: sort_documents(list(docs), s)
                    )
            elif op == "$limit":
                limit = _check_non_negative_int(spec, "$limit")
                self._stages.append(lambda docs, n=limit: islice(docs, n))
            elif op == "$skip":
                skip = _check_non_negative_int(spec, "$skip")
                self._stages.append(lambda docs, n=skip: islice(docs, n, None))
            elif op == "$unwind":
                self._stages.append(_compile_unwind(spec))
            elif op == "$bucket":
                self._stages.append(_compile_bucket(spec))
            elif op == "$sortByCount":
                self._stages.append(_compile_sort_by_count(spec))
            elif op == "$count":
                if not isinstance(spec, str) or not spec:
                    raise QuerySyntaxError("$count requires a field name")
                self._stages.append(
                    lambda docs, name=spec: iter([{name: sum(1 for _ in docs)}])
                )
            else:
                raise QuerySyntaxError(f"unknown pipeline stage {op!r}")
            index += 2 if fused else 1

    def run(
        self,
        documents: Iterable[Dict[str, Any]],
        skip_leading_match: bool = False,
    ) -> List[Dict[str, Any]]:
        """Stream ``documents`` through the stages; returns result docs.

        Results are cloned on exit so callers can never corrupt stored
        documents (one ``json_clone`` per result instead of a deepcopy
        per stage per document).
        """
        stages = self._stages
        if skip_leading_match and self.leading_match is not None:
            stages = stages[self._post_match_index:]
        stream: Iterable[Dict[str, Any]] = documents
        for stage in stages:
            stream = stage(stream)
        return [json_clone(doc) for doc in stream]


def compile_pipeline(pipeline: List[Dict[str, Any]]) -> CompiledPipeline:
    """Compile ``pipeline`` once; reusable over any document iterable."""
    return CompiledPipeline(pipeline)


def aggregate(
    documents: Iterable[Dict[str, Any]], pipeline: List[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """Run ``pipeline`` over ``documents`` and return the result list."""
    return CompiledPipeline(pipeline).run(documents)
