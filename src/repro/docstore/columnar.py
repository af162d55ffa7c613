"""Columnar mirror and vectorized aggregation kernels.

The paper's analytics (per-model tables, cumulative-by-day, provider
shares over 23M observations) are column-shaped scans: they touch a
handful of hot fields across every document. Row-at-a-time dict walking
is the slowest possible way to serve them, so a collection can keep a
**columnar mirror**: per-field numpy arrays that a reader extends with
the documents inserted since the mirror's last read, and rebuilds in one
pass after an update, delete or drop.

Representation
--------------

Each mirrored field becomes a :class:`_Column`, stored once: five numpy
arrays with one row count (``column.rows``) —

- ``codes`` — int64 dictionary codes, first-seen order; ``-1`` means
  the field is missing, ``-2`` means the value could not be encoded
  (unhashable sub-documents, arrays, NaN);
- ``nums``/``numeric`` — a float64 shadow plus a bool validity mask for
  the rows holding non-bool numbers (ranges, ``$sum``/``$avg``/...);
- ``truthy`` — Python truthiness of present, non-null values (the
  ``$sum:{$cond:[{$ifNull:[..., False]}, 1, 0]}`` localized-share
  pattern); ``is_float`` — which numeric rows held floats;

plus the ``encode``/``decode`` dictionary, which gives the codes their
meaning (equality, grouping and ``$addToSet`` compare codes; outputs
decode them), and degradation flags (``has_list``, ``has_opaque``,
``has_nan``, integer magnitude beyond 2**53, ...) that gate which
kernels may touch the column. Every builder writes a chunk at
``[rows:rows+k]``; capacity doubles when a chunk does not fit, so a
column reallocates O(log n) times, and reads are ``[:rows]`` views: no
copy after a write. On a 40k-observation ``Traffic(11)`` corpus with all
ten ``DataManager`` columns built (``tracemalloc``; 2 vCPU Xeon, Python
3.11.7, numpy 2.4) the mirror holds 341 B/obs — arrays 190 (19 per
column), dictionaries the rest, mostly ``_id``'s and ``taken_at``'s one
entry per row — where per-row Python lists held 643 plus 190 of cached
array copies, and the first read after a 500-row write re-concatenated
every column (1.3 ms).

``_id`` may be mirrored (the sharded scatter's ``{"$min": "$_id"}``
first-seen marker reads it), but a ``$match`` on ``_id`` is never
vectorized: the planner's id step answers it with one dict probe.

Columns are built on first read. The mirror keeps the row list; a
column holds its first ``column.rows`` rows and is extended to the end
only when a plan reads it, so a field no kernel touches costs nothing
(``sharded_durable`` ``peak_rss_mb`` 169 MB built eagerly against 159
lazily; see ARCHITECTURE.md "Columnar fast path").

Staleness follows the same pull protocol as ``MaterializedAnalytics``:
the mirror records the collection's ``(inserts, updates, deletes)``
triple when it was last current, and nothing on the write path calls
into it. A columnar query asks ``Collection.inserted_since`` under the
collection's read lock: when only inserts moved the marker, their
documents are appended in place; anything else (an unbuilt mirror,
updates, deletes, drops) resets every column and re-takes the live
documents.

Kernels
-------

:meth:`ColumnarMirror.execute` covers three pipeline shapes, falling
back to the compiled row engine for everything else:

- ``[$match?] [$addFields(floor/divide)*] $group …`` — vectorized
  filter + grouped fold; any stages after the ``$group`` run through
  the compiled engine over the (small) group rows;
- ``[$match?] $sort [$limit/$skip/$count…]`` — vectorized filter +
  ``np.lexsort`` with the same missing<null<number<string<other ranking
  as ``_SortKey``;
- ``[$match] [$limit/$skip/$count…]`` — vectorized filter alone.

Exactness is non-negotiable: the hypothesis oracle holds these kernels
row-exact (same rows, same order, same values) against both the
compiled and naive engines. That dictates some non-obvious choices —
``np.add.at`` instead of pairwise ``np.sum`` so float accumulation is
sequential exactly like Python's left-to-right ``+``, first-seen group
ordering recovered from ``np.unique(..., return_index=True)``, and
aggressive per-column fallback flags wherever float64 could diverge
from Python semantics (huge ints, NaN, bools in numeric positions).

numpy is optional: without it the mirror stays disabled, every query
uses the row engines, and ``explain``/``middleware_stats`` report why.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

try:  # optional dependency: the docstore must work without numpy
    import numpy as np
except Exception:  # pragma: no cover - exercised by stubbing np to None
    np = None  # type: ignore[assignment]

from repro import concurrency
from repro.docstore.clone import json_clone
from repro.docstore.collection import follows_inserts
from repro.docstore.errors import DocStoreError
from repro.docstore.query import _is_operator_doc, get_path, is_missing


def numpy_available() -> bool:
    """Whether the vectorized kernels can run in this interpreter."""
    return np is not None


_ABSENT = object()

_MISSING_CODE = -1
_OPAQUE_CODE = -2

#: Largest integer magnitude float64 represents exactly (2**53). A
#: column that saw more total integer magnitude than this falls back to
#: the row engines for numeric kernels instead of risking rounding
#: drift against Python's unbounded ints.
_EXACT_INT = 2 ** 53

_RANGE_OPS = ("$gt", "$gte", "$lt", "$lte")
_SUPPORTED_MATCH_OPS = frozenset(_RANGE_OPS) | {"$eq", "$ne", "$in", "$nin", "$exists"}
_TAIL_OPS = frozenset({"$limit", "$skip", "$count"})


def _beyond_float64(value: Any) -> bool:
    """A non-bool int ``float()`` would round: kernels compute in float64."""
    return isinstance(value, int) and not isinstance(value, bool) and abs(value) > _EXACT_INT


def _hashable(value: Any) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


#: dtypes of a column's per-row arrays, in ``_Column.arrays()`` order
_DTYPES = ("int64", "float64", "bool", "bool", "bool")


class _Column:
    """One mirrored field: dictionary codes plus numeric/truthy shadows.

    The five per-row arrays share one row count, ``rows``; entries past
    it are spare capacity, which doubles when a chunk does not fit.
    """

    __slots__ = (
        "path",
        "simple",
        "rows",
        "codes",
        "nums",
        "numeric",
        "truthy",
        "is_float",
        "decode",
        "encode",
        "has_list",
        "has_opaque",
        "has_nan",
        "has_inf",
        "has_nonnum",
        "abs_int_total",
        "big_float",
    )

    def __init__(self, path: str) -> None:
        self.path = path
        self.simple = "." not in path
        self.reset()

    def reset(self) -> None:
        self.rows = 0
        if np is not None:  # without numpy the mirror is disabled: no storage
            self._resize(0)
        self.decode: List[Any] = []
        self.encode: Dict[Any, int] = {}
        self.has_list = False
        self.has_opaque = False
        self.has_nan = False
        self.has_inf = False
        #: present values that are neither numbers nor None (strings,
        #: bools, documents): $floor/$divide over the column would raise.
        self.has_nonnum = False
        self.abs_int_total = 0
        self.big_float = False

    # -- storage -----------------------------------------------------------------

    def _resize(self, capacity: int) -> None:
        """Move the per-row arrays to ``capacity`` entries, keeping the rows."""
        fresh = [np.empty(capacity, dtype=dtype) for dtype in _DTYPES]
        if self.rows:
            for new, old in zip(fresh, self.arrays()):
                new[: self.rows] = old
        self.codes, self.nums, self.numeric, self.truthy, self.is_float = fresh

    def _write(
        self, k: int, codes: Any, nums: Any, numeric: Any, truthy: Any, is_float: Any
    ) -> None:
        """Store a ``k``-row chunk at rows ``[rows:rows+k]``; each argument
        is a length-``k`` sequence or a scalar broadcast over the chunk."""
        start, end = self.rows, self.rows + k
        if end > len(self.codes):
            self._resize(max(end, 2 * len(self.codes)))
        self.codes[start:end] = codes
        self.nums[start:end] = nums
        self.numeric[start:end] = numeric
        self.truthy[start:end] = truthy
        self.is_float[start:end] = is_float
        self.rows = end

    @property
    def nbytes(self) -> int:
        """Allocated bytes of the per-row arrays, spare capacity included."""
        return len(self.codes) * sum(np.dtype(dtype).itemsize for dtype in _DTYPES)

    # -- ingest -----------------------------------------------------------------

    def append(self, doc: Dict[str, Any]) -> None:
        if self.simple:
            value = doc.get(self.path, _ABSENT)
        else:
            value = get_path(doc, self.path)
            if is_missing(value):
                value = _ABSENT
        self._extend_values([value])

    def extend(self, docs: Sequence[Dict[str, Any]]) -> None:
        """Bulk form of :meth:`append` over ``docs``, in order.

        Homogeneous columns — all numbers, all strings/None, all
        documents/None, with no missing rows — are the overwhelmingly
        common shapes for mirrored observation fields; those are
        classified with one C-level type scan and filled with
        vectorized flag computation, which is what makes a cold mirror
        rebuild cheaper than one compiled row pass. Anything else falls
        back to the per-value path, value by value.
        """
        if self.simple:
            path = self.path
            values = [doc.get(path, _ABSENT) for doc in docs]
        else:
            values = []
            for doc in docs:
                value = get_path(doc, self.path)
                values.append(_ABSENT if is_missing(value) else value)
        if not values:
            return
        kinds = set(map(type, values))
        if kinds <= {int, float}:
            self._extend_numeric(values, int in kinds, float in kinds)
        elif kinds <= {str, type(None)}:
            self._extend_hashable(values, nonnum=str in kinds)
        elif dict in kinds and kinds <= {dict, type(None)}:
            self._extend_opaque(values)
        else:
            self._extend_values(values)

    def _extend_numeric(self, values: List[Any], has_int: bool, has_float: bool) -> None:
        try:
            nums = np.asarray(values, dtype=np.float64)
            vectorizable = not (has_float and np.isnan(nums).any())
        except (OverflowError, ValueError, TypeError):
            vectorizable = False
        if not vectorizable:  # past float range, or NaN (which gets no code)
            self._extend_values(values)
            return
        is_float: Any = has_float
        if has_int and has_float:
            is_float = np.fromiter(
                (type(value) is float for value in values), dtype=bool, count=len(values)
            )
        if has_int:
            if has_float:
                self.abs_int_total += sum(
                    -value if value < 0 else value
                    for value in values
                    if type(value) is int
                )
            else:
                self.abs_int_total += sum(map(abs, values))
        if has_float:
            inf_mask = np.isinf(nums)
            if inf_mask.any():
                self.has_inf = True
            big = np.abs(nums) > float(_EXACT_INT)
            big &= ~inf_mask
            big &= is_float
            if big.any():
                self.big_float = True
        self._write(len(values), self._encode_bulk(values), nums, True, nums != 0.0, is_float)

    def _encode_bulk(self, values: List[Any]) -> Any:
        """Dictionary-encode hashable ``values``: dedup to first-seen
        order at C level, register the unseen keys, then map the whole
        run through the encode table in one pass."""
        encode = self.encode
        decode = self.decode
        for value in dict.fromkeys(values):
            if value not in encode:
                encode[value] = len(decode)
                decode.append(value)
        return np.fromiter(map(encode.__getitem__, values), dtype=np.int64, count=len(values))

    def _extend_hashable(self, values: List[Any], nonnum: bool) -> None:
        if nonnum:
            self.has_nonnum = True
        truthy = np.fromiter(map(bool, values), dtype=bool, count=len(values))
        self._write(len(values), self._encode_bulk(values), 0.0, False, truthy, False)

    def _extend_opaque(self, values: List[Any]) -> None:
        self.has_nonnum = True
        self.has_opaque = True
        encode = self.encode
        try:
            values.index(None)
        except ValueError:
            none_code = _OPAQUE_CODE  # no None rows; never used below
        else:
            none_code = encode.get(None)
            if none_code is None:
                none_code = len(self.decode)
                encode[None] = none_code
                self.decode.append(None)
        codes = [_OPAQUE_CODE if value is not None else none_code for value in values]
        truthy = np.fromiter(map(bool, values), dtype=bool, count=len(values))
        self._write(len(values), codes, 0.0, False, truthy, False)

    def _extend_values(self, values: List[Any]) -> None:
        """The per-value path: each value's row, then one chunk write."""
        codes, nums, numeric, truthy, is_float = zip(*map(self._row, values))
        self._write(len(values), codes, nums, numeric, truthy, is_float)

    def _row(self, value: Any) -> Tuple[int, float, bool, bool, bool]:
        """``value``'s (code, num, numeric, truthy, is_float), updating
        the dictionary and the degradation flags."""
        if value is _ABSENT:
            return _MISSING_CODE, 0.0, False, False, False
        truthy = value is not None and bool(value)
        if isinstance(value, list):
            # arrays match element-wise (multikey); no kernel models that
            self.has_list = True
            return _OPAQUE_CODE, 0.0, False, truthy, False
        num, numeric, is_float = 0.0, False, False
        is_bool = isinstance(value, bool)
        if not is_bool and isinstance(value, (int, float)):
            if value != value:  # NaN poisons dict encoding and min/max
                self.has_nan = True
                return _OPAQUE_CODE, float("nan"), True, truthy, True
            numeric = True
            if isinstance(value, float):
                is_float = True
                if value in (float("inf"), float("-inf")):
                    self.has_inf = True
                elif value > _EXACT_INT or value < -_EXACT_INT:
                    self.big_float = True
                num = value
            else:
                self.abs_int_total += value if value >= 0 else -value
                try:
                    num = float(value)
                except OverflowError:
                    self.abs_int_total = _EXACT_INT + 1
        elif value is not None:
            self.has_nonnum = True
        # dictionary-encode; bools are tagged so True never merges with 1,
        # exactly as the row engine's _eq/group_key do
        key = ("$bool", value) if is_bool else value
        try:
            code = self.encode.get(key)
        except TypeError:
            self.has_opaque = True
            return _OPAQUE_CODE, num, numeric, truthy, is_float
        if code is None:
            code = len(self.decode)
            self.encode[key] = code
            self.decode.append(value)
        return code, num, numeric, truthy, is_float

    # -- capability flags --------------------------------------------------------

    @property
    def inexact(self) -> bool:
        return self.abs_int_total > _EXACT_INT

    @property
    def encodable(self) -> bool:
        """Every present value has a faithful dictionary code."""
        return not (self.has_list or self.has_opaque or self.has_nan)

    @property
    def sortable(self) -> bool:
        return self.encodable and not self.inexact and not self.big_float

    @property
    def numeric_exact(self) -> bool:
        """float64 arithmetic over the column matches Python exactly."""
        return not self.inexact and not self.has_nan

    @property
    def arith_clean(self) -> bool:
        """$floor($divide(...)) over the column neither raises nor drifts."""
        return not (
            self.has_nonnum
            or self.has_list
            or self.has_opaque
            or self.has_nan
            or self.has_inf
            or self.inexact
            or self.big_float
        )

    # -- reads -------------------------------------------------------------------

    def arrays(self) -> Tuple[Any, Any, Any, Any, Any]:
        """(codes, nums, numeric, truthy, is_float): views of the stored rows."""
        n = self.rows
        return (
            self.codes[:n], self.nums[:n], self.numeric[:n], self.truthy[:n], self.is_float[:n]
        )

    def value_at(self, row: int) -> Any:
        """The stored value at ``row``; missing resolves to None, as the
        row engine's ``doc.get``/``$field`` lookup does."""
        code = self.codes[row]
        return None if code < 0 else self.decode[code]


class _GroupPlan:
    __slots__ = ("id_kind", "id_payload", "accumulators")

    def __init__(self, id_kind: str, id_payload: Any, accumulators: List[Tuple[str, str, Any]]):
        self.id_kind = id_kind  # "const" | "field" | "doc"
        self.id_payload = id_payload
        self.accumulators = accumulators


class _Plan:
    __slots__ = ("kind", "match", "derived", "group", "sort", "tail", "fields")

    def __init__(self, kind, match, derived, group, sort, tail, fields):
        self.kind = kind  # "group" | "sort" | "match"
        self.match = match
        self.derived = derived  # name -> (source path, divisor)
        self.group = group
        self.sort = sort  # [(path, direction)] for kind == "sort"
        self.tail = tail
        self.fields = fields


def _str_cmp(op: str, value: str, operand: str) -> bool:
    if op == "$gt":
        return value > operand
    if op == "$gte":
        return value >= operand
    if op == "$lt":
        return value < operand
    return value <= operand


def _factorize(key_arrays: List[Any]) -> Tuple[Any, int, Any]:
    """Dense group ids in first-seen order from parallel int key arrays.

    Returns ``(gid, n_groups, reps)`` where ``gid[i]`` is the ordered
    group of row i and ``reps[g]`` is the position of group g's first
    row — the representative the output ``_id`` is decoded from.
    """
    combined = key_arrays[0].astype(np.int64)
    if combined.size == 0:
        return combined, 0, np.empty(0, dtype=np.int64)
    for extra in key_arrays[1:]:
        # densify both sides so the pairing can never overflow int64
        _, combined = np.unique(combined, return_inverse=True)
        _, extra = np.unique(extra.astype(np.int64), return_inverse=True)
        combined = combined * (int(extra.max()) + 1) + extra
    uniq, first, inverse = np.unique(combined, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[order] = np.arange(len(uniq), dtype=np.int64)
    return rank[inverse.reshape(-1)], len(uniq), first[order]


def _cond_truthy_path(operand: Any) -> Optional[str]:
    """Match ``{"$cond": [{"$ifNull": ["$f", False]}, 1, 0]}`` (list or
    if/then/else dict form); returns the field path or None."""
    if not isinstance(operand, dict) or set(operand) != {"$cond"}:
        return None
    cond = operand["$cond"]
    if isinstance(cond, dict):
        if set(cond) != {"if", "then", "else"}:
            return None
        test, then, other = cond["if"], cond["then"], cond["else"]
    elif isinstance(cond, (list, tuple)) and len(cond) == 3:
        test, then, other = cond
    else:
        return None
    if isinstance(then, bool) or then != 1 or isinstance(other, bool) or other != 0:
        return None
    if not isinstance(test, dict) or set(test) != {"$ifNull"}:
        return None
    args = test["$ifNull"]
    if not isinstance(args, (list, tuple)) or len(args) != 2 or args[1] is not False:
        return None
    source = args[0]
    if not isinstance(source, str) or not source.startswith("$") or len(source) < 2:
        return None
    return source[1:]


class ColumnarMirror:
    """Columnar shadow of a collection's hot fields plus its kernels.

    Lifecycle: the owning :class:`Collection` calls ``execute`` with
    its read lock held and never calls into the mirror on a write; the
    mirror pulls what was inserted since its marker at the next read.
    The mirror's own re-entrant lock (always acquired *after* the
    collection lock, never before) serializes columnar readers against
    each other and guards the rows and columns.
    """

    def __init__(self, collection: Any, fields: Sequence[str]) -> None:
        cleaned: List[str] = []
        for field in fields:
            if not isinstance(field, str) or not field or field.startswith("$"):
                raise DocStoreError(f"invalid mirrored field {field!r}")
            if field not in cleaned:
                cleaned.append(field)
        if not cleaned:
            raise DocStoreError("columnar mirror needs at least one mirrored field")
        self._collection = collection
        self.fields: Tuple[str, ...] = tuple(cleaned)
        self.enabled = np is not None
        self.disabled_reason: Optional[str] = None if self.enabled else "numpy unavailable"
        self._lock = concurrency.make_rlock()
        self._columns: Dict[str, _Column] = {f: _Column(f) for f in self.fields}
        #: the mirrored rows, in order; a column holds the first
        #: ``column.rows`` of them and catches up when a plan reads it
        self._doc_refs: List[Dict[str, Any]] = []
        #: the collection's write marker ``_doc_refs`` is current at;
        #: None until the first reader builds the mirror
        self._marker: Optional[Tuple[int, int, int]] = None
        self.rebuilds = 0
        self.appends = 0
        self.invalidations = 0
        self.kernel_hits = 0
        self.fallbacks = 0

    # -- maintenance (collection read lock, then the mirror lock, held) ----------

    def on_insert(self, doc: Dict[str, Any]) -> None:
        """Append one pulled document: the batch of one."""
        self.on_insert_batch((doc,))

    def on_insert_batch(self, docs: Sequence[Dict[str, Any]]) -> None:
        """Append a tail pulled by :meth:`_ensure_fresh_locked`.

        Only the mirror's own freshness step calls this; nothing may
        call it as an insert notification — a document appended twice
        is a row counted twice.
        """
        self._doc_refs.extend(docs)
        self.appends += len(docs)

    def _ensure_fresh_locked(self, fields: Iterable[str]) -> bool:
        """Bring ``fields``' columns up to the live rows; the caller
        holds the collection read lock, so the pulled tail is coherent.

        The documents inserted since the mirror's marker are appended;
        anything else (an unbuilt mirror, an update, a delete, a drop)
        re-takes the live documents first (a rebuild). Columns no plan
        reads stay unbuilt, so they cost no memory.
        """
        tail, live = self._collection._inserted_since_locked(self._marker)
        rebuilt = tail is None
        if rebuilt:
            if self._marker is not None:
                self.invalidations += 1
            for column in self._columns.values():
                column.reset()
            self._doc_refs = list(self._collection._docs.values())
            self.rebuilds += 1
        elif tail:
            self.on_insert_batch(tail)
        self._marker = live
        refs = self._doc_refs
        for field in fields:
            column = self._columns[field]
            if column.rows < len(refs):
                column.extend(refs[column.rows :])
        return rebuilt

    def info(self) -> Dict[str, Any]:
        """Mirror health, surfaced via ``middleware_stats()['columnar']``.

        ``fresh``: only inserts moved the write marker since the mirror
        was last current (an unbuilt mirror is not fresh); ``rows``: the
        rows the next read will hold while fresh, else None.
        """
        live = self._collection.write_marker()
        with self._lock:
            marker = self._marker
            fresh = marker is not None and follows_inserts(
                marker, live, live[0] - marker[0]
            )
            return {
                "enabled": self.enabled,
                "reason": self.disabled_reason,
                "fields": list(self.fields),
                "rows": len(self._doc_refs) + live[0] - marker[0] if fresh else None,
                "fresh": fresh,
                "rebuilds": self.rebuilds,
                "appends": self.appends,
                "invalidations": self.invalidations,
                "kernel_hits": self.kernel_hits,
                "fallbacks": self.fallbacks,
                "column_bytes": (
                    sum(column.nbytes for column in self._columns.values())
                    if self.enabled
                    else 0
                ),
            }

    # -- dispatch (collection read lock held) ------------------------------------

    def execute(
        self, pipeline: List[Dict[str, Any]]
    ) -> Tuple[Optional[List[Dict[str, Any]]], Dict[str, Any], Optional[int]]:
        """Try to run ``pipeline`` vectorized.

        Returns ``(rows, detail, matched)``. ``rows is None`` means the
        pipeline is not covered (shape or data); ``detail`` always says
        why, and feeds ``AggregationResult.explain['columnar']``.
        """
        if not self.enabled:
            return None, {"covered": False, "reason": self.disabled_reason}, None
        plan, reason = self._structural_plan(pipeline)
        if plan is None:
            with self._lock:
                self.fallbacks += 1
            return None, {"covered": False, "reason": reason}, None
        with self._lock:
            rebuilt = self._ensure_fresh_locked(plan.fields)
            ok, reason = self._data_coverage(plan)
            if not ok:
                self.fallbacks += 1
                return None, {"covered": False, "reason": reason}, None
            rows, matched = self._run(plan)
            self.kernel_hits += 1
            detail = {
                "covered": True,
                "kernel": plan.kind,
                "fields": sorted(plan.fields),
                "rows": len(self._doc_refs),
                "rebuilt": rebuilt,
            }
            return rows, detail, matched

    # -- structural coverage -----------------------------------------------------

    def _structural_plan(self, pipeline: List[Dict[str, Any]]):
        stages: List[Tuple[str, Any]] = []
        for stage in pipeline:
            if not isinstance(stage, dict) or len(stage) != 1:
                return None, "malformed stage"
            stages.append(next(iter(stage.items())))
        if not stages:
            return None, "empty pipeline"
        fields: Set[str] = set()
        index = 0
        match_spec = None
        if stages[index][0] == "$match":
            spec = stages[index][1]
            reason = self._match_supported(spec, fields)
            if reason is not None:
                return None, reason
            match_spec = spec
            index += 1
        derived: Dict[str, Tuple[str, float]] = {}
        probe = index
        while probe < len(stages) and stages[probe][0] == "$addFields":
            parsed = self._derived_supported(stages[probe][1], fields)
            if isinstance(parsed, str):
                return None, parsed
            if parsed is None:
                break
            derived.update(parsed)
            probe += 1
        if probe < len(stages) and stages[probe][0] == "$group":
            group = self._group_supported(stages[probe][1], derived, fields)
            if group is None:
                return None, "unsupported $group shape"
            tail = [dict([stages[k]]) for k in range(probe + 1, len(stages))]
            return (
                _Plan("group", match_spec, derived, group, None, tail, fields),
                None,
            )
        if derived:
            return None, "$addFields without a covered $group"
        if index < len(stages) and stages[index][0] == "$sort":
            sort_spec = stages[index][1]
            reason = self._sort_supported(sort_spec, fields)
            if reason is not None:
                return None, reason
            tail = stages[index + 1 :]
            reason = self._tail_supported(tail)
            if reason is not None:
                return None, reason
            return (
                _Plan("sort", match_spec, {}, None, list(sort_spec.items()), tail, fields),
                None,
            )
        if match_spec is not None:
            tail = stages[index:]
            reason = self._tail_supported(tail)
            if reason is not None:
                return None, reason
            return _Plan("match", match_spec, {}, None, None, tail, fields), None
        return None, "pipeline shape not covered"

    @staticmethod
    def _tail_supported(tail: List[Tuple[str, Any]]) -> Optional[str]:
        for position, (op, spec) in enumerate(tail):
            if op not in _TAIL_OPS:
                return f"trailing {op} not vectorized"
            if op == "$count":
                # only as the final stage; the compiler validated the name
                if position != len(tail) - 1 or not isinstance(spec, str) or not spec:
                    return "$count placement not vectorized"
            elif not isinstance(spec, int) or isinstance(spec, bool) or spec < 0:
                return f"{op} operand not vectorized"
        return None

    def _match_supported(self, spec: Any, fields: Set[str]) -> Optional[str]:
        if not isinstance(spec, dict):
            return "malformed $match"
        for key, cond in spec.items():
            if not isinstance(key, str) or key.startswith("$"):
                return "logical operators not vectorized"
            if key == "_id":
                return "_id match left to the planner's id step"
            if key not in self._columns:
                return f"field {key!r} not mirrored"
            fields.add(key)
            if _is_operator_doc(cond):
                for op, operand in cond.items():
                    if op not in _SUPPORTED_MATCH_OPS:
                        return f"{op} not vectorized"
                    if op in ("$in", "$nin"):
                        if not isinstance(operand, (list, tuple)):
                            return f"{op} operand malformed"
                        for element in operand:
                            if isinstance(element, (list, dict)) or not _hashable(element):
                                return f"{op} with container operands"
                    elif op in _RANGE_OPS:
                        if isinstance(operand, bool) or not isinstance(
                            operand, (int, float, str)
                        ):
                            return "range operand not vectorized"
                        if isinstance(operand, float) and operand != operand:
                            return "NaN range operand"
                        if _beyond_float64(operand):
                            return "range operand beyond float64-exact integers"
                    elif op in ("$eq", "$ne"):
                        if isinstance(operand, (list, dict)) or not _hashable(operand):
                            return "container equality not vectorized"
            elif isinstance(cond, dict):
                return "document literal equality not vectorized"
            elif isinstance(cond, list) or not _hashable(cond):
                return "container equality not vectorized"
        return None

    def _derived_supported(
        self, spec: Any, fields: Set[str]
    ) -> Union[Dict[str, Tuple[str, float]], str, None]:
        """The derived fields of a covered ``$addFields``; None when the
        stage is not that shape, a reason when it is but cannot run."""
        if not isinstance(spec, dict) or not spec:
            return None
        out: Dict[str, Tuple[str, float]] = {}
        for name, expr in spec.items():
            if (
                not isinstance(name, str)
                or not name
                or "." in name
                or name.startswith("$")
                or name == "_id"
            ):
                return None
            parsed = self._floor_div(expr)
            if parsed is None or isinstance(parsed, str):
                return parsed
            source, divisor = parsed
            if source not in self._columns:
                return None
            fields.add(source)
            out[name] = (source, divisor)
        return out

    def _floor_div(self, expr: Any) -> Union[Tuple[str, float], str, None]:
        """Match ``{"$floor": {"$divide": [src, k]}}`` where ``src`` is a
        mirrored field reference, optionally wrapped in a zero-default
        ``$ifNull`` (missing already folds to 0 in both engines); a
        reason instead when ``k`` is an int ``float()`` would round."""
        if not isinstance(expr, dict) or set(expr) != {"$floor"}:
            return None
        inner = expr["$floor"]
        if not isinstance(inner, dict) or set(inner) != {"$divide"}:
            return None
        args = inner["$divide"]
        if not isinstance(args, (list, tuple)) or len(args) != 2:
            return None
        source, divisor = args
        if (
            isinstance(divisor, bool)
            or not isinstance(divisor, (int, float))
            or divisor == 0
            or divisor != divisor
        ):
            return None
        if isinstance(source, dict) and set(source) == {"$ifNull"}:
            if_args = source["$ifNull"]
            if not isinstance(if_args, (list, tuple)) or len(if_args) != 2:
                return None
            source, default = if_args
            if isinstance(default, bool) or default != 0:
                return None
        if not isinstance(source, str) or not source.startswith("$") or len(source) < 2:
            return None
        path = source[1:]
        if path.startswith("$"):
            return None
        if _beyond_float64(divisor):
            return "$divide divisor beyond float64-exact integers"
        return path, float(divisor)

    def _group_supported(
        self, spec: Any, derived: Dict[str, Tuple[str, float]], fields: Set[str]
    ) -> Optional[_GroupPlan]:
        if not isinstance(spec, dict) or "_id" not in spec:
            return None

        def resolve(ref: Any) -> Optional[Tuple[str, str]]:
            if not isinstance(ref, str) or not ref.startswith("$") or len(ref) < 2:
                return None
            path = ref[1:]
            if path in derived:
                return ("derived", path)
            if path in self._columns:
                fields.add(path)
                return ("col", path)
            return None

        id_expr = spec["_id"]
        if isinstance(id_expr, str) and id_expr.startswith("$"):
            ref = resolve(id_expr)
            if ref is None:
                return None
            id_kind, id_payload = "field", ref
        elif isinstance(id_expr, dict):
            if len(id_expr) == 1 and next(iter(id_expr)).startswith("$"):
                return None  # single-key $-dict is an operator expression
            refs = []
            for name, sub in id_expr.items():
                if not isinstance(name, str):
                    return None
                ref = resolve(sub)
                if ref is None:
                    return None
                refs.append((name, ref))
            if not refs:
                return None
            id_kind, id_payload = "doc", refs
        elif isinstance(id_expr, list):
            return None
        else:
            id_kind, id_payload = "const", id_expr

        accumulators: List[Tuple[str, str, Any]] = []
        for name, acc in spec.items():
            if name == "_id":
                continue
            if not isinstance(name, str) or not isinstance(acc, dict) or len(acc) != 1:
                return None
            op, operand = next(iter(acc.items()))
            if op == "$count":
                if operand != {}:
                    return None
                accumulators.append((name, "count", None))
            elif op == "$sum":
                if isinstance(operand, bool):
                    return None
                if isinstance(operand, int):
                    accumulators.append((name, "sum_lit", operand))
                    continue
                truthy_path = _cond_truthy_path(operand)
                if truthy_path is not None:
                    if truthy_path not in self._columns:
                        return None
                    fields.add(truthy_path)
                    accumulators.append((name, "cond_truthy", truthy_path))
                    continue
                ref = resolve(operand)
                if ref is None:
                    return None
                accumulators.append((name, "sum", ref))
            elif op in ("$avg", "$min", "$max", "$first", "$last", "$addToSet"):
                ref = resolve(operand)
                if ref is None:
                    return None
                if op == "$addToSet" and ref[0] == "derived":
                    return None
                accumulators.append((name, op[1:].lower() if op != "$addToSet" else "add_to_set", ref))
            else:
                return None
        return _GroupPlan(id_kind, id_payload, accumulators)

    def _sort_supported(self, spec: Any, fields: Set[str]) -> Optional[str]:
        if not isinstance(spec, dict) or not spec:
            return "empty $sort"
        for path, direction in spec.items():
            if not isinstance(path, str) or path not in self._columns:
                return f"sort field {path!r} not mirrored"
            if direction not in (1, -1) or isinstance(direction, bool):
                return "sort direction not vectorized"
            fields.add(path)
        return None

    # -- data coverage -----------------------------------------------------------

    def _data_coverage(self, plan: _Plan) -> Tuple[bool, Optional[str]]:
        if plan.match:
            for key, cond in plan.match.items():
                column = self._columns[key]
                ops = (
                    list(cond.items())
                    if _is_operator_doc(cond)
                    else [("$literal", cond)]
                )
                for op, operand in ops:
                    if op == "$exists":
                        continue
                    if column.has_list:
                        return False, f"field {key!r} holds arrays (multikey match)"
                    if op in _RANGE_OPS and not isinstance(operand, str) and not (
                        column.numeric_exact and not column.big_float
                    ):
                        return False, f"field {key!r} not float64-exact"
        for name, (source, _divisor) in plan.derived.items():
            if not self._columns[source].arith_clean:
                return False, f"derived field {name!r} source not arithmetic-clean"
        if plan.sort is not None:
            for path, _direction in plan.sort:
                if not self._columns[path].sortable:
                    return False, f"sort field {path!r} not totally orderable"
        group = plan.group
        if group is not None:
            refs = []
            if group.id_kind == "field":
                refs.append(group.id_payload)
            elif group.id_kind == "doc":
                refs.extend(ref for _name, ref in group.id_payload)
            for kind, payload in refs:
                if kind == "col" and not self._columns[payload].encodable:
                    return False, f"group key {payload!r} not dictionary-encodable"
            for _name, op, payload in group.accumulators:
                if op in ("sum", "avg", "min", "max"):
                    kind, path = payload
                    if kind == "col" and not self._columns[path].numeric_exact:
                        return False, f"field {path!r} not float64-exact"
                elif op in ("first", "last", "add_to_set"):
                    kind, path = payload
                    if kind == "col" and not self._columns[path].encodable:
                        return False, f"field {path!r} not dictionary-encodable"
        return True, None

    # -- kernels -----------------------------------------------------------------

    def _run(self, plan: _Plan) -> Tuple[List[Dict[str, Any]], int]:
        n = len(self._doc_refs)
        if plan.match:
            mask = self._match_mask(plan.match, n)
            idx = np.nonzero(mask)[0]
        else:
            idx = np.arange(n, dtype=np.int64)
        matched = int(idx.size)
        if plan.kind == "group":
            rows = self._run_group(plan, idx)
            if plan.tail:
                from repro.docstore.aggregate import compile_pipeline

                return compile_pipeline(plan.tail).run(rows), matched
            return [json_clone(row) for row in rows], matched
        if plan.kind == "sort":
            idx = self._run_sort(plan.sort, idx)
        return self._finish_indices(idx, plan.tail or []), matched

    def _finish_indices(
        self, idx: Any, tail: List[Tuple[str, Any]]
    ) -> List[Dict[str, Any]]:
        for op, spec in tail:
            if op == "$limit":
                idx = idx[:spec]
            elif op == "$skip":
                idx = idx[spec:]
            else:  # "$count", validated final
                return [{spec: int(idx.size)}]
        refs = self._doc_refs
        return [json_clone(refs[i]) for i in idx.tolist()]

    # -- $match mask -------------------------------------------------------------

    def _match_mask(self, spec: Dict[str, Any], n: int) -> Any:
        mask = np.ones(n, dtype=bool)
        for key, cond in spec.items():
            column = self._columns[key]
            if _is_operator_doc(cond):
                for op, operand in cond.items():
                    mask &= self._op_mask(column, op, operand, n)
            else:
                mask &= self._literal_mask(column, cond, n)
        return mask

    @staticmethod
    def _code_of(column: _Column, value: Any) -> Optional[int]:
        key = ("$bool", value) if isinstance(value, bool) else value
        return column.encode.get(key)

    def _eq_mask(self, column: _Column, value: Any, n: int) -> Any:
        code = self._code_of(column, value)
        if code is None:
            return np.zeros(n, dtype=bool)
        return column.arrays()[0] == code

    def _literal_mask(self, column: _Column, value: Any, n: int) -> Any:
        mask = self._eq_mask(column, value, n)
        if value is None:
            # a null literal also matches documents missing the field
            mask = mask | (column.arrays()[0] == _MISSING_CODE)
        return mask

    def _op_mask(self, column: _Column, op: str, operand: Any, n: int) -> Any:
        codes, nums, numeric, _truthy, _is_float = column.arrays()
        if op == "$exists":
            present = codes != _MISSING_CODE
            return present if operand else ~present
        if op == "$eq":
            return self._eq_mask(column, operand, n)
        if op == "$ne":
            # universal: missing/opaque rows can never equal the operand
            return ~self._eq_mask(column, operand, n)
        if op in ("$in", "$nin"):
            mask = np.zeros(n, dtype=bool)
            for element in operand:
                mask |= self._eq_mask(column, element, n)
            return mask if op == "$in" else ~mask
        if isinstance(operand, str):
            # string bounds: evaluate once per distinct value, then gather
            table = np.fromiter(
                (
                    isinstance(value, str) and _str_cmp(op, value, operand)
                    for value in column.decode
                ),
                dtype=bool,
                count=len(column.decode),
            )
            mask = np.zeros(n, dtype=bool)
            valid = codes >= 0
            mask[valid] = table[codes[valid]]
            return mask
        compare = {
            "$gt": np.greater,
            "$gte": np.greater_equal,
            "$lt": np.less,
            "$lte": np.less_equal,
        }[op]
        with np.errstate(invalid="ignore"):
            return numeric & compare(nums, operand)

    # -- $group kernel -----------------------------------------------------------

    def _derived_array(self, plan: _Plan, name: str, cache: Dict[str, Any]) -> Any:
        values = cache.get(name)
        if values is None:
            source, divisor = plan.derived[name]
            nums = self._columns[source].arrays()[1]
            values = np.floor(nums / divisor)
            cache[name] = values
        return values

    def _ref_value(self, ref: Tuple[str, str], row: int, plan: _Plan, cache: Dict[str, Any]) -> Any:
        kind, payload = ref
        if kind == "col":
            return self._columns[payload].value_at(row)
        # derived floor(x/k): the row engine's math.floor returns int
        return int(self._derived_array(plan, payload, cache)[row])

    def _group_key_array(
        self, ref: Tuple[str, str], idx: Any, plan: _Plan, cache: Dict[str, Any]
    ) -> Any:
        kind, payload = ref
        if kind == "col":
            column = self._columns[payload]
            codes = column.arrays()[0][idx]
            none_code = self._code_of(column, None)
            if none_code is None:
                none_code = len(column.decode)
            # missing and null group together (both resolve to None)
            return np.where(codes == _MISSING_CODE, none_code, codes)
        values = self._derived_array(plan, payload, cache)[idx]
        _, inverse = np.unique(values, return_inverse=True)
        return inverse.reshape(-1)

    def _numeric_view(
        self, ref: Tuple[str, str], idx: Any, plan: _Plan, cache: Dict[str, Any]
    ) -> Tuple[Any, Any, Any]:
        """(values, numeric mask, float mask) over the matched rows."""
        kind, payload = ref
        if kind == "col":
            _codes, nums, numeric, _truthy, is_float = self._columns[payload].arrays()
            return nums[idx], numeric[idx], is_float[idx]
        values = self._derived_array(plan, payload, cache)[idx]
        ones = np.ones(values.shape[0], dtype=bool)
        # math.floor yields Python ints in the row engine
        return values, ones, np.zeros(values.shape[0], dtype=bool)

    def _run_group(self, plan: _Plan, idx: Any) -> List[Dict[str, Any]]:
        group = plan.group
        cache: Dict[str, Any] = {}
        n_matched = int(idx.size)
        if group.id_kind == "const":
            gid = np.zeros(n_matched, dtype=np.int64)
            n_groups = 1 if n_matched else 0
            id_values = [json_clone(group.id_payload)] if n_groups else []
        else:
            refs = (
                [group.id_payload]
                if group.id_kind == "field"
                else [ref for _name, ref in group.id_payload]
            )
            keys = [self._group_key_array(ref, idx, plan, cache) for ref in refs]
            gid, n_groups, reps = _factorize(keys)
            if group.id_kind == "field":
                id_values = [
                    json_clone(self._ref_value(group.id_payload, int(idx[rep]), plan, cache))
                    for rep in reps
                ]
            else:
                id_values = [
                    {
                        name: json_clone(self._ref_value(ref, int(idx[rep]), plan, cache))
                        for name, ref in group.id_payload
                    }
                    for rep in reps
                ]
        outputs: List[List[Any]] = []
        arange_m = np.arange(n_matched, dtype=np.int64)
        for _name, op, payload in group.accumulators:
            if op == "count":
                counts = np.bincount(gid, minlength=n_groups)
                outputs.append([int(c) for c in counts])
            elif op == "sum_lit":
                counts = np.bincount(gid, minlength=n_groups)
                outputs.append([int(c) * payload for c in counts])
            elif op == "cond_truthy":
                truthy = self._columns[payload].arrays()[3][idx]
                totals = np.bincount(
                    gid, weights=truthy.astype(np.float64), minlength=n_groups
                )
                outputs.append([int(t) for t in totals])
            elif op in ("sum", "avg", "min", "max"):
                values, numeric, is_float = self._numeric_view(payload, idx, plan, cache)
                gid_f = gid[numeric]
                vals_f = values[numeric]
                counts = np.bincount(gid_f, minlength=n_groups)
                float_counts = np.bincount(gid[numeric & is_float], minlength=n_groups)
                if op == "sum":
                    totals = np.zeros(n_groups, dtype=np.float64)
                    # np.add.at accumulates sequentially in row order —
                    # bit-identical to Python's left-to-right `total += v`
                    np.add.at(totals, gid_f, vals_f)
                    outputs.append(
                        [
                            0
                            if counts[g] == 0
                            else (float(totals[g]) if float_counts[g] else int(totals[g]))
                            for g in range(n_groups)
                        ]
                    )
                elif op == "avg":
                    totals = np.zeros(n_groups, dtype=np.float64)
                    np.add.at(totals, gid_f, vals_f)
                    outputs.append(
                        [
                            float(totals[g] / counts[g]) if counts[g] else None
                            for g in range(n_groups)
                        ]
                    )
                else:
                    fill = np.inf if op == "min" else -np.inf
                    best = np.full(n_groups, fill, dtype=np.float64)
                    reducer = np.minimum if op == "min" else np.maximum
                    reducer.at(best, gid_f, vals_f)
                    outputs.append(
                        [
                            None
                            if counts[g] == 0
                            else (float(best[g]) if float_counts[g] else int(best[g]))
                            for g in range(n_groups)
                        ]
                    )
            elif op in ("first", "last"):
                if op == "first":
                    pos = np.full(n_groups, n_matched, dtype=np.int64)
                    np.minimum.at(pos, gid, arange_m)
                else:
                    pos = np.full(n_groups, -1, dtype=np.int64)
                    np.maximum.at(pos, gid, arange_m)
                outputs.append(
                    [
                        json_clone(self._ref_value(payload, int(idx[pos[g]]), plan, cache))
                        for g in range(n_groups)
                    ]
                )
            else:  # add_to_set
                column = self._columns[payload[1]]
                codes = column.arrays()[0][idx]
                none_code = self._code_of(column, None)
                if none_code is None:
                    none_code = len(column.decode)
                span = len(column.decode) + 1
                adjusted = np.where(codes == _MISSING_CODE, none_code, codes)
                pair = gid * span + adjusted
                uniq, first_pos = np.unique(pair, return_index=True)
                order = np.argsort(first_pos, kind="stable")
                sets: List[List[Any]] = [[] for _ in range(n_groups)]
                decode = column.decode
                for value in uniq[order].tolist():
                    g, code = divmod(value, span)
                    sets[g].append(
                        None if code >= len(decode) else json_clone(decode[code])
                    )
                outputs.append(sets)
        rows: List[Dict[str, Any]] = []
        for g in range(n_groups):
            row: Dict[str, Any] = {"_id": id_values[g]}
            for (name, _op, _payload), out in zip(group.accumulators, outputs):
                row[name] = out[g]
            rows.append(row)
        return rows

    # -- $sort kernel ------------------------------------------------------------

    def _run_sort(self, sort_spec: List[Tuple[str, int]], idx: Any) -> Any:
        if idx.size == 0:
            return idx
        keys: List[Any] = []
        for path, direction in reversed(sort_spec):
            rank, value = self._sort_keys(self._columns[path], idx)
            if direction == -1:
                rank = -rank
                value = -value
            keys.append(value)
            keys.append(rank)
        # np.lexsort is stable and treats the LAST key as primary, so the
        # first sort field's rank lands last; ties keep insertion order,
        # matching sort_documents / the fused top-k index tiebreak.
        perm = np.lexsort(keys)
        return idx[perm]

    def _sort_keys(self, column: _Column, idx: Any) -> Tuple[Any, Any]:
        """Per-row (type rank, order value) replicating ``_SortKey``:
        missing < null < numbers < strings < everything else."""
        codes, nums, numeric, _truthy, _is_float = column.arrays()
        codes = codes[idx]
        nums = nums[idx]
        numeric = numeric[idx]
        k = len(column.decode)
        rank_by_code = np.empty(k, dtype=np.int64)
        order_by_code = np.zeros(k, dtype=np.float64)
        strings: List[int] = []
        others: List[int] = []
        for code, value in enumerate(column.decode):
            if value is None:
                rank_by_code[code] = 1
            elif isinstance(value, bool):
                rank_by_code[code] = 4
                others.append(code)
            elif isinstance(value, (int, float)):
                rank_by_code[code] = 2
            elif isinstance(value, str):
                rank_by_code[code] = 3
                strings.append(code)
            else:
                rank_by_code[code] = 4
                others.append(code)
        decode = column.decode
        for position, code in enumerate(sorted(strings, key=lambda c: decode[c])):
            order_by_code[code] = float(position)
        for position, code in enumerate(
            sorted(others, key=lambda c: (str(type(decode[c])), str(decode[c])))
        ):
            order_by_code[code] = float(position)
        rank = np.zeros(idx.size, dtype=np.int64)
        value = np.zeros(idx.size, dtype=np.float64)
        valid = codes >= 0
        rank[valid] = rank_by_code[codes[valid]]
        value[valid] = order_by_code[codes[valid]]
        # numbers order by magnitude; per-code order only serves str/other
        value[numeric] = nums[numeric]
        return rank, value
