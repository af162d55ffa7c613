"""Index ≡ model: ``SortedIndex`` against a brute-force pair list.

The index defers ordering to the first read after a write, keeps
emptied buckets until the next fold and answers ranges by bisecting a
key list that several partitions and many arrival orders feed. The
model knows none of that: it is the ``{doc_id: document}`` dict and a
predicate, walked in full for every read. Writes and reads interleave
at random — every write rule optionally probes right behind itself, so
folds of zero, one and many pending keys all occur — and after every
step the partition layout must still be coherent (``keys`` strictly
increasing, every bucket key in exactly one of ``keys`` / ``pending``):
a duplicate key would not show in a range result, which is a union.
"""

import math

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.docstore.index import SortedIndex

NUMBERS = [-3, -1, 0, 1, 2, 7, 2**53 + 1, -0.0, 0.0, 1.0, 1.5, 2.0, -2.5]
NUMBERS += [math.inf, -math.inf]
STRINGS = ["", "a", "ab", "b", "z"]
SCALARS = st.one_of(
    st.sampled_from(NUMBERS + [math.nan]),
    st.sampled_from(STRINGS),
    st.sampled_from([None, True, False]),
    st.integers(min_value=-50, max_value=50),
    st.floats(min_value=-50, max_value=50, allow_nan=False),
)
VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=3),  # multikey
    st.just({"sub": 1}),  # unhashable: stored, never indexed
)
NUMBER_BOUNDS = st.one_of(
    st.sampled_from(NUMBERS), st.floats(min_value=-60, max_value=60)
)
#: (low, low_inclusive, high, high_inclusive): one key family per read,
#: either bound (or both) absent
BOUNDS = st.one_of(
    *(
        st.tuples(
            st.one_of(st.none(), family),
            st.booleans(),
            st.one_of(st.none(), family),
            st.booleans(),
        )
        for family in (NUMBER_BOUNDS, st.sampled_from(STRINGS))
    )
)


def family(key):
    """Which keys a range can see, and which bounds they answer to."""
    if isinstance(key, bool) or key is None:
        return None
    if isinstance(key, (int, float)):
        return None if key != key else "number"
    return "str" if isinstance(key, str) else None


def in_range(key, low, low_inclusive, high, high_inclusive):
    kind = family(key)
    if kind is None:
        return False
    for bound in (low, high):
        if bound is not None and family(bound) != kind:
            return False
    if low is not None and not (key >= low if low_inclusive else key > low):
        return False
    if high is not None and not (key <= high if high_inclusive else key < high):
        return False
    return True


class SortedIndexMachine(RuleBasedStateMachine):
    PATH = "v"

    def __init__(self):
        super().__init__()
        self.index = SortedIndex(self.PATH)
        self.model = {}
        self.next_id = 0
        #: families written to since they were last read: only those
        #: may fold on the next read
        self.dirty = set()

    # -- the model ------------------------------------------------------

    def document(self, value):
        document = value
        for part in reversed(self.PATH.split(".")):
            document = {part: document}
        return document

    def keys_of(self, document):
        for part in self.PATH.split("."):
            document = document[part]
        return document if isinstance(document, list) else [document]

    def expected(self, low, low_inclusive, high, high_inclusive):
        return {
            doc_id
            for doc_id, document in self.model.items()
            for key in self.keys_of(document)
            if in_range(key, low, low_inclusive, high, high_inclusive)
        }

    def place(self, value):
        self.next_id += 1
        document = self.document(value)
        self.model[self.next_id] = document
        self.dirty.update(("number", "str"))
        return self.next_id, document

    def check(self, bounds):
        if bounds is None:
            return
        low, _, high, _ = bounds
        bound = low if low is not None else high
        consulted = {"number", "str"} if bound is None else {family(bound)}
        may_fold = len(consulted & self.dirty)
        folds = self.index.folds
        assert self.index.range(*bounds) == self.expected(*bounds)
        assert 0 <= self.index.folds - folds <= may_fold
        self.dirty -= consulted

    # -- writes, each optionally probed right behind ----------------------

    @rule(value=VALUES, probe=st.one_of(st.none(), BOUNDS))
    def insert(self, value, probe):
        self.index.insert(*self.place(value))
        self.check(probe)

    @rule(values=st.lists(VALUES, max_size=8), probe=st.one_of(st.none(), BOUNDS))
    def insert_many(self, values, probe):
        self.index.insert_many([self.place(value) for value in values])
        self.check(probe)

    @rule(data=st.data(), probe=st.one_of(st.none(), BOUNDS))
    def remove(self, data, probe):
        if not self.model:
            return
        doc_id = data.draw(st.sampled_from(sorted(self.model)))
        self.index.remove(doc_id, self.model.pop(doc_id))
        self.check(probe)

    @rule(data=st.data(), probe=st.one_of(st.none(), BOUNDS), batch=st.booleans())
    def empty_a_key_then_reinsert_it(self, data, probe, batch):
        if not self.model:
            return
        victim = data.draw(st.sampled_from(sorted(self.model)))
        value = self.keys_of(self.model[victim])[:1]
        for doc_id, document in list(self.model.items()):
            if any(k in value for k in self.keys_of(document) if k == k):
                self.index.remove(doc_id, self.model.pop(doc_id))
        self.check(probe)  # a read may or may not see the emptied bucket
        if batch:
            self.index.insert_many([self.place(value)])
        else:
            self.index.insert(*self.place(value))
        self.check(probe)

    @rule()
    def remove_unknown_is_a_no_op(self):
        self.index.remove(-1, self.document(1.0))
        self.index.remove(-1, self.document("never"))

    @rule()
    def clear(self):
        self.index.clear()
        self.model.clear()

    # -- reads ------------------------------------------------------------

    @rule(bounds=BOUNDS)
    def range(self, bounds):
        self.check(bounds)

    @rule(value=SCALARS.filter(lambda value: value is not None))
    def lookup(self, value):
        self.check((value, True, value, True))
        assert self.index.lookup(value) == self.expected(value, True, value, True)

    @rule()
    def nan_matches_nothing(self):
        assert self.index.range(low=math.nan) == set()
        assert self.index.range(high=math.nan) == set()
        assert self.index.lookup(math.nan) == set()

    # -- after every step ---------------------------------------------------

    @invariant()
    def size_matches(self):
        pairs = 0
        for document in self.model.values():
            kept = [k for k in self.keys_of(document) if family(k) is not None]
            pairs += len(set(kept))
        assert len(self.index) == pairs

    @invariant()
    def layout_is_coherent(self):
        for partition in self.index._partitions.values():
            keys = partition.keys
            assert all(a < b for a, b in zip(keys, keys[1:]))
            placed = keys + partition.pending
            assert len(placed) == len(partition.buckets)
            assert all(key in partition.buckets for key in placed)
            # an emptied bucket waits, flagged, for the next fold only
            assert partition.dead or all(partition.buckets.values())


class DottedPathMachine(SortedIndexMachine):
    PATH = "a.v"


SortedIndexMachine.TestCase.settings = DottedPathMachine.TestCase.settings = settings(
    max_examples=80, stateful_step_count=40, deadline=None
)
TestSortedIndex = SortedIndexMachine.TestCase
TestSortedIndexDottedPath = DottedPathMachine.TestCase
