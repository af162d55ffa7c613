"""Index ≡ scan: the fan-out index against the whole predicate.

``SubscriptionManager.on_stored`` no longer asks every subscription
whether it wants an observation — it looks up ``(app, region)`` buckets
and runs the residual predicate on what they hold. This machine keeps
the linear scan alive as the *oracle*: a plain-Python model that, for
every stored observation, walks every registered subscription with
``FilterSpec.matches`` / ``wants_region`` and the drop-oldest /
eviction arithmetic, under subscribe / unsubscribe / drain /
overrun-to-eviction churn. After every observation the manager's
per-subscription counters, the tail of each live outbox, the live
counter and the ``candidates`` cost counter must equal the model's.

Observations are stored through a real ``DataManager`` whose ingest
listener is the manager's ``on_stored``: tile scopes are built from
that store at their first reader, so a tile subscription that arrives
after some observations still streams counts that include them.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.datamgmt import DataManager
from repro.core.privacy import PrivacyPolicy
from repro.docstore.store import DocumentStore
from repro.sharding.region import region_of
from repro.streaming import FilterSpec, SubscriptionManager

APPS = ["A", "B"]
CELLS = [f"g{x}:{y}" for x in range(3) for y in range(3)]
#: what an unlocated observation routes to (day bucket / no key at all)
REGION_KEYS = CELLS + ["d0", "default"]

SPECS = st.builds(
    FilterSpec,
    app_id=st.sampled_from([None] + APPS),
    datatype=st.sampled_from([None, None, "Observation", "Noise"]),
    model=st.sampled_from([None, None, "m1", "m2"]),
    regions=st.one_of(
        st.none(),
        st.just(frozenset()),
        st.sets(st.sampled_from(REGION_KEYS), min_size=1, max_size=9).map(
            frozenset
        ),
    ),
    since=st.one_of(st.none(), st.integers(min_value=0, max_value=60)),
    until=st.one_of(st.none(), st.integers(min_value=40, max_value=100)),
)

DOCUMENTS = st.fixed_dictionaries(
    {},
    optional={
        "location": st.builds(
            lambda x, y: {"x_m": x * 500.0 + 1.0, "y_m": y * 500.0 + 1.0},
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=2),
        ),
        "taken_at": st.integers(min_value=0, max_value=100),
        "datatype": st.just("Noise"),
        "model": st.sampled_from(["m1", "m2", "m3"]),
        "noise_dba": st.integers(min_value=30, max_value=90),
    },
)


class _ModelSub:
    """What the linear scan knows about one subscription."""

    def __init__(self, spec, observations, tiles, capacity, max_overruns):
        self.spec = spec
        self.observations = observations
        self.tiles = tiles
        self.capacity = capacity
        self.max_overruns = max_overruns
        self.state = "live"
        self.pending = 0
        self.delivered = 0
        self.overruns = 0

    def push(self):
        self.delivered += 1
        if self.pending >= self.capacity:
            self.overruns += 1
            if self.max_overruns and self.overruns >= self.max_overruns:
                self.state = "evicted"
                self.pending = 0
        else:
            self.pending += 1

    def indexed_for(self, app_id, region):
        """Whether an indexed fan-out has to look at this subscription
        for an ``(app_id, region)`` observation at all."""
        return (
            self.state == "live"
            and self.spec.app_id in (None, app_id)
            and self.spec.wants_region(region)
        )


class FanOutIndexMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.data = DataManager(DocumentStore(), PrivacyPolicy())
        self.manager = SubscriptionManager(self.data)
        self.data.add_ingest_listener(self.manager.on_stored)
        self.model = {}
        self.next_doc_id = 0
        self.pushed = 0
        #: tile observation counts by scope: (app, region) and
        #: (None, region) for the global map
        self.tile_counts = {}

    @rule(
        spec=SPECS,
        mode=st.sampled_from(["observations", "tiles", "both"]),
        capacity=st.sampled_from([2, 3, 64]),
        max_overruns=st.sampled_from([0, 2, 5]),
    )
    def subscribe(self, spec, mode, capacity, max_overruns):
        observations = mode != "tiles"
        tiles = mode != "observations"
        sub_id = self.manager.subscribe(
            spec,
            observations=observations,
            tiles=tiles,
            capacity=capacity,
            max_overruns=max_overruns,
        )
        self.model[sub_id] = _ModelSub(
            spec, observations, tiles, capacity, max_overruns
        )

    @rule(data=st.data())
    def unsubscribe(self, data):
        if not self.model:
            return
        sub_id = data.draw(st.sampled_from(sorted(self.model)))
        removed = self.manager.unsubscribe(sub_id)
        assert removed["state"] == self.model.pop(sub_id).state

    @rule(data=st.data())
    def drain(self, data):
        live = sorted(s for s, m in self.model.items() if m.state == "live")
        if not live:
            return
        sub_id = data.draw(st.sampled_from(live))
        acked = self.manager.subscription_info(sub_id)["next_cursor"] - 1
        result = self.manager.next_events(sub_id, ack=acked)
        assert result["pending"] == 0
        self.model[sub_id].pending = 0

    @rule(app_id=st.sampled_from(APPS + ["C"]), document=DOCUMENTS)
    def store(self, app_id, document):
        self.next_doc_id += 1
        doc_id = self.next_doc_id
        region = region_of(document, self.manager.cell_m)
        for scope in (app_id, None):
            key = (scope, region)
            self.tile_counts[key] = self.tile_counts.get(key, 0) + 1

        # the scan: every registered subscription, the whole predicate
        expected_tail = {}
        expected_candidates = 0
        for sub_id, sub in self.model.items():
            if sub.indexed_for(app_id, region):
                expected_candidates += 1
            if sub.state != "live":
                continue
            tail = []
            delivered = sub.delivered
            if sub.observations and sub.spec.matches(app_id, document, region):
                sub.push()
                tail.append(("observation", doc_id))
            # tile rule: region filter + app scope, and still live
            if sub.tiles and sub.indexed_for(app_id, region):
                sub.push()
                tail.append(("tile", self.tile_counts[sub.spec.app_id, region]))
            self.pushed += sub.delivered - delivered
            if sub.state == "live":
                expected_tail[sub_id] = tail

        before = self.manager.stats()
        assert self.data.ingest_many(app_id, [document]) == [doc_id]
        after = self.manager.stats()

        assert after["candidates"] - before["candidates"] == expected_candidates
        for sub_id, sub in self.model.items():
            info = self.manager.subscription_info(sub_id)
            assert (
                info["state"],
                info["delivered"],
                info["pending"],
                info["overruns"],
            ) == (sub.state, sub.delivered, sub.pending, sub.overruns), sub_id
        # who got what: capacity >= 2, so both events of this
        # observation are still at the tail of a live outbox
        for sub_id, tail in expected_tail.items():
            events = self.manager.next_events(sub_id, limit=100)["events"]
            got = [
                (e["kind"], e["_id"] if e["kind"] == "observation" else e["count"])
                for e in events
                if e["kind"] != "lagged"
            ]
            assert got[len(got) - len(tail) :] == tail, sub_id
            for event in events[len(events) - len(tail) :]:
                assert event["region"] == region

    @invariant()
    def live_counter_matches(self):
        live = sum(1 for sub in self.model.values() if sub.state == "live")
        stats = self.manager.stats()
        assert stats["subscriptions"] == live
        assert stats["fanned_out"] == self.pushed


FanOutIndexMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestFanOutIndex = FanOutIndexMachine.TestCase
