"""The seeded generator hits the paper's anchors and is a pure function
of its seed."""

import json
from collections import Counter

import pytest

from bench.traffic import LAG_MIX, Traffic
from bench.workloads import WORKLOADS
from repro.devices.registry import DeviceRegistry

COUNT = 50_000
TOLERANCE = 0.02  # two percentage points


@pytest.fixture(scope="module")
def stream():
    return Traffic(7).stream(COUNT)


def test_lag_mix_follows_fig17(stream):
    lags = [arrival - obs.taken_at for obs, arrival in zip(stream.observations, stream.arrivals)]
    for share, low, high in LAG_MIX:
        got = sum(1 for lag in lags if low <= lag < high) / COUNT
        assert abs(got - share) < TOLERANCE, (low, high, got)
    assert min(lags) > 0


def test_arrival_order_is_the_generator_clock_not_taken_at(stream):
    assert stream.arrivals == sorted(stream.arrivals)
    taken = [obs.taken_at for obs in stream.observations]
    assert taken != sorted(taken)


def test_localized_share_and_provider_mix(stream):
    fixes = [obs.location for obs in stream.observations if obs.location is not None]
    assert abs(len(fixes) / COUNT - 0.40) < TOLERANCE
    providers = Counter(fix.provider for fix in fixes)
    for provider, share in (("network", 0.86), ("gps", 0.07), ("fused", 0.07)):
        assert abs(providers[provider] / len(fixes) - share) < TOLERANCE, provider


def test_accuracy_follows_the_provider(stream):
    by_provider = {}
    for obs in stream.observations:
        if obs.location is not None:
            by_provider.setdefault(obs.location.provider, []).append(obs.location.accuracy_m)
    median = {name: sorted(values)[len(values) // 2] for name, values in by_provider.items()}
    assert 6 <= median["gps"] <= 20 < median["network"] <= 50 < median["fused"]


def test_model_shares_follow_fig9(stream):
    counts = Counter(obs.model for obs in stream.observations)
    for model, share in DeviceRegistry().measurement_shares().items():
        assert abs(counts[model] / COUNT - share) < TOLERANCE, model


def test_home_zone_holds_most_of_a_users_fixes():
    traffic = Traffic(7)
    stream = traffic.stream(COUNT)
    home = dict(zip(traffic.user_ids, map(tuple, traffic.home_zones)))
    fixes = [(obs.user_id, obs.location) for obs in stream.observations if obs.location]
    at_home = sum(
        1 for user, fix in fixes if (int(fix.x_m // 1000), int(fix.y_m // 1000)) == home[user]
    )
    # 70 % by construction, plus roaming draws that land on the home zone
    assert 0.70 <= at_home / len(fixes) <= 0.80


def _inputs(seed):
    traffic = Traffic(seed)
    corpus = traffic.corpus(2_000)
    stream = traffic.stream(3_000, run_length=500)
    downtown = traffic.stream(500, run_length=500, downtown=True)
    return json.dumps(
        [
            corpus,
            [obs.to_document() for obs in stream.observations],
            stream.arrivals,
            [obs.to_document() for obs in downtown.observations],
        ],
        sort_keys=True,
    )


def test_same_seed_same_bytes_other_seed_other_bytes():
    # compare outside the assert: pytest would try to diff megabytes
    same, other = _inputs(3) == _inputs(3), _inputs(3) == _inputs(4)
    assert same and not other


def test_nothing_identifying_the_run_reaches_the_program():
    seed = 987654321
    text = _inputs(seed)
    leaked = [word for word in (*WORKLOADS, "seed", str(seed)) if word in text]
    assert not leaked
    # identifiers are the same whatever the seed: only the draws differ
    assert Traffic(1).user_ids == Traffic(2).user_ids


def test_run_length_keeps_a_backlog_on_one_phone():
    stream = Traffic(5).stream(2_000, run_length=500)
    for start in range(0, 2_000, 500):
        assert len({obs.user_id for obs in stream.observations[start : start + 500]}) == 1
