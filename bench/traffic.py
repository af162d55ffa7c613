"""Seeded traffic generator: seed -> inputs, pinned to the paper's figures.

The middleware under test only ever sees what this module returns —
:class:`~repro.sensing.scheduler.Observation` objects for the clients
and wire-form documents for the standing corpus. Neither carries the
seed or a workload name.

Anchors (each checked by ``bench/tests/test_traffic.py``):

- **lateness** (Fig. 17): ``taken_at = arrival - lag`` with the lag a
  three-part mixture — 30 % within 10 s, 35 % between 10 s and 2 h,
  35 % between 2 h and 48 h. Arrival order is the generator's clock
  (10 observations per simulated second), so ``taken_at`` reaches the
  sorted index out of order, the way disconnected phones deliver it;
- **location** (§5.1, Figs. 10-13): 40 % of observations carry a fix;
  of those 86 % network, 7 % GPS, 7 % fused, each with the provider's
  own accuracy distribution;
- **fleet** (Fig. 9): the 200 users' phone models follow the registry's
  measurement shares (largest-remainder quotas, so the shares hold at
  200 users rather than only in expectation);
- **locality**: each user has a home 1 km zone holding 70 % of their
  fixes, the rest land within +-3 zones — which bounds the broker's
  ``(exchange, routing_key)`` working set to a few thousand pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.client.client import GoFlowClient
from repro.client.versions import AppVersion
from repro.devices.registry import DeviceRegistry
from repro.sensing.activity import ActivityReading
from repro.sensing.location import LocationFix
from repro.sensing.microphone import NoiseReading
from repro.sensing.modes import SensingMode
from repro.sensing.scheduler import Observation

USERS = 200
ARRIVALS_PER_S = 10.0
#: the stream starts 60 simulated days in, so a 48 h lag stays positive
START_S = 60 * 86400.0

#: (share, shortest lag, longest lag) — Fig. 17's three regimes; lags
#: are log-uniform inside a regime so each decade is populated.
LAG_MIX = ((0.30, 0.05, 10.0), (0.35, 10.0, 7200.0), (0.35, 7200.0, 172800.0))
LOCALIZED_SHARE = 0.40
PROVIDERS = ("network", "gps", "fused")
PROVIDER_MIX = (0.86, 0.07, 0.07)
MODES = (SensingMode.OPPORTUNISTIC, SensingMode.MANUAL, SensingMode.JOURNEY)
MODE_MIX = (0.85, 0.10, 0.05)
ACTIVITY_LABELS = ("still", "foot", "vehicle", "tilting", "unknown", "undefined")
ACTIVITY_MIX = (0.62, 0.08, 0.06, 0.04, 0.12, 0.08)

ZONE_M = 1000.0
CITY_ZONES = 12
HOME_SHARE = 0.70
ROAM_ZONES = 3

#: the live-map workload's downtown: 16 x 16 cells of the streaming
#: plane's 500 m region grid, placed inside the city.
GRID_CELLS = 16
GRID_CELL_M = 500.0
GRID_ORIGIN_M = 2000.0


class SimClock:
    """The generator's clock, handed to clients and the server."""

    def __init__(self, now: float = START_S) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


@dataclass
class Stream:
    """A run of generated observations and when each reaches its phone's
    client (simulated seconds)."""

    observations: List[Observation]
    arrivals: List[float]

    def __len__(self) -> int:
        return len(self.observations)

    def slices(self, size: int) -> Iterator["Stream"]:
        """Consecutive sub-streams of ``size`` observations."""
        for start in range(0, len(self.observations), size):
            yield Stream(
                self.observations[start : start + size], self.arrivals[start : start + size]
            )


def model_quotas(users: int) -> List[str]:
    """One model name per user, by largest-remainder over the registry's
    Fig. 9 measurement shares."""
    shares = DeviceRegistry().measurement_shares()
    exact = {name: share * users for name, share in shares.items()}
    quota = {name: int(value) for name, value in exact.items()}
    by_remainder = sorted(exact, key=lambda name: exact[name] - quota[name], reverse=True)
    for name in by_remainder[: users - sum(quota.values())]:
        quota[name] += 1
    return [name for name in shares for _ in range(quota[name])]


def grid_regions() -> List[str]:
    """Region keys of the downtown grid, as ``region_of`` spells them."""
    first = int(GRID_ORIGIN_M // GRID_CELL_M)
    return [
        f"g{first + x}:{first + y}"
        for x in range(GRID_CELLS)
        for y in range(GRID_CELLS)
    ]


class Traffic:
    """All inputs of one benchmark run, drawn from one seed.

    Successive :meth:`stream` calls continue the same arrival clock and
    observation-id sequence, so a standing corpus and the measured
    stream never collide on ``obs_id``.
    """

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)
        self.user_ids = [f"u{index:03d}" for index in range(USERS)]
        models = model_quotas(USERS)
        self._rng.shuffle(models)
        self.user_models: List[str] = list(models)
        registry = DeviceRegistry()
        self._mic_offsets = np.array(
            [registry.get(name).mic.offset_db for name in self.user_models]
        )
        self.home_zones = self._rng.integers(0, CITY_ZONES, size=(USERS, 2))
        self._next_id = 1
        self._next_arrival = START_S

    @property
    def now(self) -> float:
        """Arrival time of the next observation to be generated."""
        return self._next_arrival

    # -- draws ----------------------------------------------------------------

    def _lags(self, count: int) -> np.ndarray:
        rng = self._rng
        regime = rng.choice(len(LAG_MIX), size=count, p=[mix[0] for mix in LAG_MIX])
        low = np.log(np.array([mix[1] for mix in LAG_MIX]))[regime]
        high = np.log(np.array([mix[2] for mix in LAG_MIX]))[regime]
        return np.exp(rng.uniform(low, high))

    def _accuracies(self, providers: np.ndarray) -> np.ndarray:
        """Per-provider reported accuracy (Figs. 11-13): GPS bulk in
        6-20 m, network 20-50 m with a cell-tower peak under 100 m and
        a coarse tail, fused coarse."""
        rng = self._rng
        count = len(providers)
        gps = rng.lognormal(np.log(12.0), 0.45, count)
        fused = rng.lognormal(np.log(120.0), 0.80, count)
        branch = rng.random(count)
        network = np.where(
            branch < 0.72,
            rng.lognormal(np.log(33.0), 0.30, count),
            np.where(
                branch < 0.94,
                rng.normal(90.0, 6.0, count),
                rng.lognormal(np.log(300.0), 0.60, count),
            ),
        )
        accuracy = np.where(providers == 0, network, np.where(providers == 1, gps, fused))
        return np.clip(accuracy, 2.0, 3000.0)

    def _positions(self, users: np.ndarray, downtown: bool) -> Tuple[np.ndarray, np.ndarray]:
        rng = self._rng
        count = len(users)
        if downtown:
            span = GRID_CELLS * GRID_CELL_M
            return (
                GRID_ORIGIN_M + rng.uniform(0.0, span, count),
                GRID_ORIGIN_M + rng.uniform(0.0, span, count),
            )
        roam = rng.random(count) >= HOME_SHARE
        offsets = rng.integers(-ROAM_ZONES, ROAM_ZONES + 1, size=(count, 2))
        zones = self.home_zones[users] + offsets * roam[:, None]
        zones = np.clip(zones, 0, CITY_ZONES - 1)
        inside = rng.uniform(0.0, ZONE_M, size=(count, 2))
        return zones[:, 0] * ZONE_M + inside[:, 0], zones[:, 1] * ZONE_M + inside[:, 1]

    # -- streams --------------------------------------------------------------

    def stream(
        self,
        count: int,
        run_length: Optional[int] = None,
        downtown: bool = False,
    ) -> Stream:
        """The next ``count`` observations in arrival order.

        ``run_length``: consecutive runs of that many observations come
        from one phone (a phone flushing its backlog); None draws the
        phone per observation. ``downtown``: every observation is
        localized inside the 16 x 16 grid (the live-map workload).
        """
        rng = self._rng
        if run_length is None:
            users = rng.integers(0, USERS, count)
        else:
            runs = -(-count // run_length)
            order = rng.permutation(USERS)
            users = np.repeat(order[np.arange(runs) % USERS], run_length)[:count]
        arrivals = self._next_arrival + np.arange(count) / ARRIVALS_PER_S
        self._next_arrival += count / ARRIVALS_PER_S
        taken = arrivals - self._lags(count)
        localized = (
            np.ones(count, dtype=bool) if downtown else rng.random(count) < LOCALIZED_SHARE
        )
        providers = rng.choice(len(PROVIDERS), size=count, p=PROVIDER_MIX)
        accuracy = self._accuracies(providers)
        x_m, y_m = self._positions(users, downtown)
        modes = rng.choice(len(MODES), size=count, p=MODE_MIX)
        true_dba = rng.normal(58.0, 9.0, count)
        measured = np.clip(true_dba + self._mic_offsets[users], 28.0, 95.0)
        labels = rng.choice(len(ACTIVITY_LABELS), size=count, p=ACTIVITY_MIX)
        confidence = rng.uniform(0.5, 1.0, count)

        first_id = self._next_id
        self._next_id += count
        observations: List[Observation] = []
        # plain Python floats/ints from here on: numpy scalars would not
        # survive json.dumps on the REST uplink
        columns = zip(
            users.tolist(), taken.tolist(), modes.tolist(), measured.tolist(),
            true_dba.tolist(), localized.tolist(), providers.tolist(),
            accuracy.tolist(), x_m.tolist(), y_m.tolist(), labels.tolist(),
            confidence.tolist(),
        )
        for index, (user, taken_at, mode, dba, truth, has_fix, provider,
                    accuracy_m, x, y, label, conf) in enumerate(columns):
            location = (
                LocationFix(PROVIDERS[provider], accuracy_m, x, y, x, y)
                if has_fix
                else None
            )
            activity = ACTIVITY_LABELS[label]
            observations.append(
                Observation(
                    observation_id=first_id + index,
                    user_id=self.user_ids[user],
                    model=self.user_models[user],
                    taken_at=taken_at,
                    mode=MODES[mode],
                    noise=NoiseReading(dba, truth),
                    location=location,
                    activity=ActivityReading(activity, conf, activity),
                )
            )
        return Stream(observations, arrivals.tolist())

    def corpus(self, count: int) -> List[Dict[str, Any]]:
        """``count`` wire-form documents for a standing corpus: the next
        ``count`` observations as each phone's v1.2.9 client (no
        buffering) puts them on the wire the moment they arrive."""
        stream = self.stream(count)
        clock, wire = SimClock(), _Wire()
        clients = {
            user: GoFlowClient(user, AppVersion.V1_2_9, wire, clock) for user in self.user_ids
        }
        for observation, arrival in zip(stream.observations, stream.arrivals):
            clock.now = arrival
            clients[observation.user_id].on_observation(observation)
        return wire.documents


class _Wire:
    """An uplink that keeps what the clients send."""

    def __init__(self) -> None:
        self.documents: List[Dict[str, Any]] = []

    def send(self, documents: List[Dict[str, Any]]) -> None:
        self.documents.extend(documents)


def subscriber_regions(seed: int, subscribers: int) -> List[Sequence[str]]:
    """Nine random downtown cells per live-map subscriber."""
    rng = np.random.default_rng([seed, 1])
    regions = grid_regions()
    return [
        [regions[index] for index in rng.choice(len(regions), size=9, replace=False)]
        for _ in range(subscribers)
    ]
