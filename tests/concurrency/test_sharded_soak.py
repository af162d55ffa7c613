"""The seeded soak against a 4-shard router fleet.

Same workload and invariants as the unsharded soak — exactly-once
ingest, queue conservation, materialized ≡ recompute, coherent merged
stats — with 8 client threads hammering a :class:`ShardRouter` front.
Two sharding-specific twists:

- Document content is a pure function of the obs_id, so a redelivery
  is byte-identical and routes to the shard the original landed on —
  the precondition for the per-shard dedup ledgers to add up to a
  global exactly-once guarantee.
- The lock-disabled leg proves the *router's own* state is
  load-bearing: with every lock a yielding no-op, the global ``_id``
  allocator races and two threads stamp the same id (a duplicate-key
  crash or a broken global order), on top of the per-shard ledger
  races the unsharded soak already demonstrates.
"""

import os
import random
from collections import Counter
from typing import Any, Dict

import pytest

from repro import concurrency
from repro.core.server import GoFlowServer

from tests.concurrency.harness import APP_ID, MODELS, PROVIDERS, ThreadedSoak

SEEDS = [111, 222, 333]
THREADS = 8
SHARDS = 4
OPS_PER_THREAD = int(os.environ.get("SOAK_OPS", "40"))


class ShardedSoak(ThreadedSoak):
    """The threaded soak pointed at a 4-shard server."""

    def __init__(self, seed: int, **kwargs) -> None:
        super().__init__(
            seed,
            server_factory=lambda: GoFlowServer(sharding=SHARDS),
            **kwargs,
        )

    def _make_document(
        self, index: int, rng: random.Random, obs_id: str
    ) -> Dict[str, Any]:
        # content derives from the obs_id, not the publish: an
        # at-least-once redelivery carries the same coordinates, so it
        # routes to the same shard and dedups there.
        doc_rng = random.Random(int(obs_id.rsplit("-", 1)[1]) * 6271 + self.seed)
        document: Dict[str, Any] = {
            "app_id": APP_ID,
            "user_id": f"mob{index}",
            "obs_id": obs_id,
            "model": doc_rng.choice(MODELS),
            "noise_dba": round(doc_rng.uniform(35.0, 95.0), 1),
            "taken_at": float(doc_rng.randrange(0, 5 * 86400)),
        }
        if doc_rng.random() < 0.7:
            document["location"] = {
                "x_m": doc_rng.uniform(0.0, 8000.0),
                "y_m": doc_rng.uniform(0.0, 8000.0),
                "provider": doc_rng.choice(PROVIDERS),
            }
        return document


def _sharding_problems(soak: ShardedSoak) -> list:
    """Sharding-specific invariants on top of the base verify()."""
    problems = []
    router = soak.server.router
    shards = router.shards

    # every stored obs_id lives on exactly one shard
    placement: Dict[str, list] = {}
    for name, shard in shards.items():
        for doc in shard.collection.iter_documents():
            placement.setdefault(doc["obs_id"], []).append(name)
    multi_homed = {k: v for k, v in placement.items() if len(v) != 1}
    if multi_homed:
        problems.append(f"obs_ids on != 1 shard: {multi_homed}")

    # placement actually follows the ring
    for name, shard in shards.items():
        for doc in shard.collection.iter_documents():
            owner = router.shard_for(doc)
            if owner != name:
                problems.append(
                    f"{doc['obs_id']} stored on {name}, ring says {owner}"
                )

    # global _ids unique and the router counters sum coherently
    ids = [doc["_id"] for doc in soak.server.data.collection.iter_documents()]
    duplicate_ids = [k for k, v in Counter(ids).items() if v != 1]
    if duplicate_ids:
        problems.append(f"duplicate global _ids: {duplicate_ids}")
    stats = soak.server.middleware_stats()["sharding"]
    per_shard_docs = sum(s["documents"] for s in stats["shards"].values())
    if per_shard_docs != len(ids):
        problems.append(
            f"sharding stats docs={per_shard_docs} != merged={len(ids)}"
        )
    routed = sum(stats["router"]["routes"].values())
    published = sum(s["ingested"] + s["deduped"] for s in stats["shards"].values())
    if routed != published:
        problems.append(f"routed={routed} != ingested+deduped={published}")
    return problems


@pytest.mark.parametrize("seed", SEEDS)
def test_sharded_soak_all_invariants_hold_with_locks(seed):
    soak = ShardedSoak(seed=seed, threads=THREADS, ops_per_thread=OPS_PER_THREAD)
    result = soak.run()
    assert result.errors == []
    assert result.violations == []
    assert soak.verify(result) == []
    assert _sharding_problems(soak) == []
    # redeliveries definitely happened and dedup collapsed them, even
    # with the ledgers split across four shards
    assert result.duplicates_sent > 0
    assert soak.server.deduped == result.duplicates_sent
    # the workload actually spread: more than one shard holds documents
    populated = [
        name
        for name, shard in soak.server.router.shards.items()
        if len(shard.collection)
    ]
    assert len(populated) > 1, f"workload never spread: {populated}"


@pytest.mark.parametrize("seed", SEEDS)
def test_sharded_soak_with_live_subscribers(seed):
    """The 4-shard fleet with live subscriptions: the router's delta
    stream must deliver the merged store to every subscriber with
    contiguous cursors and row-exact content, under 8-thread ingest."""
    soak = ShardedSoak(
        seed=seed,
        threads=THREADS,
        ops_per_thread=OPS_PER_THREAD,
        subscribers=3,
    )
    result = soak.run()
    assert result.errors == []
    assert result.violations == []
    assert soak.verify(result) == []
    assert _sharding_problems(soak) == []
    stats = soak.server.middleware_stats()["streaming"]
    assert stats["fanned_out"] == 3 * soak.server.ingested
    assert stats["dropped"] == 0 and stats["evicted"] == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_sharded_soak_same_seed_fails_without_locks(seed):
    with concurrency.lock_mode("off"):
        soak = ShardedSoak(
            seed=seed, threads=THREADS, ops_per_thread=OPS_PER_THREAD
        )
        result = soak.run()
    problems = list(result.violations)
    problems += [error for _, error in result.errors]
    if not result.stalled_threads:
        problems += soak.verify(result)
        problems += _sharding_problems(soak)
    assert problems, (
        "lock-disabled sharded soak ran clean — the router's locks would "
        f"be decorative for seed {seed}"
    )
