"""Incremental noise-map tiles.

The live map the paper's deployment served per-participant is a grid of
noise levels. The poll-era answer recomputed each tile from the stored
observations on every read; the subscription plane instead builds a
scope's tiles from the store once, at its first reader, then folds each
newly stored observation into its region's tile — an O(1) update per
document — and pushes the post-fold tile state as a delta event, so a
map client's staleness is bounded by fan-out latency, not by a
recompute.

Fold ≡ recompute: :class:`TileDeltaEngine` applied to a document
sequence produces, tile by tile, exactly the state
:func:`tiles_from_documents` computes from scratch over the same
sequence in the same order (floating-point sums included — both run the
same left fold, :meth:`TileDeltaEngine.from_documents`, and a scope
built from the store and then folded forward is that fold over a longer
sequence). Delta events carry absolute tile state, so folding a delta
stream is last-wins per region (:func:`fold_tile_deltas`) and a dropped
intermediate delta only costs staleness, never correctness.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from repro.sharding.region import DEFAULT_CELL_M, region_of


def _noise_sample(document: Dict[str, Any]) -> Optional[float]:
    value = document.get("noise_dba")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return None


def _new_tile() -> Dict[str, Any]:
    return {
        "count": 0,
        "samples": 0,
        "sum_dba": 0.0,
        "min_dba": None,
        "max_dba": None,
    }


class TileDeltaEngine:
    """Per-region tile accumulators updated one observation at a time.

    Not internally locked: the :class:`~repro.streaming.subscriptions.
    SubscriptionManager` owns one and mutates it under its own lock.
    """

    def __init__(self, cell_m: float = DEFAULT_CELL_M) -> None:
        self.cell_m = cell_m
        self._tiles: Dict[str, Dict[str, Any]] = {}
        self.deltas = 0

    @classmethod
    def from_documents(
        cls, documents: Iterable[Dict[str, Any]], cell_m: float = DEFAULT_CELL_M
    ) -> "TileDeltaEngine":
        """The left fold of ``documents``, in iteration order: what a
        scope is built with at its first reader, and the recompute."""
        engine = cls(cell_m)
        for document in documents:
            engine.observe(document)
        return engine

    def __len__(self) -> int:
        return len(self._tiles)

    def observe(
        self, document: Dict[str, Any], region: Optional[str] = None
    ) -> Dict[str, Any]:
        """Fold one observation in place; returns the region's tile.

        The returned dict is the **live accumulator**, not a copy — the
        fold runs once per stored observation for every built scope the
        observation belongs to, so it allocates nothing. A caller that
        ships the state (a delta event body) copies it first.
        """
        if region is None:
            region = region_of(document, self.cell_m)
        tile = self._tiles.get(region)
        if tile is None:
            tile = self._tiles[region] = _new_tile()
        tile["count"] += 1
        sample = _noise_sample(document)
        if sample is not None:
            tile["samples"] += 1
            tile["sum_dba"] += sample
            if tile["min_dba"] is None or sample < tile["min_dba"]:
                tile["min_dba"] = sample
            if tile["max_dba"] is None or sample > tile["max_dba"]:
                tile["max_dba"] = sample
        self.deltas += 1
        return tile

    def tile(self, region: str) -> Optional[Dict[str, Any]]:
        """A copy of one region's current tile state (None if unseen)."""
        tile = self._tiles.get(region)
        return None if tile is None else dict(tile)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """A copy of every tile, keyed by region."""
        return {region: dict(tile) for region, tile in self._tiles.items()}


def tiles_from_documents(
    documents: Iterable[Dict[str, Any]], cell_m: float = DEFAULT_CELL_M
) -> Dict[str, Dict[str, Any]]:
    """From-scratch tile recompute — the oracle the fold must equal.

    Iterate in global insertion (``_id``) order to reproduce the ingest
    fold exactly, bit-identical float sums included.
    """
    return TileDeltaEngine.from_documents(documents, cell_m).snapshot()


def fold_tile_deltas(events: Iterable[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Fold a delta-event stream into map state: last delta wins per
    region, because each delta carries the absolute post-fold tile."""
    tiles: Dict[str, Dict[str, Any]] = {}
    for event in events:
        if event.get("kind") != "tile":
            continue
        tiles[event["region"]] = {
            "count": event["count"],
            "samples": event["samples"],
            "sum_dba": event["sum_dba"],
            "min_dba": event["min_dba"],
            "max_dba": event["max_dba"],
        }
    return tiles


def observation_events(events: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The observation-kind events of a mixed stream (markers dropped)."""
    return [event for event in events if event.get("kind") == "observation"]
