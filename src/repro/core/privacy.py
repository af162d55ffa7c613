"""The CNIL privacy policy.

§3.1: "GoFlow implements the privacy policy set by the French CNIL ...
contributing applications specify the data that they want to keep
private and those that they agree to share with other applications."

Three mechanisms:

- **pseudonymization** — user ids are replaced by a salted-hash
  pseudonym before storage; the web application server keeps the
  mapping "so that specific contributions may be retrieved provided the
  user's credentials", which here means the pseudonym is deterministic
  given the (secret) salt and re-derivable for an authenticated user
  but not invertible from stored data;
- **private-field stripping** — per-app lists of document fields that
  are removed when data is shared outside the owning app;
- **open-data coarsening** — positions are snapped to a coarse grid and
  exact timestamps rounded before export.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Any, Dict, Iterable, List, Set

from repro import concurrency
from repro.core.errors import ValidationError
from repro.docstore.clone import json_clone


class PrivacyPolicy:
    """Applies the CNIL rules to observation documents.

    Args:
        salt: secret pseudonymization salt (per deployment).
        coarse_grid_m: open-data position granularity.
        coarse_time_s: open-data timestamp granularity.
    """

    def __init__(
        self,
        salt: str = "goflow-secret-salt",
        coarse_grid_m: float = 500.0,
        coarse_time_s: float = 3600.0,
    ) -> None:
        if not salt:
            raise ValidationError("pseudonymization salt must be non-empty")
        if coarse_grid_m <= 0 or coarse_time_s <= 0:
            raise ValidationError("coarsening granularities must be > 0")
        self._salt = salt.encode("utf-8")
        self.coarse_grid_m = coarse_grid_m
        self.coarse_time_s = coarse_time_s
        self._private_fields: Dict[str, Set[str]] = {}
        # pseudonyms are deterministic, so the HMAC per observation is
        # pure waste for repeat contributors; bound the memo so millions
        # of users cannot grow it without limit.
        self._pseudonym_cache: Dict[str, str] = {}
        self._pseudonym_cache_size = 65536
        # guards the memo (the size check + clear + put must not
        # interleave); the HMAC itself runs outside the lock.
        self._cache_lock = concurrency.make_rlock()

    # -- app policies -------------------------------------------------------

    def set_private_fields(self, app_id: str, fields: Iterable[str]) -> None:
        """Declare which fields ``app_id`` keeps private."""
        self._private_fields[app_id] = set(fields)

    def private_fields(self, app_id: str) -> Set[str]:
        """Fields kept private by ``app_id`` (empty set if undeclared)."""
        return set(self._private_fields.get(app_id, set()))

    # -- pseudonymization ---------------------------------------------------------

    def pseudonym(self, user_id: str) -> str:
        """Stable, non-invertible pseudonym for ``user_id``."""
        with self._cache_lock:
            cached = self._pseudonym_cache.get(user_id)
        if cached is not None:
            return cached
        if not user_id:
            raise ValidationError("user_id must be non-empty")
        digest = hmac.new(self._salt, user_id.encode("utf-8"), hashlib.sha256)
        pseudonym = "p" + digest.hexdigest()[:16]
        with self._cache_lock:
            if len(self._pseudonym_cache) >= self._pseudonym_cache_size:
                self._pseudonym_cache.clear()
            self._pseudonym_cache[user_id] = pseudonym
        return pseudonym

    def anonymize_ingest(self, document: Dict[str, Any]) -> Dict[str, Any]:
        """The storage form of one observation: the batch of one."""
        return self.anonymize_ingest_many([document])[0]

    def anonymize_ingest_many(
        self, documents: List[Dict[str, Any]], owned: bool = False
    ) -> List[Dict[str, Any]]:
        """The storage forms of incoming observations.

        Replaces ``user_id`` by its pseudonym; the raw id never reaches
        the document store. That guarantee covers every persisted field:
        a dedup ``obs_id`` that embeds the raw id (legacy clients stamp
        ``<user_id>:<seq>``) is rewritten onto the pseudonym before
        storage. Deduplication keys on this stored form, and the
        rewrite cannot split retry duplicates: two deliveries of one
        observation carry the same ``user_id`` and ``obs_id``, so they
        rewrite to the same key.

        Two arms: ``owned=True`` scrubs in place — only for documents
        the caller exclusively owns (e.g. just parsed from a wire body);
        otherwise each document is ``json_clone``-d first, so what is
        stored does not depend on how the observation travelled.
        """
        if owned:
            return [self._scrub(doc) for doc in documents]
        return [self._scrub(json_clone(doc)) for doc in documents]

    def _scrub(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        """In-place user_id -> pseudonym rewrite of an owned clone."""
        user_id = doc.pop("user_id", None)
        if user_id is not None:
            user_id = str(user_id)
            pseudonym = self.pseudonym(user_id)
            doc["contributor"] = pseudonym
            obs_id = doc.get("obs_id")
            if isinstance(obs_id, str):
                if obs_id == user_id:
                    doc["obs_id"] = pseudonym
                elif obs_id.startswith(user_id + ":"):
                    doc["obs_id"] = pseudonym + obs_id[len(user_id):]
        return doc

    # -- sharing ----------------------------------------------------------------------

    def for_sharing(self, app_id: str, document: Dict[str, Any]) -> Dict[str, Any]:
        """A copy of ``document`` with ``app_id``'s private fields removed."""
        doc = json_clone(document)
        for field_path in self.private_fields(app_id):
            self._remove_path(doc, field_path)
        return doc

    def for_open_data(self, app_id: str, document: Dict[str, Any]) -> Dict[str, Any]:
        """Open-data export form: shared fields only, coarsened.

        The contributor pseudonym is dropped entirely — and so is the
        ``obs_id`` dedup stamp, whose per-client prefix would otherwise
        re-link the contributor's observations — the position is
        snapped to the coarse grid and timestamps rounded down.
        """
        doc = self.for_sharing(app_id, document)
        doc.pop("contributor", None)
        doc.pop("obs_id", None)
        doc.pop("_id", None)
        location = doc.get("location")
        if isinstance(location, dict):
            for axis in ("x_m", "y_m"):
                if axis in location:
                    location[axis] = (
                        int(location[axis] // self.coarse_grid_m)
                        * self.coarse_grid_m
                    )
        for time_field in ("taken_at", "sent_at", "received_at"):
            if time_field in doc:
                doc[time_field] = (
                    int(doc[time_field] // self.coarse_time_s) * self.coarse_time_s
                )
        return doc

    @staticmethod
    def _remove_path(document: Dict[str, Any], path: str) -> None:
        segments = path.split(".")
        current: Any = document
        for segment in segments[:-1]:
            if not isinstance(current, dict) or segment not in current:
                return
            current = current[segment]
        if isinstance(current, dict):
            current.pop(segments[-1], None)
