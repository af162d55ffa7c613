"""Client-side consumer for the live subscription plane.

The server's long-poll contract is *at-least-once*: events stay queued
until the consumer acknowledges their cursor, so a poll that is lost on
the wire simply re-serves the same events next time. The
:class:`StreamConsumer` turns that into exactly-once consumption by
tracking the highest cursor it has handed to the application and
acknowledging it on the next poll — the ack-cursor counterpart of the
outbox's :meth:`~repro.client.buffer.ObservationBuffer.pop_oldest`.

Like :class:`~repro.client.uplink.RestBatchUplink`, the consumer speaks
to anything with ``handle(Request) -> Response`` — the in-process
:class:`~repro.core.server.GoFlowServer` stands in for an HTTP
connection.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError


class StreamError(Exception):
    """A subscription request the server rejected."""

    def __init__(self, status: int, body: Any) -> None:
        super().__init__(f"stream request failed: status={status} body={body!r}")
        self.status = status
        self.body = body


class StreamConsumer:
    """One continuous query, consumed with explicit ack cursors.

    Args:
        server: anything exposing ``handle(Request) -> Response``.
        app_id: owning application.
        token: bearer token from login (CONTRIBUTOR role).
        filter_spec: optional filter body (``datatype``, ``model``,
            ``regions``, ``since``, ``until``) forwarded verbatim.
        observations / tiles: which event kinds to receive.
        capacity: server-side outbox bound for this subscription.
        max_overruns: drops tolerated before the server evicts us.
    """

    def __init__(
        self,
        server: Any,
        app_id: str = "SC",
        token: Optional[str] = None,
        filter_spec: Optional[Dict[str, Any]] = None,
        observations: bool = True,
        tiles: bool = False,
        capacity: Optional[int] = None,
        max_overruns: Optional[int] = None,
    ) -> None:
        self._server = server
        self._app_id = app_id
        self.token = token
        body: Dict[str, Any] = dict(filter_spec or {})
        body["observations"] = observations
        body["tiles"] = tiles
        if capacity is not None:
            body["capacity"] = capacity
        if max_overruns is not None:
            body["max_overruns"] = max_overruns
        result = self._request(
            "POST", f"/apps/{app_id}/stream/subscriptions", body=body
        )
        self.subscription_id: str = result["subscription_id"]
        #: highest cursor handed to the application; acked on next poll.
        self.cursor: int = int(result.get("cursor", 0))
        self.state: str = "live"
        self.events_received = 0
        #: events the server dropped on us (sum of lagged-marker gaps).
        self.missed = 0
        self.lagged_markers = 0
        self.closed = False

    # -- transport -----------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        body: Any = None,
        params: Optional[Dict[str, str]] = None,
    ) -> Any:
        from repro.core.api import Request  # deferred: client stays core-free

        if body is not None:
            try:
                # round-trip through JSON exactly as an HTTP client
                # would: the server parses (and thereby owns) the body.
                body = json.loads(json.dumps(body))
            except (TypeError, ValueError) as error:
                raise ConfigurationError(
                    f"subscription body not JSON-serializable: {error}"
                ) from error
        response = self._server.handle(
            Request(
                method=method,
                path=path,
                params=params or {},
                body=body,
                token=self.token,
            )
        )
        if not response.ok:
            raise StreamError(response.status, response.body)
        return response.body

    # -- consumption -----------------------------------------------------------

    def poll(self, limit: int = 100) -> List[Dict[str, Any]]:
        """Fetch the next batch of events, acking everything already seen.

        Control events (``lagged``, ``evicted``) are folded into the
        consumer's counters *and* returned, so the application can react
        to gaps; data events advance :attr:`cursor`.
        """
        if self.closed:
            raise ConfigurationError("consumer is closed")
        result = self._request(
            "GET",
            f"/apps/{self._app_id}/stream/subscriptions/"
            f"{self.subscription_id}/events",
            params={"ack": str(self.cursor), "limit": str(limit)},
        )
        self.state = result["state"]
        events = result["events"]
        for event in events:
            kind = event.get("kind")
            if kind == "lagged":
                self.lagged_markers += 1
                self.missed += int(event.get("missed", 0))
            elif kind != "evicted":
                self.events_received += 1
        self.cursor = max(self.cursor, int(result["cursor"]))
        return events

    def drain(self, limit: int = 100) -> List[Dict[str, Any]]:
        """Poll until the server reports nothing pending."""
        collected: List[Dict[str, Any]] = []
        while True:
            events = self.poll(limit=limit)
            collected.extend(events)
            if not events or self.state != "live":
                return collected

    def close(self) -> Dict[str, Any]:
        """Unsubscribe; idempotent on the consumer side."""
        if self.closed:
            return {"removed": False, "state": self.state}
        self.closed = True
        return self._request(
            "DELETE",
            f"/apps/{self._app_id}/stream/subscriptions/{self.subscription_id}",
        )
