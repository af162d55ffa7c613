"""Uplinks: how a client's documents reach the server.

The client is written against the small :class:`Uplink` duck type so it
can be unit-tested with a stub; :class:`BrokerUplink` is the production
path that publishes through the client's AMQP exchange exactly as
Figure 3 prescribes (client exchange -> app exchange -> GoFlow queue).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Protocol

from repro.broker.broker import Broker
from repro.broker.channel import Channel
from repro.broker.errors import BrokerError
from repro.errors import ConfigurationError


@dataclass
class TransmitResult:
    """Outcome of one uplink attempt.

    Attributes:
        accepted: documents confirmed delivered by the broker.
        confirmed: True only when *every* document was confirmed.
        undelivered: indices (into the sent batch) of documents the
            broker did not confirm — the ones the client must resend.
            None means everything was delivered.
    """

    accepted: int
    confirmed: bool
    undelivered: Optional[List[int]] = None


class UplinkError(BrokerError):
    """An uplink attempt died mid-batch.

    The contract is **at-least-once**, not all-or-nothing: documents
    confirmed before the failure stay delivered. ``delivered`` reports
    their indices so the caller resends only the rest — and ``nacked``
    the indices published but *not* confirmed before the failure: those
    may have been routed anyway, so their resend can duplicate on the
    wire (the server's idempotent ingest absorbs both cases).
    """

    def __init__(
        self,
        reason: str,
        delivered: Optional[List[int]] = None,
        nacked: Optional[List[int]] = None,
    ) -> None:
        delivered = delivered or []
        super().__init__(
            f"{reason} ({len(delivered)} of the batch delivered before the failure)"
        )
        self.delivered = delivered
        self.nacked = nacked or []

    @property
    def accepted(self) -> int:
        """Number of documents confirmed delivered before the failure."""
        return len(self.delivered)


class Uplink(Protocol):
    """Anything that can carry documents to the server."""

    def send(self, documents: List[Dict[str, Any]]) -> TransmitResult:
        """Transmit ``documents``; raises :class:`BrokerError` on failure."""
        ...


class BrokerUplink:
    """Publishes documents through the client's own exchange.

    Args:
        broker: the broker shared with the server.
        client_exchange: the exchange GoFlow's channel management
            created for this client at login (Figure 3's E1/E2).
        datatype: routing datatype id (e.g. ``NoiseObservation``).
        confirm: use publisher confirms (v1.2.9+ behaviour).
    """

    def __init__(
        self,
        broker: Broker,
        client_exchange: str,
        app_id: str = "SC",
        datatype: str = "NoiseObservation",
        confirm: bool = True,
    ) -> None:
        if not client_exchange:
            raise ConfigurationError("client_exchange must be non-empty")
        self._broker = broker
        self._exchange = client_exchange
        self._app_id = app_id
        self._datatype = datatype
        self._confirm = confirm
        self._connection = None
        self._channel: Optional[Channel] = None

    def _ensure_channel(self) -> Channel:
        if self._channel is None or not self._channel.is_open:
            if self._connection is None or not self._connection.is_open:
                self._connection = self._broker.connect(
                    f"uplink-{self._exchange}"
                )
            self._channel = self._connection.channel()
            if self._confirm:
                self._channel.confirm_select()
        return self._channel

    def routing_key_for(self, document: Dict[str, Any]) -> str:
        """``<locationid>.<datatype>`` routing, as GoFlow's bindings expect.

        The location id is a coarse zone derived from the reported
        position (the paper uses country+zip, e.g. FR75013; the
        synthetic city uses 1 km zone cells). Non-localized observations
        route under the ``NOLOC`` zone.
        """
        location = document.get("location")
        if location is None:
            zone = "NOLOC"
        else:
            zone_x = int(location["x_m"] // 1000)
            zone_y = int(location["y_m"] // 1000)
            zone = f"Z{zone_x}-{zone_y}"
        return f"{zone}.{self._datatype}"

    def send(self, documents: List[Dict[str, Any]]) -> TransmitResult:
        """Publish every document; **at-least-once** per call.

        Documents are published in order. A mid-batch failure raises
        :class:`UplinkError` carrying the indices already confirmed —
        those stay delivered and must not be resent. Without an
        exception, the :class:`TransmitResult` reports which documents
        the broker did not confirm (nacked publishes): resending them
        may duplicate data on the wire, which the server's dedup ledger
        collapses back to exactly-once storage.
        """
        if not documents:
            raise ConfigurationError("send requires at least one document")
        try:
            channel = self._ensure_channel()
        except BrokerError as error:
            raise UplinkError(f"uplink connect failed: {error}") from error
        delivered: List[int] = []
        undelivered: List[int] = []
        for index, document in enumerate(documents):
            document.setdefault("app_id", self._app_id)
            try:
                seq = channel.basic_publish(
                    self._exchange,
                    self.routing_key_for(document),
                    document,
                    mandatory=True,
                )
            except BrokerError as error:
                # the channel (or whole connection) is gone: drop the
                # session so the next attempt reconnects cleanly.
                self.disconnect()
                raise UplinkError(
                    f"uplink publish failed: {error}",
                    delivered=delivered,
                    nacked=undelivered,
                ) from error
            if self._confirm and seq is not None and not channel.confirmed(seq):
                undelivered.append(index)
            else:
                delivered.append(index)
        return TransmitResult(
            accepted=len(delivered),
            confirmed=not undelivered,
            undelivered=undelivered or None,
        )

    def disconnect(self) -> None:
        """Drop the session (e.g. when the device goes offline)."""
        if self._connection is not None and self._connection.is_open:
            self._connection.close()
        self._connection = None
        self._channel = None


class RestBatchUplink:
    """Carries whole batches over the REST batch-ingest endpoint.

    One POST per :meth:`send` call — one radio session per batch, with
    the server amortizing dedup, anonymization, index maintenance and
    analytics updates across it. Delivery stays exactly-once end to
    end: the endpoint is idempotent per observation (the server's
    unique ``obs_id`` index), the batch insert is atomic, and a key
    enters the index only with its stored document. A 2xx therefore
    means every document is durably stored (or already was), and any
    failure means *nothing* from the batch was committed — the client
    simply retransmits the whole batch and it rolls forward.

    Args:
        server: the :class:`~repro.core.server.GoFlowServer` (the
            in-process stand-in for an HTTP connection to it).
        app_id: owning application.
        token: bearer token from login, required by the route's
            CONTRIBUTOR role check.
    """

    def __init__(self, server: Any, app_id: str = "SC", token: Optional[str] = None) -> None:
        self._server = server
        self._app_id = app_id
        self.token = token

    def send(self, documents: List[Dict[str, Any]]) -> TransmitResult:
        """POST the batch; raises :class:`UplinkError` on any failure."""
        if not documents:
            raise ConfigurationError("send requires at least one document")
        from repro.core.api import Request  # deferred: client stays core-free

        for document in documents:
            document.setdefault("app_id", self._app_id)
        try:
            # serialized exactly as an HTTP client would put it on the
            # wire; the server parses (and thereby owns) the documents.
            body = json.dumps({"observations": documents})
        except (TypeError, ValueError) as error:
            raise UplinkError(f"batch not JSON-serializable: {error}") from error
        try:
            response = self._server.handle(
                Request(
                    method="POST",
                    path=f"/apps/{self._app_id}/observations/batch",
                    body=body,
                    token=self.token,
                )
            )
        except Exception as error:
            raise UplinkError(f"batch uplink failed: {error}") from error
        if not response.ok:
            # batch-atomic insert, obs_id keys stored with it: a non-2xx
            # means nothing landed, so the whole batch is cleanly
            # retryable with no maybe-delivered ambiguity.
            raise UplinkError(
                f"batch uplink rejected: status={response.status} "
                f"body={response.body!r}"
            )
        return TransmitResult(accepted=len(documents), confirmed=True)
