"""Connections: session state for one client of the broker.

Mobile clients connect and disconnect constantly (the paper's Figure 17
shows 35-45 % of measurements arriving hours late because devices are
offline). The broker keeps queues alive across disconnections, so a
reconnecting client drains everything buffered for it — this class models
exactly that session boundary.
"""

from __future__ import annotations

import itertools
from typing import Dict, TYPE_CHECKING

from repro import concurrency
from repro.broker.errors import BrokerError
from repro.broker.channel import Channel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.broker.broker import Broker


class Connection:
    """A client session holding one or more channels."""

    def __init__(self, broker: "Broker", connection_id: str) -> None:
        self._broker = broker
        self.connection_id = connection_id
        self._channels: Dict[int, Channel] = {}
        self._channel_ids = itertools.count(1)
        self._open = True
        self._lock = concurrency.make_rlock()

    @property
    def is_open(self) -> bool:
        """Whether the connection is live."""
        return self._open

    def channel(self) -> Channel:
        """Open a new channel."""
        with self._lock:
            if not self._open:
                raise BrokerError(f"connection {self.connection_id!r} is closed")
            channel_id = next(self._channel_ids)
            chan = Channel(self._broker, self.connection_id, channel_id)
            self._channels[channel_id] = chan
            return chan

    def close(self) -> None:
        """Close the connection and every channel on it.

        Queues and their buffered messages survive — that is the broker's
        mobile-session buffering guarantee.
        """
        with self._lock:
            if not self._open:
                return
            self._open = False
            channels = list(self._channels.values())
        for chan in channels:
            chan.close()
        self._broker._forget_connection(self.connection_id)
