"""Sensing modes.

§4.2: SoundCity supports three experiences — default opportunistic
background sensing every 5 minutes, a manual "sense now" button, and the
participatory Journey mode where the user chooses the frequency along a
path. §6.2 compares the location quality they yield.
"""

from __future__ import annotations

import enum


class SensingMode(enum.Enum):
    """How a measurement was initiated."""

    OPPORTUNISTIC = "opportunistic"
    MANUAL = "manual"
    JOURNEY = "journey"


#: The default background sensing period (§5.3: "every 5 min by default").
DEFAULT_OPPORTUNISTIC_PERIOD_S = 300.0

#: Default number of observations buffered by the v1.3 client before an
#: uplink ("buffers a series of 10 measurements ... hence every 50 min").
DEFAULT_BUFFER_SIZE = 10
