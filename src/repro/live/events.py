"""The simulated clock of the live runtime and its traffic batches.

The online service ingests :class:`PacketBatch` es stamped with simulated
minutes from a :class:`SimClock`.  The clock is monotonic and advanced
explicitly by the service loop (never read from the wall clock), so
replays are deterministic: the same scenario produces the same batches,
timestamps included, on any machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..errors import LiveServiceError
from ..types import LinkId


class SimClock:
    """Monotonic simulated clock, in minutes.

    Args:
        start: initial time (minutes).
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise LiveServiceError("clock cannot start before zero")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in minutes."""
        return self._now

    def advance(self, minutes: float) -> float:
        """Move time forward; returns the new time.

        Raises:
            LiveServiceError: on a negative advance (the clock is
                monotonic by construction).
        """
        if minutes < 0:
            raise LiveServiceError("simulated clock cannot move backwards")
        self._now += minutes
        return self._now


@dataclass(frozen=True)
class PacketBatch:
    """One batch of spoofed traffic observed at the origin's links.

    Attributes:
        timestamp: simulated minute the batch was offered at.
        volumes: per-link spoofed volume delivered during the batch.
        unattributed: volume originated by sources with no route under
            the active configuration (ground-truth accounting; zero in
            packet-sampled batches, where undeliverable packets simply
            never arrive).
        packets: packet count behind the volumes (0 for noiseless
            volume-level batches).
    """

    timestamp: float
    volumes: Mapping[LinkId, float] = field(default_factory=dict)
    unattributed: float = 0.0
    packets: int = 0

    @property
    def attributed_volume(self) -> float:
        """Volume that arrived on some peering link."""
        return sum(self.volumes.values())

    @property
    def offered_volume(self) -> float:
        """Volume the sources originated (attributed + unattributed)."""
        return self.attributed_volume + self.unattributed
