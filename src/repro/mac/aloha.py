"""ALOHA channel access (pure and slotted), under the physical model.

"In the spirit of the original ALOHA [1], they are asynchronous, and
provide random access to the channel" (Section 2).  A station with a
packet transmits immediately; on failure it backs off a random interval
and retries, up to a retry limit.  The slotted variant aligns bursts to
a global slot grid — note that this grants the baseline the system-wide
synchronisation the paper's scheme deliberately avoids, which only
flatters the baseline.

Loss feedback is the simulator's oracle (an idealised, instantaneous,
never-lost acknowledgement), again flattering the baseline relative to
any real ALOHA deployment.
"""

from __future__ import annotations

import numpy as np

from repro.mac.base import MacProtocol
from repro.sim.process import ProcessGenerator

__all__ = ["AlohaMac"]


class AlohaMac(MacProtocol):
    """Pure or slotted ALOHA with binary exponential backoff.

    Args:
        rng: randomness for backoff draws.
        max_attempts: transmissions per packet before giving up.
        base_backoff: mean of the initial backoff interval, in units of
            packet airtime (doubles per failed attempt).
        slotted: align transmission starts to the global grid of
            packet-airtime slots.
    """

    name = "aloha"

    def __init__(
        self,
        rng: np.random.Generator,
        max_attempts: int = 8,
        base_backoff: float = 4.0,
        slotted: bool = False,
    ) -> None:
        super().__init__()
        if max_attempts < 1:
            raise ValueError("need at least one attempt")
        if base_backoff <= 0.0:
            raise ValueError("backoff scale must be positive")
        self.rng = rng
        self.max_attempts = max_attempts
        self.base_backoff = base_backoff
        self.slotted = slotted
        if slotted:
            self.name = "slotted_aloha"
        self.dropped = 0

    def is_listening(self, now: float) -> bool:
        """ALOHA receivers are always on (the medium separately rules
        out reception while the local transmitter is keyed)."""
        return True

    def _next_slot_delay(self, airtime: float) -> float:
        now = self.station.env.now
        slot = int(now / airtime)
        boundary = slot * airtime
        if boundary < now - 1e-12 or boundary < now:
            boundary = (slot + 1) * airtime
        return max(boundary - now, 0.0)

    def _transmit(self, packet, next_hop: int) -> ProcessGenerator:
        """One burst attempt — the seam subclasses shape.

        The multi-level power MAC overrides this to draw a random power
        level per attempt; the retry loop in :meth:`run` stays shared.
        """
        return (yield from self.station.transmit_packet(packet, next_hop))

    def run(self) -> ProcessGenerator:
        station = self.station
        env = station.env
        while True:
            heads = station.queue.heads()
            if not heads:
                yield station.next_arrival()
                continue
            next_hop, packet = heads[0]
            station.dequeue(next_hop)
            airtime = packet.airtime(station.data_rate_bps)
            delivered = False
            for attempt in range(self.max_attempts):
                if self.slotted:
                    delay = self._next_slot_delay(airtime)
                    if delay > 0.0:
                        yield env.timeout(delay)
                success = yield from self._transmit(packet, next_hop)
                if success:
                    delivered = True
                    break
                # Binary exponential backoff on the oracle NACK.
                mean = self.base_backoff * (2.0**attempt) * airtime
                yield env.timeout(float(self.rng.exponential(mean)))
            if not delivered:
                self.dropped += 1
