"""The paper's channel access scheme as station behaviour (Section 7).

The transmit loop:

1. Wait until at least one packet is queued.
2. For each queue head (one per next hop — no head-of-line blocking,
   Section 7.2), find the earliest global interval where the sender's
   transmit windows overlap the addressee's receive windows (as
   estimated through the fitted clock model) minus the receive windows
   of any near neighbour the transmission would significantly interfere
   with (Section 7.3).
3. Sleep until the earliest such interval; wake early if a new packet
   arrives (it might be sendable sooner, to a different neighbour).
4. Transmit the packet — a single burst, no RTS/CTS, no acknowledgement
   ("at each hop ... no per-packet transmissions other than the single
   transmission used to convey the packet").

Listening: a station listens exactly during its published receive
windows — the windows are a commitment, and the schedule guarantees the
station never transmits during them.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.access import NoTransmitWindowError, find_transmit_window
from repro.mac.base import MacProtocol
from repro.net.packet import Packet
from repro.obs.events import SlotClaim, SlotYield
from repro.sim.process import ProcessGenerator

__all__ = ["ShepardMac"]


class ShepardMac(MacProtocol):
    """Schedule-driven, collision-free channel access.

    Args:
        guard: slack (global-time units) shaved off each estimated
            receive window to absorb clock-model error.
        search_slots: how far ahead (in slots) to search for an overlap
            before declaring a neighbour unreachable.
    """

    name = "shepard"
    # Candidate windows come from neighbour clock models; a §7.1
    # re-convergence invalidates any pending plan.
    replan_on_reconverge = True

    def __init__(self, guard: float = 0.0, search_slots: int = 10_000) -> None:
        super().__init__()
        if guard < 0.0:
            raise ValueError("guard must be non-negative")
        self.guard = guard
        self.search_slots = search_slots

    def is_listening(self, now: float) -> bool:
        """Listening iff the published schedule says receive window."""
        return self.station.own_view.is_receiving_at(now)

    def _best_candidate(
        self, now: float
    ) -> Optional[Tuple[float, int, Packet]]:
        """The queue head with the earliest feasible transmit instant."""
        station = self.station
        best: Optional[Tuple[float, int, Packet]] = None
        for next_hop, packet in station.queue.heads():
            duration = packet.airtime(station.data_rate_bps)
            try:
                window = find_transmit_window(
                    station.own_view,
                    station.neighbor_view(next_hop),
                    duration,
                    earliest=now,
                    guard=self.guard,
                    avoid=station.avoid_views(next_hop),
                    search_slots=self.search_slots,
                    propagation_delay=station.delay_for(next_hop),
                )
            except NoTransmitWindowError:
                station.record_unreachable(next_hop)
                continue
            if best is None or window[0] < best[0]:
                best = (window[0], next_hop, packet)
        return best

    def run(self) -> ProcessGenerator:
        station = self.station
        env = station.env
        while True:
            if station.queue.is_empty:
                yield station.next_arrival()
                continue
            candidate = self._best_candidate(env.now)
            if candidate is None:
                # Every queued neighbour is schedule-unreachable; these
                # packets can never leave.  Drop them so the loop does
                # not spin.  record_unreachable counted the failed
                # searches, not these packets, which no counter records.
                station.drop_all_queued()
                continue
            start, next_hop, packet = candidate
            if start > env.now:
                if station.instr.active:
                    station.instr.emit(
                        SlotYield(env.now, station.index, next_hop, start)
                    )
                arrival = station.next_arrival()
                timer = env.timeout(start - env.now)
                yield env.any_of([arrival, timer])
                if not timer.processed:
                    # A new packet arrived first (a Timeout is
                    # *triggered* from creation; *processed* is what
                    # says it actually fired).  Recompute — the new
                    # packet may be sendable earlier via a different
                    # neighbour.
                    continue
            if station.instr.active:
                station.instr.emit(
                    SlotClaim(
                        env.now,
                        station.index,
                        next_hop,
                        start,
                        packet.airtime(station.data_rate_bps),
                    )
                )
            sent = station.dequeue(next_hop)
            assert sent is packet, "queue head changed unexpectedly"
            yield from station.transmit_packet(packet, next_hop)
            # No acknowledgement: the scheme is collision-free, so the
            # single transmission *is* the hop.  The simulator's oracle
            # result is recorded by transmit_packet for verification
            # but deliberately not acted upon here.
