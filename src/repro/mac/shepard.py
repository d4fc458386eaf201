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

Plans: step 2 runs on every wake, and a head's window usually outlives
several wakes (the expected wait is ~4.8 slots).  So each next hop
keeps a *plan*: the start of its last successful search, every input
that search read, and the latest instant from which the search would
return that start again (DESIGN §4, "Reusing a plan").  A wake inside
that bound, with every input unchanged, reuses the start instead of
searching; the result is the one the search would return, bit for
bit.  A failed search is never planned, so every unreachable head is
searched and counted again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.access import (
    NoTransmitWindowError,
    ScheduleView,
    _reuse_until,
    find_transmit_window,
)
from repro.mac.base import MacProtocol
from repro.net.packet import Packet
from repro.obs.events import SlotClaim, SlotYield
from repro.sim.process import ProcessGenerator

__all__ = ["ShepardMac"]


def _fit_key(view: ScheduleView) -> object:
    """The fitted tuple ``view`` maps through, ``None`` for a fixed
    mapping.  A refit or ``reset`` replaces the tuple, so its identity
    says whether the fit changed."""
    model = view._model
    return None if model is None else model._fit


@dataclass(slots=True, eq=False)
class _Plan:
    """A next hop's last successful window search: its inputs, its
    answer ``start``, and the query instants ``since``..``until`` over
    which that answer stands.  Views, the avoid tuple and each model's
    fitted tuple are compared by identity, the numbers by value."""

    since: float
    until: float
    start: float
    own: ScheduleView
    view: ScheduleView
    avoid: Tuple[ScheduleView, ...]
    duration: float
    delay: float
    guard: float
    search_slots: int
    fit: object = field(init=False)
    avoid_fits: Tuple[object, ...] = field(init=False)

    def __post_init__(self) -> None:
        self.fit = _fit_key(self.view)
        self.avoid_fits = tuple(_fit_key(other) for other in self.avoid)

    def holds(
        self,
        now: float,
        own: ScheduleView,
        view: ScheduleView,
        avoid: Tuple[ScheduleView, ...],
        duration: float,
        delay: float,
        guard: float,
        search_slots: int,
    ) -> bool:
        """Whether a search from ``now`` with these inputs returns
        :attr:`start`."""
        if not (
            self.since <= now <= self.until
            and view is self.view
            and avoid is self.avoid
            and own is self.own
            and duration == self.duration
            and delay == self.delay
            and guard == self.guard
            and search_slots == self.search_slots
            and _fit_key(view) is self.fit
        ):
            return False
        for other, fit in zip(avoid, self.avoid_fits):
            if _fit_key(other) is not fit:
                return False
        return True


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
        if not math.isfinite(guard):
            raise ValueError("guard must be finite")
        if guard < 0.0:
            raise ValueError("guard must be non-negative")
        if not search_slots >= 1:
            raise ValueError("search horizon must be at least one slot")
        self.guard = guard
        self.search_slots = search_slots
        self._plans: Dict[int, _Plan] = {}

    def is_listening(self, now: float) -> bool:
        """Listening iff the published schedule says receive window."""
        return self.station.own_view.is_receiving_at(now)

    def _best_candidate(
        self, now: float
    ) -> Optional[Tuple[float, int, Packet]]:
        """The queue head with the earliest feasible transmit instant."""
        station = self.station
        own = station.own_view
        guard = self.guard
        search_slots = self.search_slots
        plans = self._plans
        best: Optional[Tuple[float, int, Packet]] = None
        for next_hop, packet in station.queue.heads():
            duration = packet.airtime(station.data_rate_bps)
            view = station.neighbor_view(next_hop)
            avoid = station.avoid_views(next_hop)
            delay = station.delay_for(next_hop)
            plan = plans.get(next_hop)
            if plan is not None and plan.holds(
                now, own, view, avoid, duration, delay, guard, search_slots
            ):
                start = plan.start
            else:
                try:
                    start = find_transmit_window(
                        own,
                        view,
                        duration,
                        earliest=now,
                        guard=guard,
                        avoid=avoid,
                        search_slots=search_slots,
                        propagation_delay=delay,
                    )[0]
                except NoTransmitWindowError:
                    station.record_unreachable(next_hop)
                    continue
                until = _reuse_until(
                    station.clock, view, avoid, duration, now, start, guard
                )
                if until >= now:
                    plans[next_hop] = _Plan(
                        now,
                        until,
                        start,
                        own,
                        view,
                        avoid,
                        duration,
                        delay,
                        guard,
                        search_slots,
                    )
            if best is None or start < best[0]:
                best = (start, next_hop, packet)
        return best

    def run(self) -> ProcessGenerator:
        station = self.station
        env = station.env
        # A respawn (after a reconvergence or a clock step) plans anew.
        self._plans.clear()
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
