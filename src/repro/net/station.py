"""A packet radio station: radio, queues, clock, schedule, forwarding.

The station is the integration point of every substrate: it owns a
transmitter and despreader bank (:mod:`repro.radio`), a free-running
clock and models of its neighbours' clocks (:mod:`repro.clock`), the
shared pseudo-random schedule (:mod:`repro.core.schedule`), per-
neighbour transmit queues (:mod:`repro.net.queueing`), a routing table
(:mod:`repro.routing`), and a pluggable MAC behaviour
(:mod:`repro.mac`).  Stations forward transit packets hop-by-hop,
re-routing each "as if it had originated at the transit station"
(Section 6.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.clock.clock import Clock
from repro.clock.sync import NeighborClockModel
from repro.core.access import ScheduleView
from repro.core.schedule import Schedule
from repro.mac.base import MacProtocol
from repro.net.medium import Medium, Transmission
from repro.net.packet import HopRecord, Packet
from repro.net.queueing import TransmitQueue
from repro.obs.api import Instrumentation
from repro.obs.events import (
    Delivered,
    DropNoRoute,
    DropStationDown,
    QueueEnter,
    QueueFlush,
    QueueLeave,
    StationDown,
    StationUp,
    TxOutcome,
    Unreachable,
)
from repro.radio.spreadspectrum import DespreaderBank
from repro.radio.transmitter import Transmitter
from repro.routing.table import RouteError, RoutingTable
from repro.sim.engine import Environment
from repro.sim.events import Event
from repro.sim.process import ProcessGenerator
from repro.sim.stats import Welford

__all__ = ["Station", "StationStats"]


@dataclass
class StationStats:
    """Counters one station accumulates over a run.

    ``unreachable_drops`` counts failed window searches, not packets: a
    queue head whose next hop has no schedule overlap within the search
    horizon adds one on every search that finds none.  The packets
    discarded when every queued next hop is unreachable
    (:meth:`Station.drop_all_queued`) are not counted by any field.
    """

    originated: int = 0
    forwarded: int = 0
    sent: int = 0
    delivered_to_me: int = 0
    delivery_delays: List[float] = field(default_factory=list)
    unreachable_drops: int = 0
    no_route_drops: int = 0
    fault_drops: int = 0
    arq_retries: int = 0
    arq_giveups: int = 0


class Station:
    """One packet radio station.

    Packets enter the unbounded backlog one way, :meth:`_enqueue`,
    from :meth:`submit` (fresh and transit packets), :meth:`requeue`
    (ARQ retries) and :meth:`send_control` (control frames).  They
    leave through :meth:`dequeue` or a flush (:meth:`drop_all_queued`).

    Args:
        env: simulation environment.
        index: the station's network-wide index.
        position: (x, y) coordinates.
        clock: the station's free-running clock.
        schedule: the shared schedule function.
        medium: the shared radio medium.
        queue: transmit queue discipline.
        table: routing table (next hops and costs).
        mac: channel access behaviour (bound here).
        transmitter: radio transmitter.
        bank: despreader channel bank.
        data_rate_bps: the system's fixed design rate.
        power_lookup: maps a next hop to the transmit power to use
            (power policy applied to the link gain).
        instrumentation: the shared typed-event facade.
    """

    def __init__(
        self,
        env: Environment,
        index: int,
        position: Tuple[float, float],
        clock: Clock,
        schedule: Schedule,
        medium: Medium,
        queue: TransmitQueue,
        table: RoutingTable,
        mac: MacProtocol,
        transmitter: Transmitter,
        bank: DespreaderBank,
        data_rate_bps: float,
        power_lookup: Callable[[int], float],
        instrumentation: Optional[Instrumentation] = None,
        delay_lookup: Optional[Callable[[int], float]] = None,
    ) -> None:
        if data_rate_bps <= 0.0:
            raise ValueError("data rate must be positive")
        self.env = env
        self.index = index
        self.position = (float(position[0]), float(position[1]))
        self.clock = clock
        self.schedule = schedule
        self.medium = medium
        self.queue = queue
        self.table = table
        self.mac = mac
        self.transmitter = transmitter
        self.bank = bank
        self.data_rate_bps = data_rate_bps
        self._power_lookup = power_lookup
        self._delay_lookup = delay_lookup
        self.instr = (
            instrumentation if instrumentation is not None else Instrumentation()
        )
        self.stats = StationStats()
        # Hop counts of the packets delivered here; a Network shares one
        # accumulator across its stations (see Network.delivered_hops).
        self.delivered_hops = Welford()
        self.alive = True
        self.own_view = ScheduleView.own(schedule, clock)
        self._neighbor_views: Dict[int, ScheduleView] = {}
        self._neighbor_models: Dict[int, NeighborClockModel] = {}
        self._avoid_neighbors: Dict[int, Tuple[int, ...]] = {}
        self._avoid_cache: Dict[int, Tuple[ScheduleView, ...]] = {}
        self._arrival_event: Optional[Event] = None
        self._control_handlers: Dict[str, Callable[[Transmission], None]] = {}
        # Optional stop-and-wait ARQ sublayer (repro.mac.arq); None —
        # the default — leaves transmit_packet's behaviour untouched.
        self.arq = None
        medium.on_delivery(index, self._on_delivery)
        mac.bind(self)

    # -- neighbour knowledge -------------------------------------------

    def learn_neighbor_clock(
        self, neighbor: int, schedule: Schedule, model: NeighborClockModel
    ) -> None:
        """Install the fitted clock model for a neighbour's schedule."""
        self._neighbor_models[neighbor] = model
        self._neighbor_views[neighbor] = ScheduleView.of_neighbor(
            schedule, self.clock, model
        )
        self._avoid_cache.clear()

    def set_avoid_neighbors(
        self, next_hop: int, neighbors: Sequence[int]
    ) -> None:
        """Install the Section 7.3 courtesy set for transmissions toward
        ``next_hop``: neighbours whose receive windows to stay out of.

        Stored by index (not by view) so a clock replacement after a
        fault invalidates every derived view at once; the views are
        resolved lazily and cached for the MAC's hot path.
        """
        self._avoid_neighbors[next_hop] = tuple(neighbors)
        self._avoid_cache.pop(next_hop, None)

    def neighbor_view(self, neighbor: int) -> ScheduleView:
        """The sender's-eye view of a neighbour's schedule."""
        try:
            return self._neighbor_views[neighbor]
        except KeyError:
            raise LookupError(
                f"station {self.index} has no clock model for {neighbor}; "
                "stations only talk to neighbours they have rendezvoused with"
            ) from None

    def avoid_views(self, next_hop: int) -> Tuple[ScheduleView, ...]:
        """Receive windows to respect when transmitting to ``next_hop``."""
        cached = self._avoid_cache.get(next_hop)
        if cached is not None:
            return cached
        views = tuple(
            self._neighbor_views[neighbor]
            for neighbor in self._avoid_neighbors.get(next_hop, ())
        )
        self._avoid_cache[next_hop] = views
        return views

    def replace_clock(self, clock: Clock) -> None:
        """Swap in a new clock (a step/rate fault) and rebuild every
        schedule view derived from the old one."""
        self.clock = clock
        self.own_view = ScheduleView.own(self.schedule, clock)
        for neighbor, model in self._neighbor_models.items():
            self._neighbor_views[neighbor] = ScheduleView.of_neighbor(
                self.schedule, clock, model
            )
        self._avoid_cache.clear()

    def power_for(self, next_hop: int) -> float:
        """Transmit power toward a neighbour (policy applied to the link)."""
        return self._power_lookup(next_hop)

    def replace_power_lookup(self, lookup: Callable[[int], float]) -> None:
        """Re-aim power control (a §7.1 re-convergence measured the
        live channel; the old lookup closed over stale gains)."""
        self._power_lookup = lookup

    def install_arq(self, arq) -> None:
        """Attach a stop-and-wait ARQ sublayer (:mod:`repro.mac.arq`)
        consulted by :meth:`transmit_packet` on every data outcome."""
        self.arq = arq

    def delay_for(self, next_hop: int) -> float:
        """Observed propagation delay toward a neighbour (Section 3.3).

        Zero unless the network models delays; when it does, the MAC
        leads each burst by this amount so the packet arrives inside
        the receiver's published window.
        """
        if self._delay_lookup is None:
            return 0.0
        return self._delay_lookup(next_hop)

    # -- packet intake ----------------------------------------------------

    def submit(self, packet: Packet) -> None:
        """Accept a packet for (further) transport.

        Called by traffic sources for fresh packets and by the delivery
        path for transit packets.  Routes by final destination; packets
        with no known route are dropped and counted.
        """
        if packet.destination == self.index:
            raise ValueError("a packet for this station should not be submitted")
        if not self.alive:
            self._refused_down(packet)
            return
        try:
            next_hop = self.table.next_hop(packet.destination)
        except RouteError:
            self.record_no_route(packet.destination)
            return
        origin = not packet.hops
        if origin:
            self.stats.originated += 1
        else:
            self.stats.forwarded += 1
        self._enqueue(packet, next_hop, origin=origin)

    def requeue(self, packet: Packet, next_hop: int) -> None:
        """Re-enqueue a packet the ARQ sublayer is retrying.

        Unlike :meth:`submit` this counts neither an origination nor a
        forward — the packet was counted when it first entered the
        backlog — and the ``queue_enter`` event carries the v2
        ``retry`` flag so downstream counters stay exact.  The sublayer
        gives up on a downed station itself, just before this call.
        """
        self._enqueue(packet, next_hop, retry=True)

    def _enqueue(
        self,
        packet: Packet,
        next_hop: int,
        origin: bool = False,
        control: bool = False,
        retry: bool = False,
    ) -> None:
        """The one way into the backlog: queue the packet, emit its
        ``queue_enter`` and wake a MAC waiting for an arrival."""
        self.queue.enqueue(next_hop, packet)
        if self.instr.active:
            self.instr.emit(
                QueueEnter(
                    self.env.now,
                    self.index,
                    next_hop,
                    packet.packet_id,
                    origin,
                    control,
                    len(self.queue),
                    retry=retry,
                )
            )
        self._wake()

    def _refused_down(self, packet: Packet) -> None:
        """Count a packet handed to this station while it is down."""
        self.stats.fault_drops += 1
        if self.instr.active:
            self.instr.emit(
                DropStationDown(self.env.now, self.index, packet.destination)
            )

    def record_no_route(self, destination: int) -> None:
        """Count a packet dropped for lack of a route to ``destination``."""
        self.stats.no_route_drops += 1
        if self.instr.active:
            self.instr.emit(
                DropNoRoute(self.env.now, self.index, destination)
            )

    def _wake(self) -> None:
        if self._arrival_event is not None and not self._arrival_event.triggered:
            self._arrival_event.succeed()
        self._arrival_event = None

    def next_arrival(self) -> Event:
        """An event that fires when the next packet is enqueued here."""
        if self._arrival_event is None or self._arrival_event.triggered:
            self._arrival_event = self.env.event()
        return self._arrival_event

    # -- transmission -----------------------------------------------------

    def dequeue(self, next_hop: int):
        """Pop the queue head bound for ``next_hop`` (the MAC hot path).

        The single funnel every MAC dequeues through, so the
        ``queue_leave`` event and backlog-depth gauge stay accurate.
        """
        packet = self.queue.pop(next_hop)
        if self.instr.active:
            self.instr.emit(
                QueueLeave(
                    self.env.now,
                    self.index,
                    next_hop,
                    packet.packet_id,
                    len(self.queue),
                )
            )
        return packet

    def transmit_packet(
        self, packet: Packet, next_hop: int, power_scale: float = 1.0
    ) -> ProcessGenerator:
        """Radiate one packet to ``next_hop``; yields until burst end.

        Returns (via StopIteration value) the medium's oracle outcome.
        Updates the transmitter's duty-cycle/energy accounting either
        way.

        ``power_scale`` multiplies the power-controlled level for this
        one burst — the hook multi-level power MACs use to draw a
        random ladder rung without re-aiming power control.  The
        default of exactly 1.0 leaves the power arithmetic untouched.

        With an ARQ sublayer installed (:meth:`install_arq`), a failed
        data burst is handed to the sublayer — which schedules a
        bounded retransmission or records a loud give-up — and the MAC
        above sees ``True`` (attempt handled), so contention MACs'
        private retry loops stay dormant.  Control frames and the
        sublayer-free default keep the raw oracle outcome.
        """
        if power_scale <= 0.0:
            raise ValueError("power scale must be positive")
        power = self.power_for(next_hop)
        if power_scale != 1.0:
            power *= power_scale
        power = self.transmitter.clamp_power(power)
        duration = packet.airtime(self.data_rate_bps)
        self.transmitter.begin(self.env.now, power)
        done = self.medium.transmit(self.index, next_hop, packet, power, duration)
        success = yield done
        self.transmitter.end(self.env.now)
        self.stats.sent += 1
        if self.instr.active:
            self.instr.emit(
                TxOutcome(self.env.now, self.index, next_hop, bool(success))
            )
        if self.arq is not None and not packet.is_control:
            if success:
                self.arq.on_success(packet)
            else:
                return self.arq.on_failure(packet, next_hop)
        return bool(success)

    # -- reception ----------------------------------------------------------

    def register_control_handler(
        self, kind: str, handler: Callable[[Transmission], None]
    ) -> None:
        """Route received control frames of ``kind`` to ``handler``.

        Network-layer protocols (e.g. over-the-air route computation)
        use this; frames with no registered handler fall through to the
        MAC's :meth:`~repro.mac.base.MacProtocol.on_control` (which is
        where MAC-level frames like MACA's RTS/CTS live).
        """
        if not kind:
            raise ValueError("control kind must be non-empty")
        self._control_handlers[kind] = handler

    def send_control(self, next_hop: int, packet: Packet) -> None:
        """Queue a control frame for one specific neighbour."""
        if not packet.is_control:
            raise ValueError("send_control is for control frames")
        if not self.alive:
            self._refused_down(packet)
            return
        self._enqueue(packet, next_hop, control=True)

    def _on_delivery(self, tx: Transmission) -> None:
        packet = tx.packet
        if packet.is_control:
            handler = self._control_handlers.get(packet.kind)
            if handler is not None:
                handler(tx)
            else:
                self.mac.on_control(tx)
            return
        packet.hops.append(
            HopRecord(
                sender=tx.source,
                receiver=self.index,
                start=tx.start,
                end=tx.end,
                power_w=tx.power_w,
            )
        )
        if packet.destination == self.index:
            self.stats.delivered_to_me += 1
            self.stats.delivery_delays.append(packet.delay())
            self.delivered_hops.add(packet.hop_count)
            if self.instr.active:
                self.instr.emit(
                    Delivered(
                        self.env.now,
                        self.index,
                        packet.packet_id,
                        packet.delay(),
                        packet.hop_count,
                        packet.total_radiated_energy_j(),
                    )
                )
        else:
            self.submit(packet)

    # -- failure accounting ---------------------------------------------------

    def record_unreachable(self, next_hop: int) -> None:
        """Count a neighbour with no schedule overlap in the horizon."""
        self.stats.unreachable_drops += 1
        if self.instr.active:
            self.instr.emit(
                Unreachable(self.env.now, self.index, next_hop)
            )

    def drop_all_queued(self, reason: str = "unreachable") -> int:
        """Discard every queued packet (all next hops unreachable, or
        the station itself failed); returns how many were dropped."""
        dropped = self.queue.clear()
        if dropped and self.instr.active:
            self.instr.emit(
                QueueFlush(self.env.now, self.index, reason, dropped)
            )
        return dropped

    # -- fault lifecycle --------------------------------------------------------

    def fail(self) -> None:
        """Take the station down: it stops queueing, transmitting, and
        receiving until :meth:`revive`; the backlog is discarded."""
        if not self.alive:
            return
        self.alive = False
        self.stats.fault_drops += self.drop_all_queued(reason="station_down")
        if self.instr.active:
            self.instr.emit(StationDown(self.env.now, self.index))

    def revive(self) -> None:
        """Bring a failed station back up (empty queues, same clock)."""
        if self.alive:
            return
        self.alive = True
        if self.instr.active:
            self.instr.emit(StationUp(self.env.now, self.index))

    # -- reporting --------------------------------------------------------------

    def duty_cycle(self, elapsed: float) -> float:
        """Fraction of the run this station spent transmitting."""
        return self.transmitter.duty_cycle(elapsed)
