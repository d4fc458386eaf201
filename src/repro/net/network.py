"""Network assembly and simulation harness.

This module turns a placement plus a configuration into a running
network, applying the paper's design strategy (Section 6) as an
explicit *link-budget calibration*:

1. Links usable for routing reach out to ``reach_factor / sqrt(rho)``
   (the paper doubles the characteristic length: reach_factor 2).
2. Minimum-energy routes are computed from the observed propagation
   matrix; each station's power control delivers a constant target
   power ``T`` to its addressee (Section 6.1).
3. The worst-case aggregate interference bound at each receiver is
   ``I_max[n] = T * sum_j G[n,j] / g_hat[j]`` where ``g_hat[j]`` is
   station j's weakest used link — i.e. everyone transmitting at once
   at their highest power-controlled level.
4. When the Section 7.3 courtesy is enabled, contributors above
   :data:`AVOID_FRACTION` of that bound are barred from transmitting
   during the victim's receive windows, so the *effective* bound caps
   each contributor at the avoid threshold.
5. The system data rate is then fixed by design (Section 3.4): the SIR
   threshold is set to ``T / (SAFETY_MARGIN * max_n I_eff[n])``, which
   the Shannon form under :data:`BETA` and :data:`BANDWIDTH_HZ`
   converts to a rate, and :data:`PACKET_SIZE_BITS` over
   :data:`PACKET_SLOT_FRACTION` to the slot.  By construction, a
   delivery at power ``T`` (:data:`TARGET_DELIVERED_W`) clears the
   threshold under any concurrent transmission pattern the scheme
   permits — this is the precise sense in which the scheme is
   collision-free, and the T4 experiment verifies it with zero losses.

Step 5 is :func:`design_budget`, the one calibration both simulation
drivers run.  Each passes its own bound and numerator: ``Network`` its
effective bound and the target ``T``; the metro scene
(:func:`repro.analysis.metro.build_metro_scene`) its culling-inclusive
sparse bound and the weakest power its capped power control delivers.
The design values of Section 6 are this module's constants; a
:class:`NetworkConfig` holds only what a caller varies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.clock.clock import Clock, random_clock
from repro.clock.sync import NeighborClockModel, exchange_readings
from repro.core.reception import required_sir, shannon_capacity
from repro.core.schedule import Schedule
from repro.mac.arq import ArqSublayer
from repro.mac.base import MacProtocol
from repro.mac.registry import get_mac, mac_factory
from repro.net.medium import Medium
from repro.net.queueing import FifoQueue, NeighborQueues, TransmitQueue
from repro.net.station import Station
from repro.net.traffic import TrafficSource
from repro.obs.api import Instrumentation, ambient_instrumentation
from repro.obs.sinks import MemorySink
from repro.propagation.geometry import Placement
from repro.propagation.matrix import PropagationMatrix
from repro.propagation.models import FreeSpace, PropagationModel
from repro.radio.spreadspectrum import DespreaderBank
from repro.radio.transmitter import Transmitter
from repro.routing.min_hop import min_hop_tables
from repro.routing.min_energy import min_energy_tables
from repro.routing.table import RoutingTable
from repro.sim.engine import Environment
from repro.sim.events import Interrupt
from repro.sim.process import Process, ProcessGenerator
from repro.sim.stats import Welford
from repro.sim.streams import RandomStreams

__all__ = [
    "NetworkConfig",
    "LinkBudget",
    "MacFactory",
    "Network",
    "NetworkResult",
    "build_network",
    "design_budget",
    "power_cap_w",
    "BANDWIDTH_HZ",
    "BETA",
    "SAFETY_MARGIN",
    "PACKET_SIZE_BITS",
    "PACKET_SLOT_FRACTION",
    "SCHEDULE_KEY",
    "AVOID_FRACTION",
    "CLOCK_OFFSET_SPAN_SLOTS",
    "TARGET_DELIVERED_W",
    "THERMAL_FRACTION",
]

MacFactory = Callable[[int, "LinkBudget"], MacProtocol]

# The Section 6 design: fixed once for every network and metro scene.

#: Spread bandwidth ``W`` (Hz).
BANDWIDTH_HZ = 1e6
#: Detection margin above the Shannon bound (linear).
BETA = 3.0
#: Headroom factor on the interference bound when fixing the design
#: rate (1.0 would size the rate exactly to the worst-case bound).
SAFETY_MARGIN = 2.0
#: Fixed packet size (bits); with the quarter-slot rule it fixes the
#: slot time.
PACKET_SIZE_BITS = 1000.0
#: Packet airtime as a fraction of the slot (the thesis uses 1/4).
PACKET_SLOT_FRACTION = 0.25
#: Hash key of the shared schedule.
SCHEDULE_KEY = 1
#: Contribution threshold, as a fraction of the victim's interference
#: bound, above which a transmission must respect the victim's receive
#: windows (Section 7.3; ~0.25 is the paper's 1 dB rise).
AVOID_FRACTION = 0.25
#: Clock offsets are uniform over this many slots (two or more
#: decorrelate the schedules w.h.p., Section 7.1).
CLOCK_OFFSET_SPAN_SLOTS = 1000.0
#: The constant delivered power ``T`` (W); its absolute value is
#: immaterial, everything scales with it.
TARGET_DELIVERED_W = 1.0
#: Thermal noise as a fraction of the smallest receiver's interference
#: bound (tiny, per Section 4).
THERMAL_FRACTION = 1e-6


def power_cap_w(min_gain: float) -> float:
    """The Section 6 power cap: nobody radiates more than twice the
    power the weakest usable link (gain ``min_gain``) needs."""
    return 2.0 * TARGET_DELIVERED_W / min_gain


@dataclass(frozen=True)
class NetworkConfig:
    """What a caller varies between simulated networks; the Section 6
    design values are this module's constants.

    Attributes:
        reach_factor: usable-link reach in units of ``1/sqrt(rho)``
            (Section 6 argues for 2).
        receive_fraction: schedule receive duty cycle ``p``.
        respect_neighbors: enable the Section 7.3 courtesy.
        guard_fraction: scheduling guard as a fraction of the slot time.
        clock_rate_error_ppm: oscillator tolerance.
        rendezvous_jitter: measurement noise (time units) on exchanged
            clock readings; 0 gives exact clock models.
        rendezvous_count: number of clock-reading exchanges per
            neighbour pair used to fit the model.
        despreader_channels: tracking channels per receiver.
        fifo_queues: use a single FIFO (head-of-line blocking baseline)
            instead of per-neighbour queues.
        min_hop_routing: use min-hop routes instead of minimum-energy.
        calibrate_all_links: size the interference bound for stations
            transmitting on *any* hearable link, not only their routing
            next hops.  Required when control protocols (e.g. the
            over-the-air route bootstrap) unicast to arbitrary
            neighbours; costs design rate because the worst-case power
            per station is higher.
        model_propagation_delay: observe per-link propagation delays
            (distance over c) and have senders lead their bursts so
            packets arrive inside the receiver's window (Section 3.3's
            compensation remark).  The medium itself stays
            instantaneous: at any terrestrial geometry the delay is
            microseconds against millisecond-scale slots, so its only
            schedulable effect is the lead this option applies.
        rendezvous_refresh_slots: when set, stations re-exchange clock
            readings with every hearable neighbour each this-many slots
            *during* the run, feeding the rolling clock-model fit —
            the online version of Section 7's "occasionally rendezvous".
        arq_max_retries: when set, install a stop-and-wait ARQ
            sublayer (:mod:`repro.mac.arq`) on every station with this
            retry budget; ``None`` (the default) keeps transmit
            outcomes untouched — bit-identical to pre-ARQ behaviour.
        arq_backoff_slots: base of the ARQ exponential backoff, in
            slots (:func:`repro.mac.arq.retry_delay_slots`).
        seed: master seed for clocks and any stochastic pieces.
    """

    reach_factor: float = 2.0
    receive_fraction: float = 0.3
    respect_neighbors: bool = True
    guard_fraction: float = 0.01
    clock_rate_error_ppm: float = 1.0
    rendezvous_jitter: float = 0.0
    rendezvous_count: int = 2
    despreader_channels: int = 12
    fifo_queues: bool = False
    min_hop_routing: bool = False
    calibrate_all_links: bool = False
    model_propagation_delay: bool = False
    rendezvous_refresh_slots: Optional[float] = None
    arq_max_retries: Optional[int] = None
    arq_backoff_slots: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        # Each check is written so that NaN and infinite values fail it.
        if not 0.0 < self.reach_factor < math.inf:
            raise ValueError("reach factor must be positive and finite")
        if not 0.0 < self.receive_fraction < 1.0:
            raise ValueError("receive fraction must be in (0, 1)")
        if not 0.0 <= self.guard_fraction < math.inf:
            raise ValueError("guard fraction must be non-negative and finite")
        if not 0.0 <= self.clock_rate_error_ppm < math.inf:
            raise ValueError("clock rate error must be non-negative and finite")
        if not 0.0 <= self.rendezvous_jitter < math.inf:
            raise ValueError("rendezvous jitter must be non-negative and finite")
        if not 1 <= self.rendezvous_count < math.inf:
            raise ValueError("need a finite count of at least one rendezvous")
        if not 1 <= self.despreader_channels < math.inf:
            raise ValueError("need a finite count of at least one despreading channel")
        if self.rendezvous_refresh_slots is not None and not (
            0.0 < self.rendezvous_refresh_slots < math.inf
        ):
            raise ValueError("rendezvous refresh interval must be positive and finite")
        if self.arq_max_retries is not None and not (
            1 <= self.arq_max_retries < math.inf
        ):
            raise ValueError("ARQ needs a finite budget of at least one retry")
        if not 0.0 <= self.arq_backoff_slots < math.inf:
            raise ValueError("ARQ backoff must be non-negative and finite")


@dataclass(frozen=True)
class LinkBudget:
    """The calibrated design point of a built network.

    Attributes:
        sir_threshold: required SIR at every receiver.
        data_rate_bps: the fixed design rate implied by the threshold.
        slot_time: schedule slot length (packet airtime / fraction).
        packet_airtime: airtime of the standard packet.
        min_gain: weakest usable link gain (the reach limit).
        interference_bounds: per-station worst-case aggregate
            interference (the *effective* bound when the Section 7.3
            courtesy is on).
        thermal_noise_w: receiver thermal noise floor.
        processing_gain_db: implied spreading ratio in dB.
        target_delivered_w: the constant delivered power T that power
            control aims at every addressee.
    """

    sir_threshold: float
    data_rate_bps: float
    slot_time: float
    packet_airtime: float
    min_gain: float
    interference_bounds: np.ndarray
    thermal_noise_w: float
    processing_gain_db: float
    target_delivered_w: float = TARGET_DELIVERED_W


@dataclass
class NetworkResult:
    """Aggregate outcome of one simulated run.

    ``unreachable_drops`` sums the stations' failed window searches
    (:class:`~repro.net.station.StationStats`); it is not a count of
    dropped packets.
    """

    duration: float
    originated: int
    forwarded: int
    transmissions: int
    delivered_end_to_end: int
    hop_deliveries: int
    losses_total: int
    losses_by_type: Dict
    losses_by_reason: Dict[str, int]
    mean_delay: float
    mean_hops: float
    mean_duty_cycle: float
    max_duty_cycle: float
    peak_despreader_busy: int
    despreader_rejections: int
    unreachable_drops: int
    no_route_drops: int
    fault_drops: int = 0
    arq_retries: int = 0
    arq_giveups: int = 0

    @property
    def collision_free(self) -> bool:
        """Whether no hop was lost for any reason."""
        return self.losses_total == 0

    @property
    def hop_delivery_ratio(self) -> float:
        """Delivered hops over attempted hops."""
        if self.transmissions == 0:
            return math.nan
        return self.hop_deliveries / self.transmissions


class Network:
    """A fully assembled simulated network, ready to run.

    Clock faults and mobility rework ``clocks`` and ``clock_models``
    (keyed by ``(observer, neighbour)``) in place; the channel process
    re-evaluates gains through ``propagation_model`` as stations move.
    """

    def __init__(
        self,
        env: Environment,
        placement: Placement,
        matrix: PropagationMatrix,
        stations: List[Station],
        medium: Medium,
        budget: LinkBudget,
        tables: Dict[int, RoutingTable],
        config: NetworkConfig,
        schedule: Schedule,
        clocks: List[Clock],
        clock_models: Dict[Tuple[int, int], NeighborClockModel],
        propagation_model: PropagationModel,
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        self.env = env
        self.placement = placement
        self.matrix = matrix
        self.stations = stations
        self.medium = medium
        self.budget = budget
        self.tables = tables
        self.config = config
        self.schedule = schedule
        self.clocks = clocks
        self.clock_models = clock_models
        self.propagation_model = propagation_model
        self.instrumentation = (
            instrumentation if instrumentation is not None else Instrumentation()
        )
        # Hop counts of end-to-end deliveries, folded in the order they
        # happen: every station adds to this one accumulator, since a
        # merge of per-station means would round differently.
        self.delivered_hops = Welford()
        for station in stations:
            station.delivered_hops = self.delivered_hops
        self._sources: List[TrafficSource] = []
        self._maintenance: List = []  # generator factories run at start
        self._started = False
        self._mac_processes: Dict[int, Process] = {}
        # The installed fault injector and continuous channel process,
        # if any.
        self.resilience = None
        self.channel = None

    @property
    def station_count(self) -> int:
        """Number of stations."""
        return len(self.stations)

    def add_traffic(self, source: TrafficSource) -> None:
        """Attach a traffic source feeding its origin station."""
        if not 0 <= source.origin < self.station_count:
            raise ValueError("traffic origin out of range")
        self._sources.append(source)

    def add_maintenance(self, factory: Callable[[], ProcessGenerator]) -> None:
        """Register a maintenance process factory (spawned at start)."""
        if self._started:
            raise RuntimeError("maintenance must be added before start")
        self._maintenance.append(factory)

    def start(self) -> None:
        """Launch every station's MAC process and every traffic source."""
        if self._started:
            raise RuntimeError("network already started")
        self._started = True
        for station in self.stations:
            self._spawn_mac(station.index)
        for source in self._sources:
            origin = self.stations[source.origin]
            self.env.process(source.run(self.env, origin.submit))
        for factory in self._maintenance:
            self.env.process(factory())

    def _spawn_mac(self, index: int) -> None:
        """Run a station's MAC under a supervisor that absorbs the
        Interrupt thrown when the station is crashed by a fault."""
        station = self.stations[index]
        self._mac_processes[index] = self.env.process(
            _supervised_mac(station.mac)
        )

    def run(self, duration: float) -> NetworkResult:
        """Start (if needed) and simulate for ``duration``; report."""
        if duration <= 0.0:
            raise ValueError("duration must be positive")
        if not self._started:
            self.start()
        start_time = self.env.now
        self.env.run(until=start_time + duration)
        return self.collect(self.env.now - start_time)

    def collect(self, elapsed: float) -> NetworkResult:
        """Aggregate statistics over all stations and the medium."""
        delays = Welford()
        duty = Welford()
        originated = forwarded = delivered = 0
        unreachable = no_route = 0
        fault_drops = 0
        arq_retries = arq_giveups = 0
        peak_busy = 0
        rejections = 0
        for station in self.stations:
            stats = station.stats
            originated += stats.originated
            forwarded += stats.forwarded
            delivered += stats.delivered_to_me
            unreachable += stats.unreachable_drops
            no_route += stats.no_route_drops
            fault_drops += stats.fault_drops
            arq_retries += stats.arq_retries
            arq_giveups += stats.arq_giveups
            delays.extend(stats.delivery_delays)
            duty.add(station.duty_cycle(elapsed) if elapsed > 0 else 0.0)
            peak_busy = max(peak_busy, station.bank.peak_busy)
            rejections += station.bank.rejections
        transmissions = sum(s.stats.sent for s in self.stations)
        return NetworkResult(
            duration=elapsed,
            originated=originated,
            forwarded=forwarded,
            transmissions=transmissions,
            delivered_end_to_end=delivered,
            hop_deliveries=self.medium.deliveries,
            losses_total=len(self.medium.losses),
            losses_by_type=self.medium.loss_counts_by_type(),
            losses_by_reason=self.medium.loss_counts_by_reason(),
            mean_delay=delays.mean,
            mean_hops=self.delivered_hops.mean,
            mean_duty_cycle=duty.mean,
            max_duty_cycle=duty.maximum,
            peak_despreader_busy=peak_busy,
            despreader_rejections=rejections,
            unreachable_drops=unreachable,
            no_route_drops=no_route,
            fault_drops=fault_drops,
            arq_retries=arq_retries,
            arq_giveups=arq_giveups,
        )

    def routing_neighbor_counts(self) -> List[int]:
        """Routing neighbours per station (the paper saw at most 8)."""
        return [len(table.neighbors_in_use()) for table in self.tables.values()]

    # -- fault lifecycle ------------------------------------------------

    def station_down(self, index: int) -> bool:
        """Crash a station: abort its traffic, stop its MAC, drop its
        queues, and stop the medium charging the field for it.

        Returns whether anything happened (``False`` if already down).
        """
        station = self.stations[index]
        if not station.alive:
            return False
        # Order matters: first unhook the physics (receptions at the
        # dead station fail, its in-flight bursts leave the air), then
        # stop the behaviour (MAC process, keyed transmitter), then the
        # bookkeeping (queue drain, liveness flag).
        self.medium.fail_receptions_at(index)
        self.medium.abort_transmissions_from(index)
        self.medium.set_station_down(index, True)
        process = self._mac_processes.pop(index, None)
        if process is not None and process.is_alive:
            process.interrupt("station_down")
        if station.transmitter.is_transmitting:
            station.transmitter.end(self.env.now)
        station.fail()
        return True

    def station_up(self, index: int) -> bool:
        """Recover a crashed station (empty queues, fresh MAC process).

        Returns whether anything happened (``False`` if already up).
        """
        station = self.stations[index]
        if station.alive:
            return False
        self.medium.set_station_down(index, False)
        station.revive()
        if self._started:
            self._spawn_mac(index)
        return True

    def reroute(self) -> None:
        """Re-derive every routing table around the currently-dead
        stations, in place (Section 6.2's hop-by-hop routing state).

        In-place mutation keeps every ``Station.table`` reference
        valid.  Dead stations keep their (stale) tables; they are
        unreachable either way and will be routed around.
        """
        censored = self.matrix.observed(min_gain=self.budget.min_gain)
        gains = censored.gains
        dead = [
            station.index for station in self.stations if not station.alive
        ]
        if dead:
            gains = gains.copy()
            gains[dead, :] = 0.0
            gains[:, dead] = 0.0
        derive = min_hop_tables if self.config.min_hop_routing else min_energy_tables
        fresh = derive(PropagationMatrix(gains), self.budget.min_gain)
        for index, table in self.tables.items():
            table.next_hops.clear()
            table.costs.clear()
            table.next_hops.update(fresh[index].next_hops)
            table.costs.update(fresh[index].costs)

    def apply_clock_step(
        self, index: int, offset_slots: float, rate_error_delta_ppm: float
    ) -> None:
        """Fault a station's clock: step its offset and/or its rate.

        The station's own schedule views are rebuilt immediately (it
        lives by its own clock), but every *model* of the old clock —
        its neighbours' and its own of them — is now stale; see
        :meth:`refit_clock_models` for the recovery half.
        """
        old = self.clocks[index]
        new = Clock(
            offset=old.offset + offset_slots * self.budget.slot_time,
            rate_error=old.rate_error + rate_error_delta_ppm * 1e-6,
        )
        # In-place list update keeps the rendezvous refresher (which
        # closed over this list) sampling the post-fault clock.
        self.clocks[index] = new
        self.stations[index].replace_clock(new)
        # Kick the MAC so its pending candidate windows (computed with
        # the old clock) are re-derived.
        self._kick_mac(index, "clock_step")

    def _kick_mac(self, index: int, cause: str) -> bool:
        """Interrupt and respawn a station's running MAC so it re-plans;
        returns whether it did.

        A MAC that is mid-burst is left alone: it re-plans after the
        burst anyway, and an interrupt would orphan the keyed
        transmitter.
        """
        process = self._mac_processes.get(index)
        if (
            process is None
            or not process.is_alive
            or self.medium.is_station_transmitting(index)
        ):
            return False
        process.interrupt(cause)
        self._spawn_mac(index)
        return True

    def reconverge(self, matrix: PropagationMatrix, rng) -> Dict[str, int]:
        """Re-converge the network's §7.1 state onto the live channel.

        The mobility counterpart of the discrete fault recoveries:
        after neighbour sets turn over, stations (1) rendezvous with
        newly hearable neighbours and fit clock models for them, (2)
        re-derive routing tables from the live geometry, (3) re-aim
        power control at the measured gains (the build-time lookups
        closed over the nominal matrix, so without this step a
        stretched link is persistently under-powered), (4) rebuild the
        Section 7.3 courtesy sets, and (5) kick schedule-driven MACs
        (``replan_on_reconverge``) so stale candidate windows are
        re-derived.  ``matrix`` becomes the network's routing/power
        geometry; the medium's own live gains are the channel process's
        responsibility and are not touched here.

        Returns counters: ``{"new_pairs": ..., "kicked": ...}``.
        """
        self.matrix = matrix
        censored = matrix.observed(min_gain=self.budget.min_gain)
        # 1. Fresh rendezvous: fit models for pairs hearing each other
        # for the first time (existing pairs keep their rolling fits).
        sample_times = [
            self.env.now - k * 0.5 * self.budget.slot_time
            for k in range(self.config.rendezvous_count)
        ]
        new_pairs = 0
        hearable_a, hearable_b = np.nonzero(censored.gains > 0.0)
        for a, b in zip(hearable_a.tolist(), hearable_b.tolist()):
            if (a, b) in self.clock_models:
                continue
            model = NeighborClockModel()
            _rendezvous(
                model,
                self.clocks[a],
                self.clocks[b],
                sample_times,
                self.config.rendezvous_jitter,
                rng,
            )
            self.stations[a].learn_neighbor_clock(b, self.schedule, model)
            self.clock_models[(a, b)] = model
            new_pairs += 1
        # 2. Routes around the live geometry (and any dead stations).
        self.reroute()
        # 3. Power control re-aimed at observed gains.
        max_power = power_cap_w(self.budget.min_gain)
        for station in self.stations:
            station.replace_power_lookup(
                _make_power_lookup(
                    matrix.gains, station.index, TARGET_DELIVERED_W, max_power
                )
            )
        # 4. Courtesy sets against the live geometry (needs step 1:
        # protected neighbours must have clock models).
        if self.config.respect_neighbors:
            _install_avoid_views(
                self.stations, matrix, censored, self.budget, self.config
            )
        # 5. Kick schedule-driven MACs (never mid-burst).
        kicked = 0
        for station in self.stations:
            if station.mac.replan_on_reconverge and self._kick_mac(
                station.index, "reconverge"
            ):
                kicked += 1
        return {"new_pairs": new_pairs, "kicked": kicked}

    def refit_clock_models(self, index: int, rng) -> None:
        """Re-fit every neighbour clock model involving ``index``.

        The Section 7 recovery: after a clock fault the affected pairs
        rendezvous afresh.  Each involved model is reset (pre-fault
        samples describe a dead affine relation) and refilled with
        ``rendezvous_count`` exchanges over the recent past.
        """
        now = self.env.now
        sample_times = [
            now - k * 0.5 * self.budget.slot_time
            for k in range(self.config.rendezvous_count)
        ]
        for (a, b), model in self.clock_models.items():
            if a != index and b != index:
                continue
            model.reset()
            _rendezvous(
                model,
                self.clocks[a],
                self.clocks[b],
                sample_times,
                self.config.rendezvous_jitter,
                rng,
            )


def _calibrate(
    matrix: PropagationMatrix,
    tables: Dict[int, RoutingTable],
    config: NetworkConfig,
    min_gain: float,
) -> LinkBudget:
    """The Section 6 link-budget calibration described in the module
    docstring: steps 3 and 4 bound the interference from geometry,
    routes and the courtesy, and :func:`design_budget` fixes the rate
    against that bound for deliveries at the target power."""
    gains = matrix.gains
    count = matrix.count

    # g_hat[j]: station j's weakest link it may transmit on, i.e. its
    # highest power-controlled level is T / g_hat[j].  By default
    # only routing next hops count; with calibrate_all_links every
    # hearable link does (control protocols may unicast to any
    # neighbour).
    g_hat = np.full(count, min_gain)
    if not config.calibrate_all_links:
        for station, table in tables.items():
            used = table.neighbors_in_use()
            if used:
                g_hat[station] = min(gains[hop, station] for hop in used)
    peak_power = TARGET_DELIVERED_W / g_hat  # per-station worst-case radiated power

    # Worst-case aggregate interference bound at each receiver.
    raw_bounds = gains @ peak_power  # I_max[n] = sum_j G[n,j] * P_j
    if config.respect_neighbors:
        # Contributors above the avoid threshold must stay out of the
        # victim's receive windows, capping their in-window contribution.
        cap = AVOID_FRACTION * raw_bounds[:, None]
        contributions = gains * peak_power[None, :]
        bounds = np.minimum(contributions, cap).sum(axis=1)
    else:
        bounds = raw_bounds
    return design_budget(bounds, TARGET_DELIVERED_W, min_gain)


def design_budget(
    bounds: np.ndarray, delivered_w: float, min_gain: float
) -> LinkBudget:
    """Fix the design rate against per-receiver interference bounds
    (step 5 of the module docstring).

    Thermal noise is :data:`THERMAL_FRACTION` of the smallest bound.
    The SIR threshold is ``delivered_w``, the weakest wanted power, over
    :data:`SAFETY_MARGIN` times the largest bound plus that noise; the
    Shannon form under :data:`BETA` turns it into the rate, and the
    packet size and slot fraction into the airtime and the slot.

    Args:
        bounds: each receiver's worst-case aggregate interference.
        delivered_w: the weakest power a wanted signal arrives at.
        min_gain: the weakest usable link gain, kept in the budget.
    """
    if float(bounds.max()) <= 0.0:
        raise ValueError(
            "cannot calibrate the link budget: no receiver has a positive "
            "interference bound (a one-station placement has none)"
        )
    thermal = THERMAL_FRACTION * float(bounds.min())
    worst = float(bounds.max()) + thermal
    threshold = delivered_w / (SAFETY_MARGIN * worst)
    data_rate = shannon_capacity(BANDWIDTH_HZ, threshold / BETA)
    # Consistency: required_sir(data_rate, W, beta) == threshold.
    assert math.isclose(
        required_sir(data_rate, BANDWIDTH_HZ, BETA), threshold, rel_tol=1e-9
    )
    airtime = PACKET_SIZE_BITS / data_rate
    slot_time = airtime / PACKET_SLOT_FRACTION
    processing_gain_db = 10.0 * math.log10(BANDWIDTH_HZ / data_rate)
    return LinkBudget(
        sir_threshold=threshold,
        data_rate_bps=data_rate,
        slot_time=slot_time,
        packet_airtime=airtime,
        min_gain=min_gain,
        interference_bounds=bounds,
        thermal_noise_w=thermal,
        processing_gain_db=processing_gain_db,
        target_delivered_w=TARGET_DELIVERED_W,
    )


def build_network(
    placement: Placement,
    config: Optional[NetworkConfig] = None,
    model: Optional[PropagationModel] = None,
    mac: Union[str, MacFactory] = "shepard",
    trace: bool = False,
    instrumentation: Optional[Instrumentation] = None,
) -> Network:
    """Assemble a ready-to-run network.

    Args:
        placement: station positions.
        config: network configuration (defaults throughout).
        model: propagation model (free space by default, per the paper).
        mac: which channel access scheme to run — a registered MAC name
            (see :func:`repro.mac.mac_names`), built through
            :func:`repro.mac.mac_factory`, or an explicit
            ``(index, budget) -> MacProtocol`` factory for schemes that
            need whole-network context (e.g. TDMA's global slot plan).
            Defaults to the paper's scheme.  A registered name also
            installs its descriptor's receiver model, if any, on every
            despreader bank.
        trace: keep the run's typed events in memory, readable through
            ``network.instrumentation.events()`` (adds a memory sink if
            none is present).
        instrumentation: explicit typed-event facade.  Sinks from this
            argument and from the ambient
            :func:`repro.obs.use_instrumentation` default are both
            folded into the network's facade; with neither (and
            ``trace=False``) instrumentation is disabled and zero-cost.
    """
    config = config or NetworkConfig()
    instr = _resolve_instrumentation(instrumentation, trace)
    model = model or FreeSpace(near_field_clamp=1e-6)
    streams = RandomStreams(config.seed)
    matrix = PropagationMatrix.from_placement(placement, model)

    reach_distance = config.reach_factor * placement.characteristic_length
    min_gain = float(model.power_gain(reach_distance))
    censored = matrix.observed(min_gain=min_gain)
    if config.min_hop_routing:
        tables = min_hop_tables(censored, min_gain)
    else:
        tables = min_energy_tables(censored, min_gain)

    budget = _calibrate(matrix, tables, config, min_gain)
    env = Environment()
    schedule = Schedule(
        slot_time=budget.slot_time,
        receive_fraction=config.receive_fraction,
        key=SCHEDULE_KEY,
    )

    clock_rng = streams.stream("clocks")
    clocks = [
        random_clock(
            clock_rng,
            offset_span=CLOCK_OFFSET_SPAN_SLOTS * budget.slot_time,
            rate_error_ppm=config.clock_rate_error_ppm,
        )
        for _ in range(placement.count)
    ]

    stations: List[Station] = []
    count = placement.count
    thresholds = np.full(count, budget.sir_threshold)
    medium = Medium(
        env=env,
        gains=matrix.gains,
        thermal_noise_w=budget.thermal_noise_w,
        sir_thresholds=thresholds,
        listen_query=lambda index, now: stations[index].mac.is_listening(now),
        channel_query=lambda index: stations[index].bank,
        instrumentation=instr,
    )

    max_power = power_cap_w(min_gain)

    if isinstance(mac, str):
        factory = mac_factory(mac, streams, config)
        bank_model = get_mac(mac).receiver_model
    else:
        factory, bank_model = mac, None

    delays = None
    if config.model_propagation_delay:
        from repro.radio.antenna import SPEED_OF_LIGHT

        delays = placement.distances() / SPEED_OF_LIGHT

    for index in range(count):
        power_lookup = _make_power_lookup(
            matrix.gains, index, TARGET_DELIVERED_W, max_power
        )
        delay_lookup = None
        if delays is not None:
            delay_lookup = _make_delay_lookup(delays, index)
        queue: TransmitQueue = (
            FifoQueue() if config.fifo_queues else NeighborQueues()
        )
        stations.append(
            Station(
                env=env,
                index=index,
                position=tuple(placement.positions[index]),
                clock=clocks[index],
                schedule=schedule,
                medium=medium,
                queue=queue,
                table=tables[index],
                mac=factory(index, budget),
                transmitter=Transmitter(max_power_w=max_power),
                bank=DespreaderBank(
                    capacity=config.despreader_channels, model=bank_model
                ),
                data_rate_bps=budget.data_rate_bps,
                power_lookup=power_lookup,
                instrumentation=instr,
                delay_lookup=delay_lookup,
            )
        )

    models = _install_clock_models(
        stations, clocks, schedule, censored, config, streams
    )
    if config.respect_neighbors:
        _install_avoid_views(stations, matrix, censored, budget, config)

    if config.arq_max_retries is not None:
        for station in stations:
            station.install_arq(ArqSublayer(station, config, budget.slot_time))

    network = Network(
        env=env,
        placement=placement,
        matrix=matrix,
        stations=stations,
        medium=medium,
        budget=budget,
        tables=tables,
        config=config,
        schedule=schedule,
        clocks=clocks,
        clock_models=models,
        propagation_model=model,
        instrumentation=instr,
    )
    if config.rendezvous_refresh_slots is not None:
        interval = config.rendezvous_refresh_slots * budget.slot_time
        jitter_rng = streams.stream("rendezvous-online")

        def refresher() -> ProcessGenerator:
            return _rendezvous_refresher(
                env, models, clocks, config.rendezvous_jitter, jitter_rng, interval
            )

        network._maintenance.append(refresher)
    return network


def _resolve_instrumentation(
    explicit: Optional[Instrumentation],
    trace: bool,
) -> Instrumentation:
    """Fold both instrumentation sources into one facade.

    Sources, outermost first: the explicit ``build_network`` argument
    and the ambient :func:`repro.obs.use_instrumentation` default.  A
    single source is used as-is (the caller keeps querying its own
    sinks) unless ``trace=True`` needs a memory sink it lacks; otherwise
    the sources compose into a fresh facade sharing all their sinks,
    plus a new memory sink for ``trace=True``.  A caller's facade is
    never mutated, so a sink added for one network cannot collect
    another network's events.
    """
    sources = [
        source
        for source in (explicit, ambient_instrumentation())
        if source is not None
    ]
    if len(sources) == 1 and not (trace and sources[0].memory is None):
        return sources[0]
    sinks = tuple(sink for source in sources for sink in source.sinks)
    if trace and not any(isinstance(sink, MemorySink) for sink in sinks):
        sinks += (MemorySink(),)
    return Instrumentation(sinks)


def _supervised_mac(mac: MacProtocol) -> ProcessGenerator:
    """Run a MAC under fault supervision.

    Nobody waits on MAC processes, so an uncaught :class:`Interrupt`
    (thrown when a fault crashes the station) would abort the whole
    simulation; the supervisor absorbs it and lets the process end.
    """
    try:
        yield from mac.run()
    except Interrupt:
        return


def _rendezvous_refresher(env, models, clocks, jitter, rng, interval):
    """Online clock maintenance: every ``interval``, each hearable pair
    exchanges fresh readings, feeding the rolling model fits (the
    in-operation form of Section 7's "occasionally rendezvous")."""
    while True:
        yield env.timeout(interval)
        for (a, b), model in models.items():
            _rendezvous(model, clocks[a], clocks[b], (env.now,), jitter, rng)


def _rendezvous(
    model: NeighborClockModel,
    clock_a: Clock,
    clock_b: Clock,
    times: Sequence[float],
    jitter: float,
    rng,
) -> None:
    """Feed ``model`` (station a's fit of b's clock) one exchange of
    clock readings at each of ``times`` (Section 7's rendezvous)."""
    for when in times:
        model.add_sample(
            exchange_readings(clock_a, clock_b, when, jitter=jitter, rng=rng)
        )


def _make_delay_lookup(delays: np.ndarray, sender: int) -> Callable[[int], float]:
    def lookup(next_hop: int) -> float:
        return float(delays[next_hop, sender])

    return lookup


def _make_power_lookup(
    gains: np.ndarray, sender: int, target: float, max_power: float
) -> Callable[[int], float]:
    def lookup(next_hop: int) -> float:
        gain = gains[next_hop, sender]
        if gain <= 0.0:
            raise ValueError(
                f"station {sender} cannot reach {next_hop}: zero path gain"
            )
        return min(target / gain, max_power)

    return lookup


def _install_clock_models(
    stations: List[Station],
    clocks: List[Clock],
    schedule: Schedule,
    censored: PropagationMatrix,
    config: NetworkConfig,
    streams: RandomStreams,
) -> Dict[Tuple[int, int], NeighborClockModel]:
    """Simulate pre-run rendezvous between every pair of hearable
    neighbours: each fits a model of the other's clock (Section 7).

    Returns the models keyed by ``(observer, neighbour)`` so online
    maintenance can keep feeding them.
    """
    jitter_rng = streams.stream("rendezvous")
    # Exchanges happened over the 'recent past' before the run starts.
    sample_times = [
        -(k + 1) * 100.0 * schedule.slot_time for k in range(config.rendezvous_count)
    ]
    models: Dict[Tuple[int, int], NeighborClockModel] = {}
    hearable_a, hearable_b = np.nonzero(censored.gains > 0.0)
    for a, b in zip(hearable_a.tolist(), hearable_b.tolist()):
        model = NeighborClockModel()
        _rendezvous(
            model,
            clocks[a],
            clocks[b],
            sample_times,
            config.rendezvous_jitter,
            jitter_rng,
        )
        stations[a].learn_neighbor_clock(b, schedule, model)
        models[(a, b)] = model
    return models


def _install_avoid_views(
    stations: List[Station],
    matrix: PropagationMatrix,
    censored: PropagationMatrix,
    budget: LinkBudget,
    config: NetworkConfig,
) -> None:
    """Wire up the Section 7.3 courtesy sets.

    For each sender s and each routing next hop d, the transmission
    power is fixed by power control; any *other* hearable neighbour n
    whose received interference from that power would exceed
    :data:`AVOID_FRACTION` of its interference bound gets its receive
    windows subtracted from s's candidate intervals.
    """
    raw_bounds = budget.interference_bounds
    for station in stations:
        sender = station.index
        if config.calibrate_all_links:
            possible_hops = [
                int(n) for n in np.nonzero(censored.gains[:, sender] > 0.0)[0]
            ]
        else:
            possible_hops = station.table.neighbors_in_use()
        for next_hop in possible_hops:
            power = station.power_for(next_hop)
            protected = []
            for neighbor in np.nonzero(censored.gains[:, sender] > 0.0)[0]:
                neighbor = int(neighbor)
                if neighbor == next_hop:
                    continue
                contribution = power * matrix.gains[neighbor, sender]
                if contribution > AVOID_FRACTION * raw_bounds[neighbor]:
                    station.neighbor_view(neighbor)  # must have a model
                    protected.append(neighbor)
            station.set_avoid_neighbors(next_hop, protected)
