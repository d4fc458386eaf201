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
   ``avoid_fraction`` of that bound are barred from transmitting during
   the victim's receive windows, so the *effective* bound caps each
   contributor at the avoid threshold.
5. The system data rate is then fixed by design (Section 3.4): the SIR
   threshold is set to ``T / (safety_margin * max_n I_eff[n])``, which
   the Shannon form converts to a rate.  By construction, a delivery at
   power ``T`` clears the threshold under any concurrent transmission
   pattern the scheme permits — this is the precise sense in which the
   scheme is collision-free, and the T4 experiment verifies it with
   zero losses.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from repro.clock.clock import Clock, random_clock
from repro.clock.sync import NeighborClockModel, exchange_readings
from repro.core.reception import required_sir, shannon_capacity
from repro.core.schedule import Schedule
from repro.mac.arq import ArqConfig, ArqSublayer
from repro.mac.base import MacProtocol
from repro.mac.shepard import ShepardMac
from repro.net.medium import Medium
from repro.net.queueing import FifoQueue, NeighborQueues, TransmitQueue
from repro.net.station import Station
from repro.net.traffic import TrafficSource
from repro.obs.api import Instrumentation, ambient_instrumentation
from repro.obs.sinks import MemorySink
from repro.propagation.geometry import Placement
from repro.propagation.horizon import (
    DEFAULT_ANTENNA_HEIGHT_M,
    mutual_radio_horizon_m,
)
from repro.propagation.matrix import PropagationMatrix
from repro.propagation.models import FreeSpace, PropagationModel
from repro.radio.receiver_model import build_receiver_model, receiver_model_names
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
]

MacFactory = Callable[[int, "LinkBudget"], MacProtocol]


@dataclass(frozen=True)
class NetworkConfig:
    """Everything that parameterises a simulated network.

    Attributes:
        bandwidth_hz: spread bandwidth ``W``.
        beta: detection margin above the Shannon bound (linear).
        safety_margin: headroom factor on the interference bound when
            fixing the design rate (>= 1; 1.0 means the rate is sized
            exactly to the worst-case bound).
        packet_size_bits: fixed packet size; with the quarter-slot rule
            this fixes the slot time.
        packet_slot_fraction: packet airtime as a fraction of the slot
            (the thesis uses 1/4).
        reach_factor: usable-link reach in units of ``1/sqrt(rho)``
            (Section 6 argues for 2).
        receive_fraction: schedule receive duty cycle ``p``.
        schedule_key: hash key of the shared schedule.
        respect_neighbors: enable the Section 7.3 courtesy.
        avoid_fraction: contribution threshold (fraction of the victim's
            interference bound) above which a transmission must respect
            the victim's receive windows (~0.25 = the paper's 1 dB rise).
        guard_fraction: scheduling guard as a fraction of the slot time.
        clock_offset_span_slots: clock offsets are uniform over this
            many slots (>= 2 guarantees decorrelated schedules w.h.p.).
        clock_rate_error_ppm: oscillator tolerance.
        rendezvous_jitter: measurement noise (time units) on exchanged
            clock readings; 0 gives exact clock models.
        rendezvous_count: number of clock-reading exchanges per
            neighbour pair used to fit the model.
        despreader_channels: tracking channels per receiver.
        fifo_queues: use a single FIFO (head-of-line blocking baseline)
            instead of per-neighbour queues.
        min_hop_routing: use min-hop routes instead of minimum-energy.
        target_delivered_w: the constant delivered power ``T`` (its
            absolute value is immaterial; everything scales with it).
        thermal_fraction: thermal noise as a fraction of the smallest
            receiver's interference bound (tiny, per Section 4).
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
        queue_capacity: bound on each station's total transmit backlog;
            ``None`` (the default) keeps queues unbounded, leaving seed
            outputs unchanged.  Overflow drops are counted per station.
        medium_resync_events: drift-guard cadence for the medium's
            incremental interference field (exact recompute every this
            many transmission starts/ends; ``None`` disables periodic
            resync).
        medium_sparse_cull: when set, hand the medium a horizon-culled
            CSR gain field instead of the dense matrix, culling links
            weaker than this fraction of the usable-link ``min_gain``.
            ``0.0`` keeps every nonzero link (bit-identical to dense);
            ``None`` (the default) keeps the dense medium.  Culled
            interference stays provably bounded — see
            :meth:`repro.net.medium.Medium.field_error_bound_w`.
            Calibration and power control always use the dense matrix;
            only the runtime field is sparse.
        arq_max_retries: when set, install a stop-and-wait ARQ
            sublayer (:mod:`repro.mac.arq`) on every station with this
            retry budget; ``None`` (the default) keeps transmit
            outcomes untouched — bit-identical to pre-ARQ behaviour.
        arq_timeout_slots: ARQ acknowledgement timeout, in slots.
        arq_backoff_slots: base of the ARQ exponential backoff, in
            slots (attempt k adds ``arq_backoff_slots * 2**(k-1)``).
        receiver_model: receiver model installed on every station's
            despreader bank, by registered name (see
            :func:`repro.radio.receiver_model_names`).  ``None`` (the
            default) defers to the selected MAC's registry descriptor —
            e.g. ``mac="sic_aloha"`` installs the ``"sic"`` model — and
            otherwise keeps the plain default receiver, bit-identical
            to pre-model behaviour.
        seed: master seed for clocks and any stochastic pieces.
        instrumentation: the typed-event facade handed down to the
            medium, stations, MACs and fault injector
            (:class:`repro.obs.Instrumentation`); ``None`` leaves the
            choice to ``build_network``'s ``instrumentation``/``trace``
            arguments or the ambient default.  Excluded from equality:
            two configs describing the same physics compare equal
            regardless of who is watching.
    """

    bandwidth_hz: float = 1e6
    beta: float = 3.0
    safety_margin: float = 2.0
    packet_size_bits: float = 1000.0
    packet_slot_fraction: float = 0.25
    reach_factor: float = 2.0
    receive_fraction: float = 0.3
    schedule_key: int = 1
    respect_neighbors: bool = True
    avoid_fraction: float = 0.25
    guard_fraction: float = 0.01
    clock_offset_span_slots: float = 1000.0
    clock_rate_error_ppm: float = 1.0
    rendezvous_jitter: float = 0.0
    rendezvous_count: int = 2
    despreader_channels: int = 12
    fifo_queues: bool = False
    min_hop_routing: bool = False
    target_delivered_w: float = 1.0
    thermal_fraction: float = 1e-6
    calibrate_all_links: bool = False
    model_propagation_delay: bool = False
    rendezvous_refresh_slots: Optional[float] = None
    queue_capacity: Optional[int] = None
    medium_resync_events: Optional[int] = 4096
    medium_sparse_cull: Optional[float] = None
    arq_max_retries: Optional[int] = None
    arq_timeout_slots: float = 4.0
    arq_backoff_slots: float = 2.0
    receiver_model: Optional[str] = None
    seed: int = 0
    instrumentation: Optional[Instrumentation] = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.bandwidth_hz <= 0.0:
            raise ValueError("bandwidth must be positive")
        if self.beta < 1.0:
            raise ValueError("beta must be >= 1")
        if self.safety_margin < 1.0:
            raise ValueError("safety margin must be >= 1")
        if self.packet_size_bits <= 0.0:
            raise ValueError("packet size must be positive")
        if not 0.0 < self.packet_slot_fraction <= 1.0:
            raise ValueError("packet slot fraction must be in (0, 1]")
        if self.reach_factor <= 0.0:
            raise ValueError("reach factor must be positive")
        if not 0.0 < self.receive_fraction < 1.0:
            raise ValueError("receive fraction must be in (0, 1)")
        if not 0.0 < self.avoid_fraction <= 1.0:
            raise ValueError("avoid fraction must be in (0, 1]")
        if not math.isfinite(self.guard_fraction):
            raise ValueError("guard fraction must be finite")
        if self.guard_fraction < 0.0:
            raise ValueError("guard fraction must be non-negative")
        if self.clock_offset_span_slots < 2.0:
            raise ValueError(
                "offsets under two slots risk correlated schedules (Section 7.1)"
            )
        if self.rendezvous_count < 1:
            raise ValueError("need at least one rendezvous")
        if self.despreader_channels < 1:
            raise ValueError("need at least one despreading channel")
        if self.target_delivered_w <= 0.0:
            raise ValueError("target delivered power must be positive")
        if (
            self.rendezvous_refresh_slots is not None
            and self.rendezvous_refresh_slots <= 0.0
        ):
            raise ValueError("rendezvous refresh interval must be positive")
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ValueError("queue capacity must be at least 1")
        if self.medium_resync_events is not None and self.medium_resync_events < 1:
            raise ValueError("medium resync cadence must be at least 1 event")
        if self.medium_sparse_cull is not None and self.medium_sparse_cull < 0.0:
            raise ValueError("sparse cull fraction must be non-negative")
        if self.arq_max_retries is not None and self.arq_max_retries < 1:
            raise ValueError("ARQ needs at least one retry when enabled")
        if self.arq_timeout_slots <= 0.0:
            raise ValueError("ARQ timeout must be positive")
        if self.arq_backoff_slots < 0.0:
            raise ValueError("ARQ backoff must be non-negative")
        if (
            self.receiver_model is not None
            and self.receiver_model not in receiver_model_names()
        ):
            known = ", ".join(receiver_model_names())
            raise ValueError(
                f"unknown receiver model {self.receiver_model!r}; "
                f"known models: {known}"
            )


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
    target_delivered_w: float = 1.0


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
    overflow_drops: int = 0
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
    """A fully assembled simulated network, ready to run."""

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
        self.instrumentation = (
            instrumentation if instrumentation is not None else Instrumentation()
        )
        self._sources: List[TrafficSource] = []
        self._maintenance: List = []  # generator factories run at start
        self._started = False
        # Fault-lifecycle state.  The builder fills in schedule, clocks
        # and clock_models; a standalone-constructed Network simply
        # cannot service clock-step faults (apply_clock_step raises).
        self._mac_processes: Dict[int, Process] = {}
        self.schedule = None
        self.clocks: Optional[List[Clock]] = None
        self.clock_models: Optional[Dict] = None
        self.resilience = None
        # The propagation model the builder derived gains from; the
        # continuous channel process needs it to re-evaluate link gains
        # as stations move (standalone-constructed networks cannot host
        # mobility, mirroring the clock-state restriction above).
        self.propagation_model = None
        # The installed continuous channel process, if any.
        self.channel = None

    @property
    def station_count(self) -> int:
        """Number of stations."""
        return len(self.stations)

    @property
    def trace(self) -> Instrumentation:
        """Legacy query handle: the instrumentation facade implements
        the old ``TraceRecorder`` surface (``of_kind``/``kinds``/...)."""
        return self.instrumentation

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
        hops = Welford()
        duty = Welford()
        originated = forwarded = delivered = 0
        unreachable = no_route = 0
        fault_drops = overflow_drops = 0
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
            overflow_drops += stats.overflow_drops
            arq_retries += stats.arq_retries
            arq_giveups += stats.arq_giveups
            delays.extend(stats.delivery_delays)
            duty.add(station.duty_cycle(elapsed) if elapsed > 0 else 0.0)
            peak_busy = max(peak_busy, station.bank.peak_busy)
            rejections += station.bank.rejections
        transmissions = sum(s.stats.sent for s in self.stations)
        # Mean hop count over end-to-end deliveries.
        hop_counts = [
            record.data["hops"]
            for record in self.instrumentation.of_kind("delivered")
        ]
        hops.extend(hop_counts)
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
            mean_hops=hops.mean,
            mean_duty_cycle=duty.mean,
            max_duty_cycle=duty.maximum,
            peak_despreader_busy=peak_busy,
            despreader_rejections=rejections,
            unreachable_drops=unreachable,
            no_route_drops=no_route,
            fault_drops=fault_drops,
            overflow_drops=overflow_drops,
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
        if self.clocks is None:
            raise RuntimeError(
                "this network was constructed without clock state; "
                "clock faults need a build_network-assembled network"
            )
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
        # the old clock) are re-derived — unless it is mid-burst, where
        # it re-plans after the burst anyway and an interrupt would
        # orphan the keyed transmitter.
        process = self._mac_processes.get(index)
        if (
            process is not None
            and process.is_alive
            and not self.medium.is_station_transmitting(index)
        ):
            process.interrupt("clock_step")
            self._spawn_mac(index)

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
        if self.clocks is None or self.clock_models is None:
            raise RuntimeError(
                "this network was constructed without clock state; "
                "re-acquisition needs a build_network-assembled network"
            )
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
            for when in sample_times:
                model.add_sample(
                    exchange_readings(
                        self.clocks[a],
                        self.clocks[b],
                        when,
                        jitter=self.config.rendezvous_jitter,
                        rng=rng,
                    )
                )
            self.stations[a].learn_neighbor_clock(b, self.schedule, model)
            self.clock_models[(a, b)] = model
            new_pairs += 1
        # 2. Routes around the live geometry (and any dead stations).
        self.reroute()
        # 3. Power control re-aimed at observed gains.
        max_power = 2.0 * self.config.target_delivered_w / self.budget.min_gain
        for station in self.stations:
            station.replace_power_lookup(
                _make_power_lookup(
                    matrix.gains,
                    station.index,
                    self.config.target_delivered_w,
                    max_power,
                )
            )
        # 4. Courtesy sets against the live geometry (needs step 1:
        # protected neighbours must have clock models).
        if self.config.respect_neighbors:
            _install_avoid_views(
                self.stations, matrix, censored, self.budget, self.config
            )
        # 5. Kick schedule-driven MACs, same rules as apply_clock_step:
        # never mid-burst (the interrupt would orphan the transmitter).
        kicked = 0
        for station in self.stations:
            if not station.mac.replan_on_reconverge:
                continue
            process = self._mac_processes.get(station.index)
            if (
                process is not None
                and process.is_alive
                and not self.medium.is_station_transmitting(station.index)
            ):
                process.interrupt("reconverge")
                self._spawn_mac(station.index)
                kicked += 1
        return {"new_pairs": new_pairs, "kicked": kicked}

    def refit_clock_models(self, index: int, rng) -> None:
        """Re-fit every neighbour clock model involving ``index``.

        The Section 7 recovery: after a clock fault the affected pairs
        rendezvous afresh.  Each involved model is reset (pre-fault
        samples describe a dead affine relation) and refilled with
        ``rendezvous_count`` exchanges over the recent past.
        """
        if self.clocks is None or self.clock_models is None:
            raise RuntimeError(
                "this network was constructed without clock state; "
                "clock faults need a build_network-assembled network"
            )
        now = self.env.now
        sample_times = [
            now - k * 0.5 * self.budget.slot_time
            for k in range(self.config.rendezvous_count)
        ]
        for (a, b), model in self.clock_models.items():
            if a != index and b != index:
                continue
            model.reset()
            for when in sample_times:
                model.add_sample(
                    exchange_readings(
                        self.clocks[a],
                        self.clocks[b],
                        when,
                        jitter=self.config.rendezvous_jitter,
                        rng=rng,
                    )
                )


def _calibrate(
    matrix: PropagationMatrix,
    tables: Dict[int, RoutingTable],
    config: NetworkConfig,
    min_gain: float,
) -> LinkBudget:
    """The Section 6 link-budget calibration described in the module
    docstring: from geometry and routes to a fixed design rate."""
    gains = matrix.gains
    count = matrix.count
    target = config.target_delivered_w

    # g_hat[j]: station j's weakest link it may transmit on, i.e. its
    # highest power-controlled level is target / g_hat[j].  By default
    # only routing next hops count; with calibrate_all_links every
    # hearable link does (control protocols may unicast to any
    # neighbour).
    g_hat = np.full(count, min_gain)
    if not config.calibrate_all_links:
        for station, table in tables.items():
            used = table.neighbors_in_use()
            if used:
                g_hat[station] = min(gains[hop, station] for hop in used)
    peak_power = target / g_hat  # per-station worst-case radiated power

    # Worst-case aggregate interference bound at each receiver.
    raw_bounds = gains @ peak_power  # I_max[n] = sum_j G[n,j] * P_j
    if config.respect_neighbors:
        # Contributors above the avoid threshold must stay out of the
        # victim's receive windows, capping their in-window contribution.
        cap = config.avoid_fraction * raw_bounds[:, None]
        contributions = gains * peak_power[None, :]
        bounds = np.minimum(contributions, cap).sum(axis=1)
    else:
        bounds = raw_bounds

    thermal = config.thermal_fraction * float(bounds.min())
    worst = float(bounds.max()) + thermal
    threshold = target / (config.safety_margin * worst)
    data_rate = shannon_capacity(config.bandwidth_hz, threshold / config.beta)
    # Consistency: required_sir(data_rate, W, beta) == threshold.
    assert math.isclose(
        required_sir(data_rate, config.bandwidth_hz, config.beta),
        threshold,
        rel_tol=1e-9,
    )
    airtime = config.packet_size_bits / data_rate
    slot_time = airtime / config.packet_slot_fraction
    processing_gain_db = 10.0 * math.log10(config.bandwidth_hz / data_rate)
    return LinkBudget(
        sir_threshold=threshold,
        data_rate_bps=data_rate,
        slot_time=slot_time,
        packet_airtime=airtime,
        min_gain=min_gain,
        interference_bounds=bounds,
        thermal_noise_w=thermal,
        processing_gain_db=processing_gain_db,
        target_delivered_w=target,
    )


def build_network(
    placement: Placement,
    config: Optional[NetworkConfig] = None,
    model: Optional[PropagationModel] = None,
    mac: Union[str, MacFactory, None] = None,
    trace: bool = False,
    instrumentation: Optional[Instrumentation] = None,
    mac_factory: Optional[MacFactory] = None,
) -> Network:
    """Assemble a ready-to-run network.

    Args:
        placement: station positions.
        config: network configuration (defaults throughout).
        model: propagation model (free space by default, per the paper).
        mac: which channel access scheme to run — a registered MAC name
            (see :func:`repro.mac.mac_names`) or an explicit
            ``(index, budget) -> MacProtocol`` factory for schemes that
            need whole-network context (e.g. TDMA's global slot plan).
            Defaults to the paper's scheme with a guard derived from
            the slot time.  Selecting a registered name also installs
            the descriptor's receiver model on every despreader bank
            unless ``config.receiver_model`` overrides it.
        trace: keep an in-memory event trace queryable via
            ``network.trace`` (adds a memory sink if none is present).
        instrumentation: explicit typed-event facade.  Sinks from this
            argument, from ``config.instrumentation`` and from the
            ambient :func:`repro.obs.use_instrumentation` default are
            all folded into the network's facade; with none of the
            three (and ``trace=False``) instrumentation is disabled and
            zero-cost.
        mac_factory: deprecated alias for passing a factory as ``mac``.
    """
    config = config or NetworkConfig()
    if mac_factory is not None:
        if mac is not None:
            raise ValueError(
                "pass either mac= or the deprecated mac_factory=, not both"
            )
        warnings.warn(
            "mac_factory= is deprecated; pass the factory (or a "
            "registered MAC name) as mac=",
            DeprecationWarning,
            stacklevel=2,
        )
        mac = mac_factory
    instr = _resolve_instrumentation(instrumentation, config, trace)
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
        key=config.schedule_key,
    )

    clock_rng = streams.stream("clocks")
    clocks = [
        random_clock(
            clock_rng,
            offset_span=config.clock_offset_span_slots * budget.slot_time,
            rate_error_ppm=config.clock_rate_error_ppm,
        )
        for _ in range(placement.count)
    ]

    stations: List[Station] = []
    count = placement.count
    thresholds = np.full(count, budget.sir_threshold)
    if config.medium_sparse_cull is not None:
        medium_gains = matrix.to_sparse(
            cull_gain=config.medium_sparse_cull * min_gain,
            horizon_m=mutual_radio_horizon_m(
                DEFAULT_ANTENNA_HEIGHT_M, DEFAULT_ANTENNA_HEIGHT_M
            ),
            distances=placement.distances(),
        )
    else:
        medium_gains = matrix.gains
    medium = Medium(
        env=env,
        gains=medium_gains,
        thermal_noise_w=budget.thermal_noise_w,
        sir_thresholds=thresholds,
        listen_query=lambda index, now: stations[index].mac.is_listening(now),
        channel_query=lambda index: stations[index].bank,
        instrumentation=instr,
        resync_events=config.medium_resync_events,
    )

    guard = config.guard_fraction * budget.slot_time
    max_power = 2.0 * config.target_delivered_w / min_gain

    def default_factory(_index: int, _budget: LinkBudget) -> MacProtocol:
        return ShepardMac(guard=guard)

    descriptor = None
    if isinstance(mac, str):
        from repro.mac.registry import get_mac
        from repro.mac.registry import mac_factory as registry_factory

        descriptor = get_mac(mac)
        factory = registry_factory(mac, streams) or default_factory
    else:
        factory = mac or default_factory

    receiver_model_name = config.receiver_model
    if receiver_model_name is None and descriptor is not None:
        receiver_model_name = descriptor.receiver_model
    # One shared frozen model instance serves every bank (stateless).
    bank_model = (
        build_receiver_model(receiver_model_name)
        if receiver_model_name is not None
        else None
    )

    delays = None
    if config.model_propagation_delay:
        from repro.radio.antenna import SPEED_OF_LIGHT

        delays = placement.distances() / SPEED_OF_LIGHT

    for index in range(count):
        gains_to_hops = matrix.gains
        power_lookup = _make_power_lookup(
            gains_to_hops, index, config.target_delivered_w, max_power
        )
        delay_lookup = None
        if delays is not None:
            delay_lookup = _make_delay_lookup(delays, index)
        queue: TransmitQueue = (
            FifoQueue(capacity=config.queue_capacity)
            if config.fifo_queues
            else NeighborQueues(capacity=config.queue_capacity)
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
        arq_policy = ArqConfig(
            max_retries=config.arq_max_retries,
            timeout_slots=config.arq_timeout_slots,
            backoff_slots=config.arq_backoff_slots,
        )
        for station in stations:
            station.install_arq(
                ArqSublayer(station, arq_policy, budget.slot_time)
            )

    network = Network(
        env=env,
        placement=placement,
        matrix=matrix,
        stations=stations,
        medium=medium,
        budget=budget,
        tables=tables,
        config=config,
        instrumentation=instr,
    )
    # Retain the clock state the fault machinery needs: clock faults
    # replace entries of ``clocks`` in place and re-fit ``models``.
    network.schedule = schedule
    network.clocks = clocks
    network.clock_models = models
    network.propagation_model = model
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
    config: NetworkConfig,
    trace: bool,
) -> Instrumentation:
    """Fold every instrumentation source into one facade.

    Sources, outermost first: the explicit ``build_network`` argument,
    ``config.instrumentation``, and the ambient
    :func:`repro.obs.use_instrumentation` default.  A single source is
    used as-is (the caller keeps querying its own sinks); multiple
    sources compose into a fresh facade sharing all their sinks.  With
    ``trace=True`` a memory sink is guaranteed so ``network.trace``
    queries work.
    """
    sources = [
        source
        for source in (explicit, config.instrumentation, ambient_instrumentation())
        if source is not None
    ]
    if not sources:
        instr = (
            Instrumentation.recording() if trace else Instrumentation()
        )
    elif len(sources) == 1:
        instr = sources[0]
    else:
        instr = Instrumentation(
            tuple(sink for source in sources for sink in source.sinks)
        )
    if trace and instr.memory is None:
        instr.add_sink(MemorySink())
    return instr


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
            model.add_sample(
                exchange_readings(
                    clocks[a], clocks[b], env.now, jitter=jitter, rng=rng
                )
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
) -> Dict:
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
    models: Dict = {}
    hearable_a, hearable_b = np.nonzero(censored.gains > 0.0)
    for a, b in zip(hearable_a.tolist(), hearable_b.tolist()):
        model = NeighborClockModel()
        for when in sample_times:
            model.add_sample(
                exchange_readings(
                    clocks[a],
                    clocks[b],
                    when,
                    jitter=config.rendezvous_jitter,
                    rng=jitter_rng,
                )
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
    ``avoid_fraction`` of its interference bound gets its receive
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
                if contribution > config.avoid_fraction * raw_bounds[neighbor]:
                    station.neighbor_view(neighbor)  # must have a model
                    protected.append(neighbor)
            station.set_avoid_neighbors(next_hop, protected)
