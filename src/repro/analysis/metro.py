"""Metro-scale performance: the abstract's projection, and a runnable
metro scene (experiment T8).

The abstract's claim: "with a modest fraction of the radio spectrum,
pessimistic assumptions about propagation resulting in maximum-possible
self-interference, and an optimistic view of future signal processing
capabilities ... a self-organizing packet radio network may scale to
millions of stations within a metro area with raw per-station rates in
the hundreds of megabits per second."

:class:`MetroProjection` walks that arithmetic end to end: Section 4's
SNR at scale, the Section 6 margins, Shannon back to a rate per hertz,
times the allotted bandwidth, times the per-station transmit share.

:func:`build_metro_scene` / :func:`run_metro_scene` then put a large
slice of that claim on the simulator: a fixed-density uniform disk of
up to 10^5+ stations whose gain structure is built in cache-sized tiles,
one gain per station pair and never an O(M^2) array, into a
horizon-culled :class:`~repro.propagation.sparse.SparseGainField`,
driven through the real :class:`~repro.net.medium.Medium` physics with
the paper's hashed transmit/receive schedules and per-station clock
offsets.  The link budget is calibrated against the sparse field's
*culling-inclusive* interference bound, so the zero-collision outcome
survives the approximation by construction.  The calibration is the
network's own :func:`~repro.net.network.design_budget`; the scene
reads the design constants of :mod:`repro.net.network` and a default
:class:`~repro.net.network.NetworkConfig` for the values a caller may
vary, so a metro scene and a ``Network`` design the same system.
Everything here is wall-clock-free; the benchmark under ``perf/`` owns
the timing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.analysis.capacity import spectral_efficiency
from repro.core.access import (
    NoTransmitWindowError,
    ScheduleView,
    find_transmit_window,
)
from repro.core.noise import snr_nearest_neighbor
from repro.core.schedule import Schedule
from repro.net.medium import Medium
from repro.net.network import (
    CLOCK_OFFSET_SPAN_SLOTS,
    PACKET_SIZE_BITS,
    SCHEDULE_KEY,
    TARGET_DELIVERED_W,
    LinkBudget,
    NetworkConfig,
    design_budget,
    power_cap_w,
)
from repro.net.packet import Packet
from repro.propagation.geometry import Placement, uniform_disk
from repro.propagation.horizon import (
    DEFAULT_ANTENNA_HEIGHT_M,
    mutual_radio_horizon_m,
)
from repro.propagation.models import FreeSpace
from repro.propagation.sparse import SparseGainField
from repro.radio.signal import linear_to_db
from repro.radio.spreadspectrum import DespreaderBank
from repro.radio.thermal import thermal_noise_power
from repro.sim.engine import Environment
from repro.sim.streams import RandomStreams

__all__ = [
    "MetroProjection",
    "MetroScene",
    "MetroRunResult",
    "build_metro_scene",
    "run_metro_scene",
    "LEGACY_SCENE_DENSITY",
]

#: Station density of the repository's standard simulation scene (500
#: stations in a 1 km-radius disk), reused at metro scale so that
#: larger populations mean a *larger city*, not a denser one — exactly
#: the paper's fixed-rho scaling argument.
LEGACY_SCENE_DENSITY = 500.0 / (math.pi * 1000.0**2)

# The four values a caller may vary that the metro scene reads (reach
# factor, receive fraction, guard and despreader channels): the defaults
# a ``Network`` is built with, so both drivers design the same system.
_DESIGN = NetworkConfig()


@dataclass(frozen=True)
class MetroProjection:
    """Projected performance of a metro-scale deployment.

    The defaults instantiate the abstract's optimistic case: beta = 1
    ("an optimistic view of future signal processing capabilities" —
    detection at the Shannon bound) and no reach margin (rate quoted at
    the characteristic hop), with 1 GHz of spectrum ("a modest fraction"
    of the tens of GHz usable at microwave).  The conservative variant
    (beta = 3, one reach doubling) is what the benches also report.

    Attributes:
        station_count: stations in the metro interference circle.
        bandwidth_hz: spectrum allotted to the system.
        duty_cycle: average transmit duty cycle eta.
        beta: detection margin above the Shannon bound (linear).
        reach_doublings: hop-reach margin beyond the characteristic
            distance (Section 6 budgets one doubling).
    """

    station_count: float = 1e6
    bandwidth_hz: float = 1e9
    duty_cycle: float = 0.35
    beta: float = 1.0
    reach_doublings: float = 0.0

    def __post_init__(self) -> None:
        # Each check is written so that NaN fails it.
        if not math.e < self.station_count < math.inf:
            raise ValueError("projection needs a finite M > e")
        if not 0.0 < self.bandwidth_hz < math.inf:
            raise ValueError("bandwidth must be positive and finite")
        if not 0.0 < self.duty_cycle <= 1.0:
            raise ValueError("duty cycle must be in (0, 1]")
        if not 1.0 <= self.beta < math.inf:
            raise ValueError("beta must be finite and >= 1")
        if not 0.0 <= self.reach_doublings < math.inf:
            raise ValueError("reach doublings must be non-negative and finite")

    @property
    def snr(self) -> float:
        """Section 4 SNR at the characteristic hop distance."""
        return snr_nearest_neighbor(self.station_count, self.duty_cycle)

    @property
    def worst_case_snr(self) -> float:
        """SNR at the farthest design neighbour, after margins.

        Divides by beta (detection margin) and by 4 per reach doubling
        (6 dB each), leaving the SNR the rate must be designed for.
        """
        return self.snr / (self.beta * 4.0**self.reach_doublings)

    @property
    def raw_rate_bps(self) -> float:
        """Raw link rate while transmitting (the 'hundreds of Mb/s')."""
        return self.bandwidth_hz * spectral_efficiency(self.worst_case_snr)

    @property
    def sustained_rate_bps(self) -> float:
        """Long-run per-station send rate: raw rate times duty cycle."""
        return self.raw_rate_bps * self.duty_cycle

    @property
    def aggregate_rate_bps(self) -> float:
        """Simultaneous network-wide send rate across all stations.

        This is the spatial-reuse payoff: every station's sustained
        rate counts because the interference of everyone transmitting
        is already in the SNR.
        """
        return self.sustained_rate_bps * self.station_count

    @property
    def processing_gain_db(self) -> float:
        """Spreading ratio implied by the design rate."""
        efficiency = spectral_efficiency(self.worst_case_snr)
        if efficiency <= 0.0:
            return math.inf
        return 10.0 * math.log10(1.0 / efficiency)

    def thermal_noise_check(
        self, area_km2: float = 1000.0, transmit_power_w: float = 1.0
    ) -> float:
        """Ratio of aggregate interference to thermal noise at a receiver.

        Section 4 ignores thermal noise on the grounds that the
        interference din dominates; this returns by how many dB it does
        for a concrete physical instantiation (free-space constant from
        a 1 GHz carrier, unity-gain antennas).
        """
        from repro.radio.antenna import friis_constant

        if area_km2 <= 0.0 or transmit_power_w <= 0.0:
            raise ValueError("area and power must be positive")
        density = self.station_count / (area_km2 * 1e6)
        alpha = friis_constant(1e9)
        # Eq. 11-13 with physical units: N = pi eta rho alpha P ln M.
        interference = (
            math.pi
            * self.duty_cycle
            * density
            * alpha
            * transmit_power_w
            * math.log(self.station_count)
        )
        thermal = thermal_noise_power(self.bandwidth_hz)
        return linear_to_db(interference / thermal)

    def summary(self) -> dict:
        """All projection lines as a dict (for the T8 bench rows)."""
        return {
            "station_count": self.station_count,
            "bandwidth_mhz": self.bandwidth_hz / 1e6,
            "duty_cycle": self.duty_cycle,
            "snr_db": linear_to_db(self.snr),
            "design_snr_db": linear_to_db(self.worst_case_snr),
            "processing_gain_db": self.processing_gain_db,
            "raw_rate_mbps": self.raw_rate_bps / 1e6,
            "sustained_rate_mbps": self.sustained_rate_bps / 1e6,
            "aggregate_rate_gbps": self.aggregate_rate_bps / 1e9,
        }


@dataclass(frozen=True)
class MetroScene:
    """A built, calibrated metro-scale scene, ready to simulate.

    Construction never materialises an O(M^2) array: the gain structure
    is built into a CSR sparse field in cache-sized tiles, holding
    O(nnz) output plus O(chunk x tile) transient memory, and the link
    budget is calibrated against that field.  The exact culled account
    still costs Theta(M^2) pair work while the horizon covers the city.
    The scene's design values (bandwidth, margins, packet, schedule,
    noise) are :mod:`repro.net.network`'s constants, and its reach,
    receive fraction, guard and despreader channels a default
    :class:`~repro.net.network.NetworkConfig`'s.

    Attributes:
        placement: station positions (fixed legacy density by default).
        gain_field: horizon-culled CSR gains with error accounting.
        nearest: per-station strongest-gain neighbour (the traffic
            destination; under a monotone path loss, also the nearest).
        powers: per-station transmit power (power-controlled to deliver
            the target power at the nearest neighbour, capped).
        budget: the Section 6 link budget, calibrated by
            :func:`~repro.net.network.design_budget` against the
            culling-inclusive interference bound: the SIR threshold,
            design rate, slot, packet airtime and thermal noise floor.
        clock_offsets: per-station clock offsets (local = global +
            offset); spanning many slots decorrelates schedules (§7.1).
        seed: the build seed (placement and clocks derive from it).
    """

    placement: Placement
    gain_field: SparseGainField
    nearest: np.ndarray
    powers: np.ndarray
    budget: LinkBudget
    clock_offsets: np.ndarray
    seed: int

    @property
    def station_count(self) -> int:
        """Number of stations M."""
        return self.placement.count

    def schedule(self) -> Schedule:
        """The shared hashed transmit/receive schedule."""
        return Schedule(
            slot_time=self.budget.slot_time,
            receive_fraction=_DESIGN.receive_fraction,
            key=SCHEDULE_KEY,
        )

    def summary(self) -> Dict[str, float]:
        """Key scene figures for reports and bench notes."""
        sizes = self.gain_field.column_sizes()
        return {
            "stations": float(self.station_count),
            "region_radius_m": float(self.placement.region_radius),
            "density_per_m2": float(self.placement.density),
            "nnz": float(self.gain_field.nnz),
            "mean_interferers": float(sizes.mean()) if sizes.size else 0.0,
            "max_interferers": float(sizes.max()) if sizes.size else 0.0,
            "csr_memory_mb": self.gain_field.memory_bytes / 1e6,
            "dense_memory_mb": 8.0 * self.station_count**2 / 1e6,
            "sir_threshold_db": linear_to_db(self.budget.sir_threshold),
            "data_rate_bps": self.budget.data_rate_bps,
            "slot_time_s": self.budget.slot_time,
        }


@dataclass(frozen=True)
class MetroRunResult:
    """Outcome of one simulated metro run.

    Attributes:
        stations: network size M.
        duration_slots: simulated horizon in slots.
        offered_packets: Poisson arrivals drawn over the horizon.
        transmitted: packets that found a joint schedule window and
            went on the air before the horizon.
        unscheduled: arrivals that could not start before the horizon
            (backlog carried past the end; not losses).
        deliveries: successful receptions (medium-verified SIR).
        losses_total: lost transmissions.
        losses_by_reason: loss tally per mechanical reason.
        events: simulation events processed (the perf work unit).
        max_field_error_bound_w: largest value of the medium's
            provable sparse-culling error bound observed at any
            transmission start — the witness that the approximation
            stayed within its accounted budget.
        digest: replay digest (only under the determinism sanitizer).
    """

    stations: int
    duration_slots: float
    offered_packets: int
    transmitted: int
    unscheduled: int
    deliveries: int
    losses_total: int
    losses_by_reason: Dict[str, int]
    events: int
    max_field_error_bound_w: float
    digest: Optional[str]

    @property
    def collision_free(self) -> bool:
        """Whether every transmitted packet was delivered."""
        return self.losses_total == 0


def build_metro_scene(
    station_count: int,
    seed: int = 7,
    density: float = LEGACY_SCENE_DENSITY,
    cull_fraction: float = 0.02,
) -> MetroScene:
    """Build a metro scene at fixed density, straight from geometry.

    The disk radius grows as ``sqrt(M / (pi * density))`` so the
    population scales the city, not the crowding; at ~14 km radius
    (10^5 stations at legacy density) the mutual radio horizon starts
    culling cross-city links exactly as Section 4 describes.

    Culling: links weaker than ``cull_fraction`` times the gain at the
    characteristic length are dropped from the CSR structure but
    accounted, and links beyond the mutual radio horizon are zeroed as
    physics.  The link budget below calibrates the SIR threshold
    against :meth:`SparseGainField.interference_bound_w`, which charges
    for the culled mass — so a zero-loss run is sound evidence, not an
    artifact of dropped interference.
    """
    # Each check is written so that NaN fails it: a NaN cull fraction
    # would keep every link.
    if station_count < 2:
        raise ValueError("a metro scene needs at least two stations")
    if not 0.0 < density < math.inf:
        raise ValueError("density must be positive and finite")
    if not 0.0 <= cull_fraction < math.inf:
        raise ValueError("cull fraction must be non-negative and finite")
    radius = math.sqrt(station_count / (math.pi * density))
    placement = uniform_disk(station_count, radius=radius, seed=seed)
    model = FreeSpace(near_field_clamp=1e-6)
    characteristic = placement.characteristic_length
    cull_gain = cull_fraction * float(model.power_gain(characteristic))
    horizon = mutual_radio_horizon_m(DEFAULT_ANTENNA_HEIGHT_M, DEFAULT_ANTENNA_HEIGHT_M)
    gain_field = SparseGainField.from_placement(
        placement, model, cull_gain=cull_gain, horizon_m=horizon
    )

    # Traffic sink and power control: each station talks to its
    # strongest stored neighbour.  Free space is monotone in distance,
    # so argmax gain == nearest station.
    sizes = gain_field.column_sizes()
    if not sizes.all():
        station = int(np.argmin(sizes))
        raise ValueError(
            f"station {station} has no stored neighbours; the cull "
            "threshold is too aggressive for this density"
        )
    # Segment maximum per column, then its first occurrence, as argmax.
    starts = gain_field.indptr[:-1]
    strongest = np.maximum.reduceat(gain_field.vals, starts)
    hits = np.flatnonzero(gain_field.vals == np.repeat(strongest, sizes))
    best = hits[np.searchsorted(hits, starts)]
    nearest = gain_field.rows[best].astype(np.intp)
    gain_to_nearest = gain_field.vals[best]

    # Section 6 power control under the network builder's cap.
    min_gain = float(model.power_gain(_DESIGN.reach_factor * characteristic))
    max_power = power_cap_w(min_gain)
    powers = np.minimum(TARGET_DELIVERED_W / gain_to_nearest, max_power)

    # Link budget against the culling-inclusive worst case: every
    # station radiating at once, culled gains charged at peak power,
    # and the weakest delivered power as the wanted signal.
    bounds = gain_field.interference_bound_w(powers)
    delivered = powers * gain_to_nearest
    budget = design_budget(bounds, float(delivered.min()), min_gain)

    offsets_rng = RandomStreams(seed).stream("metro-clocks")
    clock_offsets = offsets_rng.uniform(
        0.0, CLOCK_OFFSET_SPAN_SLOTS * budget.slot_time, station_count
    )

    return MetroScene(
        placement=placement,
        gain_field=gain_field,
        nearest=nearest,
        powers=powers,
        budget=budget,
        clock_offsets=clock_offsets,
        seed=seed,
    )


def _offset_view(schedule: Schedule, offset: float) -> ScheduleView:
    """A station's schedule in global time through its pure clock
    offset (local = global + offset), the metro scene's clock model."""
    return ScheduleView(
        schedule, lambda local: local - offset, lambda now: now + offset
    )


def _first_joint_start(
    sender: ScheduleView,
    receiver: ScheduleView,
    earliest: float,
    airtime: float,
    guard: float,
    deadline: float,
) -> float:
    """Earliest global time >= ``earliest`` at which a burst of
    ``airtime`` fits inside the sender's transmit window AND the
    receiver's receive window, both shrunk by ``guard``: the Section 7
    search :func:`~repro.core.access.find_transmit_window`, with a
    horizon that reaches past ``deadline``.

    Returns ``inf`` when no joint window opens before ``deadline``.
    This is not just a horizon cutoff: all stations share one schedule
    function, so a pair whose clock offsets differ by less than about
    one slot has *correlated* designations (the §7.1 hazard) and may
    never open a joint window at all — the deadline is what keeps the
    search finite for such pairs.
    """
    slot_time = sender.schedule.slot_time
    search_slots = max(1, math.ceil((deadline - earliest) / slot_time) + 1)
    try:
        start = find_transmit_window(
            sender, receiver, airtime, earliest, guard, search_slots=search_slots
        )[0]
    except NoTransmitWindowError:
        return math.inf
    return start if start < deadline else math.inf


def run_metro_scene(
    scene: MetroScene,
    load: float = 0.05,
    duration_slots: float = 30.0,
    traffic_seed: int = 99,
    env: Optional[Environment] = None,
) -> MetroRunResult:
    """Simulate a metro scene under Poisson nearest-neighbour traffic.

    Arrivals are pre-drawn and pre-scheduled: for each packet the
    sender picks the earliest instant at which its own transmit window
    and the destination's receive window jointly fit the burst (the
    paper's scheme — senders consult the published schedules, nothing
    is contended).  The event loop then drives the real medium: every
    transmission pays its CSR column scatter, every in-progress
    reception is SIR-checked continuously, and losses are classified
    by the Section 5 taxonomy.  Type 3 self-jamming is impossible by
    construction (transmit and receive windows are disjoint per
    station), so a zero-loss run checks the full Section 7 claim.
    Despreader banks and the window-edge guard take the design values
    a ``Network`` takes by default.

    Args:
        scene: a built metro scene.
        load: offered load in packets per slot per station.
        duration_slots: arrival horizon in slots (transmissions that
            start before the horizon run to completion).
        traffic_seed: seed for the Poisson arrival draw.
        env: simulation environment (one is built when omitted; pass
            ``Environment(sanitize=True)`` to force the sanitizer).
    """
    # Written so that NaN and inf fail them, before the Poisson draw
    # refuses them without naming the parameter.
    if not 0.0 < load < math.inf:
        raise ValueError("load must be positive and finite")
    if not 0.0 < duration_slots < math.inf:
        raise ValueError("duration_slots must be positive and finite")
    count = scene.station_count
    budget = scene.budget
    schedule = scene.schedule()
    offsets = scene.clock_offsets.tolist()
    airtime = budget.packet_airtime
    guard = _DESIGN.guard_fraction * budget.slot_time
    horizon = duration_slots * budget.slot_time

    # Pre-draw all arrivals in one vectorised pass: per-station Poisson
    # counts, then uniform times, grouped by station and time-sorted.
    rng = RandomStreams(traffic_seed).stream("metro-traffic")
    arrivals_per_station = rng.poisson(load * duration_slots, count)
    offered = int(arrivals_per_station.sum())
    stations_of = np.repeat(np.arange(count, dtype=np.intp), arrivals_per_station)
    times = rng.uniform(0.0, horizon, offered)
    order = np.lexsort((times, stations_of))
    stations_of = stations_of[order]
    times = times[order]

    # Serialize each station's backlog through the joint-window search:
    # a packet starts no earlier than its arrival and no earlier than
    # the end of the station's previous burst.  A station's views of its
    # own schedule and its destination's serve its backlog only, so
    # their window tables are dropped with it.
    nearest = scene.nearest.tolist()
    starts = []
    sources = []
    unscheduled = 0
    current = -1
    for station, arrival in zip(stations_of.tolist(), times.tolist()):
        if station != current:
            current = station
            sender = _offset_view(schedule, offsets[station])
            receiver = _offset_view(schedule, offsets[nearest[station]])
            next_free = 0.0
        start = _first_joint_start(
            sender,
            receiver,
            max(arrival, next_free),
            airtime,
            guard,
            deadline=horizon,
        )
        if start >= horizon:
            unscheduled += 1
            continue
        next_free = start + airtime
        starts.append(start)
        sources.append(station)

    transmit_order = np.lexsort((np.asarray(sources), np.asarray(starts)))

    env = env or Environment()
    banks = [
        DespreaderBank(capacity=_DESIGN.despreader_channels) for _ in range(count)
    ]
    medium = Medium(
        env=env,
        gains=scene.gain_field,
        thermal_noise_w=budget.thermal_noise_w,
        sir_thresholds=np.full(count, budget.sir_threshold),
        listen_query=lambda station, now: schedule.is_receiving_at(
            now + offsets[station]
        ),
        channel_query=lambda station: banks[station],
    )

    powers = scene.powers.tolist()
    max_bound = 0.0

    def driver():
        nonlocal max_bound
        for index in transmit_order.tolist():
            start = starts[index]
            source = sources[index]
            destination = nearest[source]
            if start > env.now:
                yield env.timeout(start - env.now)
            medium.transmit(
                source,
                destination,
                Packet(
                    source=source,
                    destination=destination,
                    size_bits=PACKET_SIZE_BITS,
                    created_at=env.now,
                ),
                powers[source],
                airtime,
            )
            bound = medium.field_error_bound_w()
            if bound > max_bound:
                max_bound = bound

    env.process(driver())
    env.run(until=None)

    return MetroRunResult(
        stations=count,
        duration_slots=duration_slots,
        offered_packets=offered,
        transmitted=len(starts),
        unscheduled=unscheduled,
        deliveries=medium.deliveries,
        losses_total=len(medium.losses),
        losses_by_reason=medium.loss_counts_by_reason(),
        events=env.events_processed,
        max_field_error_bound_w=max_bound,
        digest=env.replay_digest() if env.sanitizing else None,
    )
