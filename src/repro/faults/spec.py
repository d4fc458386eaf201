"""Declarative fault specifications and their seed-tree compilation.

A fault run is described twice.  The *declarative* layer
(:class:`StationCrash`, :class:`StationChurn`, :class:`LinkFade`,
:class:`ClockStep`, :class:`PacketCorruption`) says what kind of
trouble the network is subjected to; the *concrete* layer
(:class:`FaultPlan`, a sorted tuple of :class:`FaultEvent`) says
exactly which station fails when, which link fades by how much, and
which RNG seed each stochastic handler uses.

:func:`compile_plan` bridges the two.  Every random draw — churn crash
instants, which station a churn event hits, downtimes — comes from
``numpy`` generators seeded via :func:`repro.parallel.seedtree.
derive_seed`, so a plan is a pure function of ``(specs, seed,
station_count)``: bit-identical across processes, worker counts, and
platforms, exactly like the experiment seeds themselves (reprolint
REP009 enforces this discipline for all fault modules).

All times are in *slots* (the natural schedule unit); the injector
converts to global seconds through the built network's slot time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.parallel.seedtree import derive_seed

__all__ = [
    "StationCrash",
    "StationChurn",
    "LinkFade",
    "ClockStep",
    "PacketCorruption",
    "FaultSpec",
    "FaultEvent",
    "FaultPlan",
    "compile_plan",
]


def _require_finite(spec: Any) -> None:
    """Reject a NaN or infinite number in any field of a spec (``None``
    still means "no end").  The range checks in ``__post_init__`` are
    comparisons, which NaN passes silently, and an infinite end never
    lets a sampling loop finish."""
    for item in fields(spec):
        value = getattr(spec, item.name)
        if isinstance(value, (int, float)) and not math.isfinite(value):
            raise ValueError(f"{item.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class StationCrash:
    """One explicit crash (and optional recovery) of one station.

    Attributes:
        station: the station that goes down.
        at_slot: crash instant, in slots from the start of the run.
        recover_after_slots: downtime; ``None`` means the station never
            comes back.
    """

    station: int
    at_slot: float
    recover_after_slots: Optional[float] = None

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.at_slot <= 0.0:
            raise ValueError("a crash must happen strictly after the start")
        if self.recover_after_slots is not None and self.recover_after_slots <= 0.0:
            raise ValueError("downtime must be positive")


@dataclass(frozen=True)
class StationChurn:
    """A Poisson churn episode: stations crash and recover at random.

    Crash instants form a Poisson process of ``rate_per_slot`` over
    ``[start_slot, end_slot)``; each crash hits a uniformly chosen
    eligible station (never one already down) and lasts an
    exponentially distributed downtime with the given mean.

    Attributes:
        rate_per_slot: expected crashes per slot over the episode.
        start_slot: episode start (slots).
        end_slot: episode end (slots); crashes sample strictly before it.
        mean_downtime_slots: mean of the exponential downtime.
        stations: the candidate pool (default: every station).
    """

    rate_per_slot: float
    start_slot: float
    end_slot: float
    mean_downtime_slots: float
    stations: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.rate_per_slot <= 0.0:
            raise ValueError("churn rate must be positive")
        if self.start_slot <= 0.0:
            raise ValueError("churn must start strictly after the run begins")
        if self.end_slot <= self.start_slot:
            raise ValueError("churn episode must have positive length")
        if self.mean_downtime_slots <= 0.0:
            raise ValueError("mean downtime must be positive")
        if self.stations is not None and not self.stations:
            raise ValueError("an explicit station pool must be non-empty")


@dataclass(frozen=True)
class LinkFade:
    """A fade episode scaling one gain-matrix entry.

    The medium's private gain copy is scaled by ``gain_factor`` for the
    duration, then restored to nominal.  Power control keeps aiming at
    the *nominal* gain — a fade degrades delivered SIR, it is not
    silently compensated; that is the point.

    Attributes:
        receiver: receiving side of the faded link.
        source: transmitting side.
        at_slot: fade onset (slots).
        duration_slots: episode length.
        gain_factor: multiplier on the nominal gain (0 < f; < 1 fades).
        symmetric: also fade the reverse direction (real obstructions
            attenuate both ways).
    """

    receiver: int
    source: int
    at_slot: float
    duration_slots: float
    gain_factor: float
    symmetric: bool = True

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.receiver == self.source:
            raise ValueError("a link needs two distinct stations")
        if self.at_slot <= 0.0:
            raise ValueError("a fade must start strictly after the start")
        if self.duration_slots <= 0.0:
            raise ValueError("fade duration must be positive")
        if self.gain_factor <= 0.0:
            raise ValueError("gain factor must be positive")


@dataclass(frozen=True)
class ClockStep:
    """A clock fault: the oscillator steps (and may change rate).

    The station's clock jumps by ``offset_slots`` at ``at_slot`` —
    every neighbour's fitted model of it (and its models of them) are
    suddenly wrong, so the station misses published windows until the
    Section 7 rendezvous machinery re-fits the affected models
    ``refit_after_slots`` later.

    Attributes:
        station: whose clock faults.
        at_slot: fault instant (slots).
        offset_slots: step applied to the clock reading, in slots.
        rate_error_delta_ppm: additional rate error, parts per million.
        refit_after_slots: delay before the affected neighbour pairs
            re-exchange readings and refit (detection latency).
    """

    station: int
    at_slot: float
    offset_slots: float
    rate_error_delta_ppm: float = 0.0
    refit_after_slots: float = 5.0

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.at_slot <= 0.0:
            raise ValueError("a clock step must happen after the start")
        if self.offset_slots == 0.0 and self.rate_error_delta_ppm == 0.0:
            raise ValueError("a clock fault must change offset or rate")
        if self.refit_after_slots <= 0.0:
            raise ValueError("refit delay must be positive")


@dataclass(frozen=True)
class PacketCorruption:
    """An episode during which receptions are independently corrupted.

    Models bursty decoder-level damage (impulse noise, partial jamming)
    the SIR criterion cannot see: each otherwise-successful reception
    inside the episode is lost with the given probability, drawn from a
    seed-tree-derived stream.

    Attributes:
        at_slot: episode start (slots).
        duration_slots: episode length.
        probability: per-reception corruption probability.
    """

    at_slot: float
    duration_slots: float
    probability: float

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.at_slot <= 0.0:
            raise ValueError("corruption must start after the start")
        if self.duration_slots <= 0.0:
            raise ValueError("corruption duration must be positive")
        if not 0.0 < self.probability <= 1.0:
            raise ValueError("corruption probability must be in (0, 1]")


FaultSpec = Union[StationCrash, StationChurn, LinkFade, ClockStep, PacketCorruption]

#: Concrete event kinds a compiled plan contains.
_KINDS = (
    "down",
    "up",
    "reroute",
    "fade",
    "clock_step",
    "refit",
    "corrupt_on",
    "corrupt_off",
)


@dataclass(frozen=True)
class FaultEvent:
    """One concrete, fully resolved fault action.

    Attributes:
        at_slot: when the injector applies it (slots).
        kind: one of ``down``, ``up``, ``reroute``, ``fade``,
            ``clock_step``, ``refit``, ``corrupt_on``, ``corrupt_off``.
        station: subject station (``down``/``up``/``clock_step``/
            ``refit``), or the fade receiver; -1 when inapplicable.
        peer: the fade source; -1 when inapplicable.
        value: kind-specific magnitude (fade factor, clock step in
            slots, corruption probability).
        extra: secondary magnitude (clock rate delta in ppm; 1.0 on a
            symmetric fade, 0.0 otherwise).
        seed: seed-tree-derived seed for any randomness the handler
            draws (refit jitter, corruption stream); 0 when unused.
    """

    at_slot: float
    kind: str
    station: int = -1
    peer: int = -1
    value: float = 0.0
    extra: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault event kind {self.kind!r}")
        if self.at_slot < 0.0:
            raise ValueError("fault events cannot predate the run")


@dataclass(frozen=True)
class FaultPlan:
    """A compiled, time-sorted fault schedule.

    Attributes:
        events: concrete events in application order (time, then
            compilation order for ties).
        reroute_delay_slots: detection latency between a lifecycle
            event and the routing re-derivation it triggers.
    """

    events: Tuple[FaultEvent, ...] = ()
    reroute_delay_slots: float = 2.0

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.reroute_delay_slots < 0.0:
            raise ValueError("reroute delay must be non-negative")
        ordered = tuple(
            sorted(
                self.events,
                key=lambda event: event.at_slot,
            )
        )
        object.__setattr__(self, "events", ordered)

    @property
    def is_empty(self) -> bool:
        """Whether the plan schedules nothing (zero-cost installation)."""
        return not self.events


def _expand_crash(
    crash: StationCrash, delay: float, events: List[FaultEvent]
) -> None:
    events.append(FaultEvent(at_slot=crash.at_slot, kind="down", station=crash.station))
    events.append(FaultEvent(at_slot=crash.at_slot + delay, kind="reroute"))
    if crash.recover_after_slots is not None:
        up_at = crash.at_slot + crash.recover_after_slots
        events.append(FaultEvent(at_slot=up_at, kind="up", station=crash.station))
        events.append(FaultEvent(at_slot=up_at + delay, kind="reroute"))


def _expand_churn(
    churn: StationChurn,
    index: int,
    seed: int,
    station_count: int,
    delay: float,
    events: List[FaultEvent],
) -> None:
    """Sample the churn episode into concrete crash/recover pairs.

    All draws come from one generator seeded by the spec's position in
    the spec list — deterministic, platform-independent, and oblivious
    to worker count.  A station already down at a sampled instant is
    skipped (the crash hits nothing), which keeps the down/up pairing
    well-formed without resampling loops.
    """
    rng = np.random.default_rng(derive_seed(seed, "churn", index))
    pool = (
        tuple(churn.stations)
        if churn.stations is not None
        else tuple(range(station_count))
    )
    up_times = {station: 0.0 for station in pool}
    at = churn.start_slot
    while True:
        at += float(rng.exponential(1.0 / churn.rate_per_slot))
        if at >= churn.end_slot:
            break
        station = int(pool[int(rng.integers(0, len(pool)))])
        downtime = float(rng.exponential(churn.mean_downtime_slots))
        if up_times[station] > at:
            continue  # still down from an earlier crash
        _expand_crash(
            StationCrash(
                station=station, at_slot=at, recover_after_slots=downtime
            ),
            delay,
            events,
        )
        up_times[station] = at + downtime


def compile_plan(
    specs: Sequence[FaultSpec],
    seed: int,
    station_count: int,
    reroute_delay_slots: float = 2.0,
) -> FaultPlan:
    """Compile declarative specs into a concrete :class:`FaultPlan`.

    Args:
        specs: the declarative fault specifications.
        seed: seed-tree root for every stochastic expansion.
        station_count: network size, for validation and churn pools.
        reroute_delay_slots: detection latency before each lifecycle
            event's routing re-derivation.
    """
    if station_count < 1:
        raise ValueError("need at least one station")
    events: List[FaultEvent] = []
    for index, spec in enumerate(specs):
        if isinstance(spec, StationCrash):
            _check_station(spec.station, station_count)
            _expand_crash(spec, reroute_delay_slots, events)
        elif isinstance(spec, StationChurn):
            if spec.stations is not None:
                for station in spec.stations:
                    _check_station(station, station_count)
            _expand_churn(
                spec, index, seed, station_count, reroute_delay_slots, events
            )
        elif isinstance(spec, LinkFade):
            _check_station(spec.receiver, station_count)
            _check_station(spec.source, station_count)
            symmetric = 1.0 if spec.symmetric else 0.0
            events.append(
                FaultEvent(
                    at_slot=spec.at_slot,
                    kind="fade",
                    station=spec.receiver,
                    peer=spec.source,
                    value=spec.gain_factor,
                    extra=symmetric,
                )
            )
            events.append(
                FaultEvent(
                    at_slot=spec.at_slot + spec.duration_slots,
                    kind="fade",
                    station=spec.receiver,
                    peer=spec.source,
                    value=1.0,
                    extra=symmetric,
                )
            )
        elif isinstance(spec, ClockStep):
            _check_station(spec.station, station_count)
            events.append(
                FaultEvent(
                    at_slot=spec.at_slot,
                    kind="clock_step",
                    station=spec.station,
                    value=spec.offset_slots,
                    extra=spec.rate_error_delta_ppm,
                )
            )
            events.append(
                FaultEvent(
                    at_slot=spec.at_slot + spec.refit_after_slots,
                    kind="refit",
                    station=spec.station,
                    seed=derive_seed(seed, "refit", index, spec.station),
                )
            )
        elif isinstance(spec, PacketCorruption):
            events.append(
                FaultEvent(
                    at_slot=spec.at_slot,
                    kind="corrupt_on",
                    value=spec.probability,
                    seed=derive_seed(seed, "corruption", index),
                )
            )
            events.append(
                FaultEvent(
                    at_slot=spec.at_slot + spec.duration_slots,
                    kind="corrupt_off",
                )
            )
        else:
            raise TypeError(f"unknown fault spec {type(spec).__name__}")
    return FaultPlan(
        events=tuple(events), reroute_delay_slots=reroute_delay_slots
    )


def _check_station(station: int, station_count: int) -> None:
    if not 0 <= station < station_count:
        raise ValueError(
            f"station {station} out of range for a {station_count}-station network"
        )
