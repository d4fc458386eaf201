"""Typed trace events: the observability layer's vocabulary.

Every observable occurrence in a run — a burst starting, a reception
failing with its SIR reason, a packet entering a queue, a fault being
injected — is one frozen dataclass here.  Each event type carries a
stable ``KIND`` tag (the wire name, unchanged across releases so
recorded histories stay comparable) and a ``SCHEMA`` version that is
bumped whenever the field set changes; together they form the
:attr:`TraceEvent.schema_id` that sinks persist.

Events are plain data: emitting one never touches the event wheel or
any random stream, which is what makes instrumentation non-perturbing
(replay digests are bit-identical with sinks on or off; the property
test in ``tests/obs`` enforces this).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Tuple, Type


__all__ = [
    "TraceEvent",
    "TxStart",
    "TxEnd",
    "TxAbort",
    "TxOutcome",
    "RxLock",
    "RxOk",
    "RxFail",
    "Delivered",
    "QueueEnter",
    "QueueLeave",
    "QueueFlush",
    "SlotClaim",
    "SlotYield",
    "ControlSent",
    "Unreachable",
    "DropNoRoute",
    "DropStationDown",
    "StationDown",
    "StationUp",
    "FaultInject",
    "FaultRecover",
    "ChannelUpdate",
    "NeighborTurnover",
    "RendezvousReacquire",
    "ArqRetry",
    "ArqGiveUp",
    "TxPowerLevel",
    "SicCancel",
    "EVENT_TYPES",
    "event_from_payload",
]


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """Base class of every typed trace event.

    Attributes:
        time: simulated time of the occurrence (always the first field,
            so sinks can treat it as the row key).
    """

    KIND = "event"
    SCHEMA = 1

    time: float

    @property
    def schema_id(self) -> str:
        """Stable ``kind/vN`` identifier of this event's field layout."""
        return f"{self.KIND}/v{self.SCHEMA}"

    def payload(self) -> Dict[str, Any]:
        """The event's fields minus ``time``, in declaration order."""
        return {
            f.name: getattr(self, f.name) for f in fields(self)[1:]
        }


@dataclass(frozen=True, slots=True)
class TxStart(TraceEvent):
    """A transmission burst entered the air."""

    KIND = "tx_start"

    source: int
    destination: int
    power_w: float
    packet: int


@dataclass(frozen=True, slots=True)
class TxEnd(TraceEvent):
    """A transmission burst ran to completion and left the air."""

    KIND = "tx_end"

    source: int
    destination: int


@dataclass(frozen=True, slots=True)
class TxAbort(TraceEvent):
    """A burst was cut short mid-flight (its source crashed)."""

    KIND = "tx_abort"

    source: int
    destination: int


@dataclass(frozen=True, slots=True)
class TxOutcome(TraceEvent):
    """A station's transmit attempt finished, successfully or not.

    Emitted exactly where ``StationStats.sent`` increments, so counting
    these events reproduces the legacy ``transmissions`` total bit-for-
    bit (bursts still in flight at the run horizon, and bursts aborted
    by faults, appear in neither).
    """

    KIND = "tx_outcome"

    station: int
    next_hop: int
    ok: bool


@dataclass(frozen=True, slots=True)
class RxLock(TraceEvent):
    """A receiver's despreading channel locked onto a burst."""

    KIND = "rx_lock"

    receiver: int
    source: int
    channel: int


@dataclass(frozen=True, slots=True)
class RxOk(TraceEvent):
    """A reception satisfied the continuous SIR criterion end to end."""

    KIND = "rx_ok"

    receiver: int
    source: int
    min_sir: float
    packet: int


@dataclass(frozen=True, slots=True)
class RxFail(TraceEvent):
    """A hop was lost, with the Section 5 taxonomy attached.

    Attributes:
        reason: mechanical reason string (``"sir"``,
            ``"self_transmitting"``, ``"no_channel"``,
            ``"not_listening"``, ``"receiver_down"``, ``"source_down"``,
            ``"corrupted"``).
        types: sorted collision-type values responsible, when
            interference caused the loss.
        min_sir: worst SIR observed (NaN when never locked).
    """

    KIND = "rx_fail"

    receiver: int
    source: int
    reason: str
    types: Tuple[int, ...]
    packet: int
    min_sir: float


@dataclass(frozen=True, slots=True)
class Delivered(TraceEvent):
    """A packet reached its final destination."""

    KIND = "delivered"

    station: int
    packet: int
    delay: float
    hops: int
    energy_j: float


@dataclass(frozen=True, slots=True)
class QueueEnter(TraceEvent):
    """A packet was accepted into a station's transmit backlog.

    Attributes:
        origin: True when the packet originated here (first hop).
        control: True for MAC/network control frames.
        depth: total backlog depth after the enqueue.
        retry: True when the ARQ sublayer re-enqueued the packet after
            a failed attempt (v2; such enqueues are neither origins nor
            forwards, so counters must not double-count them).
    """

    KIND = "queue_enter"
    SCHEMA = 2

    station: int
    next_hop: int
    packet: int
    origin: bool
    control: bool
    depth: int
    retry: bool = False


@dataclass(frozen=True, slots=True)
class QueueLeave(TraceEvent):
    """A packet left a station's backlog for transmission."""

    KIND = "queue_leave"

    station: int
    next_hop: int
    packet: int
    depth: int


@dataclass(frozen=True, slots=True)
class QueueFlush(TraceEvent):
    """A station discarded its whole backlog at once.

    Attributes:
        reason: ``"station_down"`` (a fault crashed the station) or
            ``"unreachable"`` (every queued neighbour lacked schedule
            overlap).
        count: packets discarded.
    """

    KIND = "queue_flush"

    station: int
    reason: str
    count: int


@dataclass(frozen=True, slots=True)
class SlotClaim(TraceEvent):
    """The scheduled MAC committed to a transmit window."""

    KIND = "slot_claim"

    station: int
    next_hop: int
    start: float
    duration: float


@dataclass(frozen=True, slots=True)
class SlotYield(TraceEvent):
    """The scheduled MAC deferred: the next feasible window is later."""

    KIND = "slot_yield"

    station: int
    next_hop: int
    until: float


@dataclass(frozen=True, slots=True)
class ControlSent(TraceEvent):
    """A MAC-level control frame was sent (e.g. MACA's RTS/CTS)."""

    KIND = "control_sent"

    station: int
    peer: int
    frame: str


@dataclass(frozen=True, slots=True)
class Unreachable(TraceEvent):
    """A queued neighbour had no schedule overlap within the horizon."""

    KIND = "unreachable"

    station: int
    next_hop: int


@dataclass(frozen=True, slots=True)
class DropNoRoute(TraceEvent):
    """A packet was dropped for lack of a route to its destination."""

    KIND = "drop_no_route"

    station: int
    destination: int


@dataclass(frozen=True, slots=True)
class DropStationDown(TraceEvent):
    """A packet was rejected because the station is down (faulted)."""

    KIND = "drop_station_down"

    station: int
    destination: int


@dataclass(frozen=True, slots=True)
class StationDown(TraceEvent):
    """A station crashed (fault lifecycle)."""

    KIND = "station_down"

    station: int


@dataclass(frozen=True, slots=True)
class StationUp(TraceEvent):
    """A crashed station recovered."""

    KIND = "station_up"

    station: int


@dataclass(frozen=True, slots=True)
class FaultInject(TraceEvent):
    """The fault injector applied a degradation.

    Attributes:
        fault: fault family (``"down"``, ``"fade"``, ``"clock_step"``,
            ``"corrupt"``).
        station: primary affected station (-1 when network-wide).
        peer: secondary station for link faults (-1 otherwise).
        value: fault magnitude (fade factor, step slots, probability).
    """

    KIND = "fault_inject"

    fault: str
    station: int = -1
    peer: int = -1
    value: float = 0.0


@dataclass(frozen=True, slots=True)
class FaultRecover(TraceEvent):
    """The fault injector applied a recovery action.

    Attributes:
        fault: the fault family being recovered from (``"down"``,
            ``"clock_step"``, ``"corrupt"``, or ``"route"`` for a
            routing re-derivation).
        station: affected station (-1 when network-wide).
    """

    KIND = "fault_recover"

    fault: str
    station: int = -1


@dataclass(frozen=True, slots=True)
class ChannelUpdate(TraceEvent):
    """The continuous channel process applied one tick of dynamics.

    Attributes:
        moved: stations whose positions changed this tick.
        links: link gains re-written into the medium this tick.
    """

    KIND = "channel_update"

    moved: int
    links: int


@dataclass(frozen=True, slots=True)
class NeighborTurnover(TraceEvent):
    """A station's hearable-neighbour set changed under mobility.

    Attributes:
        station: the station whose neighbourhood turned over.
        gained: neighbours that drifted into reach since the last scan.
        lost: neighbours that drifted out of reach.
    """

    KIND = "neighbor_turnover"

    station: int
    gained: int
    lost: int


@dataclass(frozen=True, slots=True)
class RendezvousReacquire(TraceEvent):
    """The network re-converged its §7.1 state onto the live channel.

    Attributes:
        stations: stations whose turnover triggered this re-acquisition.
        new_pairs: hearable pairs that fitted a clock model for the
            first time.
        kicked: MACs interrupted so stale candidate windows are
            re-derived.
    """

    KIND = "rendezvous_reacquire"

    stations: int
    new_pairs: int
    kicked: int


@dataclass(frozen=True, slots=True)
class ArqRetry(TraceEvent):
    """The ARQ sublayer scheduled a bounded retransmission.

    Attributes:
        attempt: 1-based count of failed attempts so far.
    """

    KIND = "arq_retry"

    station: int
    next_hop: int
    packet: int
    attempt: int


@dataclass(frozen=True, slots=True)
class ArqGiveUp(TraceEvent):
    """The ARQ sublayer exhausted its retry budget for a packet.

    Attributes:
        attempts: total failed attempts when the packet was abandoned.
    """

    KIND = "arq_give_up"

    station: int
    next_hop: int
    packet: int
    attempts: int


@dataclass(frozen=True, slots=True)
class TxPowerLevel(TraceEvent):
    """A multi-level power MAC drew a transmit power level.

    Attributes:
        level: 0-based ladder index (0 = full calibrated power).
        scale: linear factor applied to the power-controlled level.
    """

    KIND = "tx_power_level"

    station: int
    next_hop: int
    level: int
    scale: float


@dataclass(frozen=True, slots=True)
class SicCancel(TraceEvent):
    """An SIC receiver cancelled interferers during one reception.

    Emitted once per tracked reception when it ends, carrying the peak
    cancellation the successive-cancellation pipeline achieved over the
    reception's lifetime.

    Attributes:
        cancelled: maximum interferers subtracted at any one
            interference change.
        ok: whether the reception ultimately satisfied the SIR
            criterion.
    """

    KIND = "sic_cancel"

    receiver: int
    source: int
    cancelled: int
    ok: bool


#: Registry of every event type, keyed by its ``KIND`` tag.
EVENT_TYPES: Dict[str, Type[TraceEvent]] = {
    cls.KIND: cls
    for cls in (
        TxStart,
        TxEnd,
        TxAbort,
        TxOutcome,
        RxLock,
        RxOk,
        RxFail,
        Delivered,
        QueueEnter,
        QueueLeave,
        QueueFlush,
        SlotClaim,
        SlotYield,
        ControlSent,
        Unreachable,
        DropNoRoute,
        DropStationDown,
        StationDown,
        StationUp,
        FaultInject,
        FaultRecover,
        ChannelUpdate,
        NeighborTurnover,
        RendezvousReacquire,
        ArqRetry,
        ArqGiveUp,
        TxPowerLevel,
        SicCancel,
    )
}


def event_from_payload(
    kind: str, time: float, payload: Dict[str, Any]
) -> TraceEvent:
    """Rebuild a typed event from a decoded sink row.

    Lists decode back to tuples (JSON has no tuple type), so a
    round-tripped event compares equal to the original.
    """
    try:
        event_type = EVENT_TYPES[kind]
    except KeyError:
        raise ValueError(f"unknown event kind {kind!r}") from None
    coerced = {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in payload.items()
    }
    return event_type(time, **coerced)
