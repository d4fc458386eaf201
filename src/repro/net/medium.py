"""The shared radio medium: the simulator's physical-layer oracle.

This module operationalises the Section 3 model.  It keeps the set of
in-flight transmissions and, at every change of that set, re-evaluates
the signal-to-interference ratio of every in-progress reception against
the continuous criterion (Eq. 4-6).  A reception succeeds iff:

* the destination was committed to listening when the transmission
  began (its published schedule, for the paper's scheme; "not currently
  transmitting", for the baselines),
* a despreading channel was free to track it (else a Type 2 loss),
* the SIR stayed at or above the receiver's threshold for the entire
  duration (else a loss classified by the taxonomy of Section 5), and
* the destination was not transmitting at any point during the
  reception (the Type 3 self-jamming case: "no feasible amount of
  processing gain ... can achieve reception while the local transmitter
  is operating").

The medium is deliberately exact: no slotted approximations, no
capture heuristics — the power arithmetic *is* the model, so a claim
like "zero collisions" is checked against the physics the paper
defines, not against a convenient abstraction.

Performance: the Eq. 2 received-power field ``gains @ powers`` is a
first-class piece of medium state, maintained *incrementally*.  When a
transmission starts or ends, one O(M) axpy
(``field ± gains[:, source] * power``) replaces the O(active × M)
matrix-vector recomputation, so every power query
(:meth:`Medium.interference_at`, :meth:`Medium.total_received_power`,
the per-reception tracker updates) is an O(1) lookup plus the
self-coupling/wanted-signal corrections.  A drift guard re-derives the
field from scratch every ``resync_events`` field changes (and whenever
the channel drains to idle, where the field is exactly zero), bounding
floating-point accumulation; under the determinism sanitizer the
resync also *asserts* that the incremental field still matches the
exact recomputation.

Metro scale: a dense ``(M, M)`` gain matrix is 80 GB at 10^5 stations,
so the medium also accepts a horizon-culled
:class:`~repro.propagation.sparse.SparseGainField`.  The axpy becomes
a scatter over the transmitter's CSR column, tracker updates touch
only the receptions that column can affect, and the drift guard works
unchanged (the resync recomputes over the same stored structure).
Significance culling under-reports interference by a *provably
bounded* amount — :meth:`Medium.field_error_bound_w` witnesses the
bound at any instant — and a cull threshold of zero makes sparse mode
bit-identical to dense.  The witness stays exact and drift-free: each
burst's term is cached when it begins and dropped when it ends, and
the bound is a C-level sum of the cached terms in active-set order,
so no per-transmit Python loop walks the active set.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.collisions import CollisionType, InterferenceSource, classify_loss
from repro.core.reception import TrackerBatch
from repro.net.packet import Packet
from repro.propagation.sparse import SparseGainField
from repro.radio.receiver_model import ReceiverModel
from repro.sim.engine import Environment
from repro.sim.events import Event
from repro.obs.api import Instrumentation
from repro.obs.events import RxFail, RxLock, RxOk, SicCancel, TxAbort, TxEnd, TxStart
from repro.sim.sanitizer import SanitizerError

__all__ = [
    "Transmission",
    "ReceptionAttempt",
    "LossRecord",
    "Medium",
    "SELF_COUPLING_GAIN",
    "SIGNIFICANT_FRACTION",
]

#: Power gain from a station's transmitter into its own receiver.  Real
#: duplexer isolation leaves this vastly above any path gain; 0 dB is
#: already ~60 dB above a 1 km free-space path at UHF, which makes the
#: Type 3 self-jam unconditional, as the paper asserts.
SELF_COUPLING_GAIN = 1.0

#: An interferer must contribute at least this fraction of the total
#: interference power at the moment of failure to be named a cause.
#: Section 7.3 uses a 1 dB rise (a ~26% contribution) as "significant";
#: we record down to 1% to keep the classification conservative.
SIGNIFICANT_FRACTION = 0.01


@dataclass(frozen=True)
class Transmission:
    """One in-flight packet transmission.

    Attributes:
        seq: unique sequence number (medium-assigned).
        source: transmitting station index.
        destination: addressed station index.
        packet: the packet being conveyed.
        power_w: radiated power (constant over the burst).
        start: global start time.
        duration: airtime.
    """

    seq: int
    source: int
    destination: int
    packet: Packet
    power_w: float
    start: float
    duration: float

    @property
    def end(self) -> float:
        """Global end time."""
        return self.start + self.duration


@dataclass
class ReceptionAttempt:
    """A reception being tracked by a locked despreading channel.

    The continuous SIR criterion state itself lives in the medium's
    :class:`~repro.core.reception.TrackerBatch` (keyed by the
    transmission's ``seq``), so that all in-progress receptions update
    in one vectorised pass.

    Attributes:
        transmission: the wanted transmission.
        channel: despreader channel index in use.
        failure_sources: the interferers significant at the moment the
            criterion first failed, if it did.
        sic_max_cancelled: peak interferers the receiver model
            cancelled at any one interference change (0 when the
            receiver runs the default model).
    """

    transmission: Transmission
    channel: int
    failure_sources: Optional[Tuple[InterferenceSource, ...]] = None
    sic_max_cancelled: int = 0


@dataclass(frozen=True)
class LossRecord:
    """A packet hop that was not successfully received.

    Attributes:
        time: when the loss was established (transmission end).
        transmission: the lost transmission.
        reason: one of ``"sir"`` (criterion violated mid-reception),
            ``"self_transmitting"`` (receiver was transmitting at lock
            time: Type 3), ``"no_channel"`` (despreader bank full:
            Type 2), ``"not_listening"`` (receiver not committed to
            listen — a scheduling error under the paper's scheme, and
            impossible there when clock models are sound).
        collision_types: taxonomy classes of the responsible
            interference, when interference caused the loss.
        min_sir: worst SIR observed (NaN when never locked).
    """

    time: float
    transmission: Transmission
    reason: str
    collision_types: frozenset
    min_sir: float


class Medium:
    """The shared radio channel for one simulated network.

    Args:
        env: simulation environment.
        gains: ``(M, M)`` power-gain matrix (zero diagonal), or a
            :class:`~repro.propagation.sparse.SparseGainField` for the
            metro-scale sparse medium.  Sparse mode replaces the dense
            O(M) axpy with a scatter over the transmitter's CSR column
            and updates only the reception trackers whose receiver that
            column touches; with a cull threshold of zero the two modes
            are bit-identical, and with culling on the under-reported
            interference is bounded by :meth:`field_error_bound_w`.
        thermal_noise_w: per-receiver thermal noise floor.
        sir_thresholds: per-station required SIR for reception.
        listen_query: callable ``(station, now) -> bool``: is the station
            committed to listening?  Wired to the MAC in use.
        channel_query: callable ``(station) -> bank``: the station's
            despreader bank.
        instrumentation: the typed-event facade to emit through
            (disabled when omitted; emission is zero-cost then).
        resync_events: re-derive the incremental interference field from
            an exact ``gains @ powers`` recompute every this many field
            changes (drift guard).  ``None`` disables periodic resync;
            the field is still pinned to exactly zero whenever the
            channel drains to idle.
    """

    def __init__(
        self,
        env: Environment,
        gains: Union[np.ndarray, SparseGainField],
        thermal_noise_w: float,
        sir_thresholds: np.ndarray,
        listen_query: Callable[[int, float], bool],
        channel_query: Callable[[int], object],
        instrumentation: Optional[Instrumentation] = None,
        resync_events: Optional[int] = 4096,
    ) -> None:
        if isinstance(gains, SparseGainField):
            self.sparse: Optional[SparseGainField] = gains
            self.gains: Optional[np.ndarray] = None
            stations = gains.count
            # Live per-entry gains; privatised (copy-on-write) by
            # scale_link so the builder's field keeps nominal values.
            self._svals = gains.vals
            self._nominal_svals: Optional[np.ndarray] = None
        else:
            gains = np.asarray(gains, dtype=float)
            if gains.ndim != 2 or gains.shape[0] != gains.shape[1]:
                raise ValueError("gain matrix must be square")
            self.sparse = None
            self.gains = gains
            stations = gains.shape[0]
        thresholds = np.asarray(sir_thresholds, dtype=float)
        if thresholds.shape != (stations,):
            raise ValueError("need one SIR threshold per station")
        if thermal_noise_w < 0.0:
            raise ValueError("thermal noise must be non-negative")
        if resync_events is not None and resync_events < 1:
            raise ValueError("resync cadence must be at least 1 event")
        self.env = env
        self.thermal_noise_w = thermal_noise_w
        self.sir_thresholds = thresholds
        self._listen_query = listen_query
        self._channel_query = channel_query
        self.instr = (
            instrumentation if instrumentation is not None else Instrumentation()
        )
        self._seq = count()
        self._active: Dict[int, Transmission] = {}
        # Sparse mode: each in-flight burst's culling-bound term
        # ``P_j * culled_out_max[j]``, keyed by seq and inserted/removed
        # in lockstep with _active so the two share one order (dense
        # mode culls nothing and never caches a term).
        self._bound_terms: Dict[int, float] = {}
        # Power currently radiated per station; lets interference_at be
        # one vectorised dot product instead of a loop over the active
        # set (the simulator's hot path).
        self._powers = np.zeros(stations)
        # The Eq. 2 received-power field ``gains @ _powers``, maintained
        # incrementally: one O(M) axpy per transmission start/end in
        # dense mode, one O(column) scatter in sparse mode.  Column
        # views of the dense gain matrix feed the axpy; a transposed
        # contiguous copy keeps each column a cache-friendly row.
        self._gains_columns = (
            np.ascontiguousarray(self.gains.T) if self.gains is not None else None
        )
        self._interference = np.zeros(stations)
        # Per-station count of in-flight transmissions (always 0 or 1
        # for well-behaved MACs); makes is_station_transmitting O(1).
        self._tx_count = np.zeros(stations, dtype=np.int64)
        self._resync_events = resync_events
        self._field_changes = 0
        # Scratch buffers for the hot path (axpy temporary, the
        # per-attempt gathers, and the sparse touched-receiver mask);
        # contents meaningless between calls.
        self._axpy = np.zeros(stations) if self.sparse is None else None
        self._gather = np.zeros(16)
        self._gather_own = np.zeros(16)
        self._touched = (
            np.zeros(stations, dtype=bool) if self.sparse is not None else None
        )
        self._attempts: Dict[int, ReceptionAttempt] = {}
        self._trackers = TrackerBatch()
        # Receptions whose despreader bank carries a cancelling
        # ReceiverModel, keyed by seq.  Empty unless a bank opts in, so
        # the default path pays one falsy dict check per update.
        self._sic_models: Dict[int, ReceiverModel] = {}
        self._lock_failures: Dict[int, str] = {}
        # Fault support: stations currently down (never lock receptions),
        # the nominal gains to restore faded links to, and an optional
        # per-reception corruption predicate.  All stay inert — no array
        # copies, no extra branches taken — until a fault actually uses
        # them.
        self._down = np.zeros(stations, dtype=bool)
        self._nominal_gains: Optional[np.ndarray] = None
        self._corruption: Optional[Callable[[Transmission], bool]] = None
        # Continuous-channel accounting: batch updates aimed at culled
        # sparse entries are skipped but never silently — the channel
        # process surfaces this count in its report.
        self.culled_update_skips: int = 0
        self.losses: List[LossRecord] = []
        self.deliveries: int = 0
        self._delivery_callbacks: Dict[int, Callable[[Transmission], None]] = {}
        self._overhear_callbacks: Dict[int, Callable[[Transmission], None]] = {}
        # Dense registration-order mirrors of _overhear_callbacks, for
        # the vectorised eligibility pass in _notify_overhearers.
        self._overhear_stations = np.zeros(0, dtype=np.intp)
        self._overhear_handlers: List[Callable[[Transmission], None]] = []

    @property
    def station_count(self) -> int:
        """Number of stations sharing the medium."""
        return int(self._powers.shape[0])

    @property
    def active_transmissions(self) -> List[Transmission]:
        """Snapshot of in-flight transmissions."""
        return list(self._active.values())

    def on_delivery(
        self, station: int, callback: Callable[[Transmission], None]
    ) -> None:
        """Register the handler invoked when ``station`` receives a packet."""
        self._delivery_callbacks[station] = callback

    def on_overheard(
        self, station: int, callback: Callable[[Transmission], None]
    ) -> None:
        """Register a promiscuous-reception handler for ``station``.

        Carrier-sense MACs (MACA's RTS/CTS deferral) need stations to
        overhear frames not addressed to them.  At each transmission
        end, every registered station that was idle and could have
        decoded the frame (final-instant SIR above its threshold) gets
        the callback.  This is an approximation — it skips the
        continuous criterion for overhearers — but it only *helps* the
        baselines, keeping the comparison conservative.
        """
        self._overhear_callbacks[station] = callback
        self._overhear_stations = np.fromiter(
            self._overhear_callbacks.keys(),
            dtype=np.intp,
            count=len(self._overhear_callbacks),
        )
        self._overhear_handlers = list(self._overhear_callbacks.values())

    def is_station_transmitting(self, station: int) -> bool:
        """Whether ``station`` currently has a transmission in flight."""
        return bool(self._tx_count[station])

    def total_received_power(self, station: int) -> float:
        """Total signal power arriving at a station right now.

        This is what a carrier-sense MAC measures before transmitting.
        """
        return self.interference_at(station, exclude_seq=None)

    # -- power arithmetic ---------------------------------------------

    def _column(self, source: int) -> Tuple[np.ndarray, np.ndarray]:
        """Sparse mode: one transmitter's CSR column as (receivers,
        gains), reading the medium's live (possibly faded) gains.

        The stored int32 receivers are cast to ``intp`` here, once per
        column: every fancy index with an int32 array would otherwise
        make the same cast itself, and a burst indexes with its column
        several times (scatter, touched-mask set and reset).
        """
        assert self.sparse is not None
        lo = int(self.sparse.indptr[source])
        hi = int(self.sparse.indptr[source + 1])
        return self.sparse.rows[lo:hi].astype(np.intp), self._svals[lo:hi]

    def _pair_gain(self, receiver: int, source: int) -> float:
        """Power gain from ``source`` to ``receiver`` under either
        representation; culled sparse entries read as 0.0."""
        if self.sparse is None:
            assert self.gains is not None
            return float(self.gains[receiver, source])
        rows, vals = self._column(source)
        position = int(np.searchsorted(rows, receiver))
        if position < rows.size and int(rows[position]) == receiver:
            return float(vals[position])
        return 0.0

    def _gather_gains(self, source: int, stations: np.ndarray) -> np.ndarray:
        """Gains from ``source`` into an index array of stations (the
        sparse form of ``_gains_columns[source][stations]``)."""
        rows, vals = self._column(source)
        if rows.size == 0:
            return np.zeros(stations.shape)
        positions = np.searchsorted(rows, stations)
        clipped = np.minimum(positions, rows.size - 1)
        found = rows[clipped] == stations
        return np.where(found, vals[clipped], 0.0)

    def field_error_bound_w(self) -> float:
        """Provable upper bound on the interference the sparse field
        under-reports at *any* receiver, right now.

        The true dense field exceeds the stored sparse field at
        receiver ``i`` by exactly ``sum_{j active} P_j * g_ij^culled``,
        and every culled ``g_ij`` is at most the transmitter's
        ``culled_out_max[j]`` recorded at build time, so the bound is
        ``sum_{j active} P_j * culled_out_max[j]``.  Each burst's term
        is cached when it begins and dropped when it ends, and the
        bound is summed afresh from the cached terms, in active-set
        order, by the builtin ``sum`` — still exact and drift-free (no
        running total is kept), and a C-level loop rather than a Python
        walk of the active set.  Dense mode culls nothing and caches no
        terms: 0.0.
        """
        return float(sum(self._bound_terms.values()))

    def interference_at(self, receiver: int, exclude_seq: Optional[int]) -> float:
        """Interference-plus-nothing power at a receiver, excluding one
        wanted transmission; the receiver's own transmitter couples in
        at :data:`SELF_COUPLING_GAIN` (the Type 3 mechanism)."""
        # The gain matrix's zero diagonal drops the receiver's own
        # radiation from the incremental field; add it back at the
        # coupling gain.
        total = float(self._interference[receiver])
        total += self._powers[receiver] * SELF_COUPLING_GAIN
        if exclude_seq is not None:
            excluded = self._active.get(exclude_seq)
            if excluded is not None:
                if excluded.source == receiver:
                    total -= excluded.power_w * SELF_COUPLING_GAIN
                else:
                    total -= excluded.power_w * self._pair_gain(
                        receiver, excluded.source
                    )
        return max(total, 0.0)

    def _significant_sources(
        self, receiver: int, exclude_seq: int
    ) -> Tuple[InterferenceSource, ...]:
        contributions = []
        for seq, tx in self._active.items():
            if seq == exclude_seq:
                continue
            gain = (
                SELF_COUPLING_GAIN
                if tx.source == receiver
                else self._pair_gain(receiver, tx.source)
            )
            contributions.append((tx.power_w * gain, tx))
        total = sum(power for power, _ in contributions)
        if total <= 0.0:
            return ()
        return tuple(
            InterferenceSource(tx.source, tx.destination)
            for power, tx in contributions
            if power >= SIGNIFICANT_FRACTION * total
        )

    def _cancel_for(
        self,
        seq: int,
        model: ReceiverModel,
        wanted_signal_w: float,
        interference_w: float,
    ) -> float:
        """Apply one reception's receiver model to its interference level.

        Strictly receiver-local: the reduced level feeds only this
        reception's tracker entry; the shared incremental field — and
        therefore every other receiver — is untouched.  The cancellable
        contributions exclude the wanted transmission (it is not
        interference) and the receiver's own transmitter (the Type 3
        self-jam is unconditional).
        """
        attempt = self._attempts[seq]
        receiver = attempt.transmission.destination
        contributions: List[Tuple[float, int]] = []
        for other_seq, other in self._active.items():
            if other_seq == seq or other.source == receiver:
                continue
            power = other.power_w * self._pair_gain(receiver, other.source)
            if power > 0.0:
                contributions.append((power, other_seq))
        reduced, cancelled = model.resolve_interference(
            wanted_signal_w,
            interference_w,
            self.thermal_noise_w,
            float(self.sir_thresholds[receiver]),
            contributions,
        )
        if cancelled > attempt.sic_max_cancelled:
            attempt.sic_max_cancelled = cancelled
        return reduced

    # -- transmission lifecycle ----------------------------------------

    def transmit(
        self,
        source: int,
        destination: int,
        packet: Packet,
        power_w: float,
        duration: float,
    ) -> Event:
        """Radiate a packet; the returned event fires at burst end with
        ``True`` (received) or ``False`` (lost) as its value.

        The outcome value is the simulator's oracle; the paper's scheme
        never consults it (no per-packet acknowledgement exists), while
        the baseline MACs use it as an idealised ACK.
        """
        if not 0 <= source < self.station_count:
            raise ValueError("source index out of range")
        if not 0 <= destination < self.station_count:
            raise ValueError("destination index out of range")
        if source == destination:
            raise ValueError("a station cannot transmit to itself")
        if power_w <= 0.0:
            raise ValueError("transmit power must be positive")
        if duration <= 0.0:
            raise ValueError("duration must be positive")
        if self.is_station_transmitting(source):
            raise RuntimeError(f"station {source} is already transmitting")

        tx = Transmission(
            seq=next(self._seq),
            source=source,
            destination=destination,
            packet=packet,
            power_w=power_w,
            start=self.env.now,
            duration=duration,
        )
        done = self.env.event()
        self._begin(tx)
        end_timer = self.env.timeout(duration)
        end_timer.subscribe(lambda _event: done.succeed(self._end(tx)))
        return done

    # -- incremental field maintenance --------------------------------

    def _field_changed(self) -> None:
        """Drift guard: bound floating-point accumulation in the
        incremental field.

        Periodically (every ``resync_events`` field changes) the field
        is re-derived from the exact Eq. 2 product; under the
        determinism sanitizer the resync also asserts the incremental
        value had not drifted.  Whenever the channel drains to idle the
        field is pinned to exactly zero, mirroring the snap-to-zero
        applied to ``_powers``.
        """
        self._field_changes += 1
        if (
            self._resync_events is not None
            and self._field_changes >= self._resync_events
        ):
            self._resync_field()
        elif not self._active:
            self._interference[:] = 0.0

    def _exact_field(self) -> np.ndarray:
        """The Eq. 2 field recomputed from scratch over the stored
        gains (dense matvec, or per-active-column sparse scatter in
        ascending source order — deterministic either way)."""
        if self.sparse is None:
            assert self.gains is not None
            return self.gains @ self._powers
        exact = np.zeros(self.station_count)
        for source in np.nonzero(self._powers)[0]:
            rows, vals = self._column(int(source))
            exact[rows] += vals * self._powers[source]
        return exact

    def _resync_field(self) -> None:
        exact = self._exact_field()
        if self.env.sanitizing:
            scale = float(np.max(exact)) + self.thermal_noise_w + 1.0
            if not np.allclose(self._interference, exact, rtol=1e-6, atol=1e-9 * scale):
                worst = float(np.max(np.abs(self._interference - exact)))
                raise SanitizerError(
                    "incremental interference field drifted from the exact "
                    f"gains @ powers recompute (max abs error {worst:.3e} W "
                    f"after {self._field_changes} field changes)"
                )
            if self.sparse is not None:
                self._check_bound_terms()
        self._interference = exact
        self._field_changes = 0

    def _check_bound_terms(self) -> None:
        """Sanitizer: the cached culling-bound terms must cover exactly
        the active set, in its order, and sum to the from-scratch bound."""
        assert self.sparse is not None
        # Order matters too: the cached sum equals the from-scratch one
        # bit for bit only when both add the same terms in the same order.
        if list(self._bound_terms) != list(self._active):
            raise SanitizerError(
                "cached culling-bound terms do not match the active set "
                f"({len(self._bound_terms)} terms, {len(self._active)} "
                "transmissions in flight)"
            )
        culled_out_max = self.sparse.culled_out_max
        exact = float(
            sum(
                tx.power_w * float(culled_out_max[tx.source])
                for tx in self._active.values()
            )
        )
        cached = float(sum(self._bound_terms.values()))
        if cached != exact:
            raise SanitizerError(
                f"cached culling-error bound {cached!r} W differs from the "
                f"exact active-set sum {exact!r} W"
            )

    def _apply_axpy(self, source: int, power_w: float) -> None:
        """Add one transmitter's contribution to the incremental field.

        Dense: the O(M) column axpy.  Sparse: scatter over the CSR
        column's receivers — the rows are unique, so the fancy-index
        in-place add performs exactly one dense-identical multiply-add
        per stored entry, and every unstored entry is an exact ``+0.0``
        no-op (which is why cull-nothing sparse mode stays
        bit-identical to dense).
        """
        if self.sparse is None:
            np.multiply(self._gains_columns[source], power_w, out=self._axpy)
            self._interference += self._axpy
        else:
            rows, vals = self._column(source)
            self._interference[rows] += vals * power_w

    def _remove_axpy(self, source: int, power_w: float) -> None:
        """Subtract one transmitter's contribution (exact mirror of
        :meth:`_apply_axpy`, same products, subtracted)."""
        if self.sparse is None:
            np.multiply(self._gains_columns[source], power_w, out=self._axpy)
            self._interference -= self._axpy
        else:
            rows, vals = self._column(source)
            self._interference[rows] -= vals * power_w

    def _begin(self, tx: Transmission) -> None:
        self._active[tx.seq] = tx
        if self.sparse is not None:
            self._bound_terms[tx.seq] = tx.power_w * float(
                self.sparse.culled_out_max[tx.source]
            )
        self._tx_count[tx.source] += 1
        self._powers[tx.source] += tx.power_w
        self._apply_axpy(tx.source, tx.power_w)
        self._field_changed()
        if self.instr.active:
            self.instr.emit(
                TxStart(
                    self.env.now,
                    tx.source,
                    tx.destination,
                    tx.power_w,
                    tx.packet.packet_id,
                )
            )
        self._try_lock(tx)
        self._update_attempts_for(tx)

    def _try_lock(self, tx: Transmission) -> None:
        receiver = tx.destination
        if self._down[receiver]:
            self._lock_failures[tx.seq] = "receiver_down"
            return
        if self.is_station_transmitting(receiver):
            self._lock_failures[tx.seq] = "self_transmitting"
            return
        if not self._listen_query(receiver, self.env.now):
            self._lock_failures[tx.seq] = "not_listening"
            return
        bank = self._channel_query(receiver)
        channel = bank.try_acquire(tx.seq)
        if channel is None:
            self._lock_failures[tx.seq] = "no_channel"
            return
        signal_power = tx.power_w * self._pair_gain(receiver, tx.source)
        self._trackers.add(
            tag=tx.seq,
            receiver=receiver,
            threshold=float(self.sir_thresholds[receiver]),
            signal_power_w=signal_power,
            noise_power_w=self.thermal_noise_w,
        )
        self._attempts[tx.seq] = ReceptionAttempt(tx, channel)
        model = getattr(bank, "model", None)
        if model is not None and model.cancels:
            self._sic_models[tx.seq] = model
        if self.instr.active:
            self.instr.emit(
                RxLock(self.env.now, receiver, tx.source, channel)
            )

    def _update_attempts(self) -> None:
        batch = self._trackers
        count = batch.count
        if count == 0:
            return
        # Gather the incremental field at each attempt's receiver, then
        # apply the two per-attempt corrections: the receiver's own
        # transmitter couples in, and the wanted signal (stored as the
        # tracker's signal power at lock time) is not interference.
        if self._gather.size < count:
            size = max(count, 2 * self._gather.size)
            self._gather = np.zeros(size)
            self._gather_own = np.zeros(size)
        receivers = batch.receivers
        interference = self._gather[:count]
        np.take(self._interference, receivers, out=interference)
        own = self._gather_own[:count]
        np.take(self._powers, receivers, out=own)
        own *= SELF_COUPLING_GAIN
        interference += own
        interference -= batch.signals
        np.maximum(interference, 0.0, out=interference)
        if self._sic_models:
            for seq, model in self._sic_models.items():
                position = batch.position(seq)
                interference[position] = self._cancel_for(
                    seq,
                    model,
                    float(batch.signals[position]),
                    float(interference[position]),
                )
        for seq in batch.update(self.env.now, interference):
            attempt = self._attempts[seq]
            attempt.failure_sources = self._significant_sources(
                attempt.transmission.destination, seq
            )

    def _update_attempts_for(self, tx: Transmission) -> None:
        """Sparse-mode tracker update scoped to one field change.

        A begin/end of ``tx`` can only move the SIR of receptions whose
        receiver the change actually touched: the receivers in the
        transmitter's CSR column, the transmitter itself (its own
        radiated power feeds the :data:`SELF_COUPLING_GAIN` term — the
        Type 3 mechanism when a locked receiver later keys up), and the
        destination (a freshly locked attempt needs its first sample
        even if the wanted link was culled).  Everything else saw the
        identical interference level and is skipped; per-entry
        arithmetic for the touched subset matches the full pass.
        """
        if self.sparse is None:
            self._update_attempts()
            return
        batch = self._trackers
        if batch.count == 0:
            return
        rows, _ = self._column(tx.source)
        touched = self._touched
        assert touched is not None
        touched[rows] = True
        touched[tx.source] = True
        touched[tx.destination] = True
        receivers = batch.receivers
        positions = touched[receivers].nonzero()[0]
        touched[rows] = False
        touched[tx.source] = False
        touched[tx.destination] = False
        if positions.size == 0:
            return
        targets = receivers[positions]
        interference = self._interference[targets]
        interference += self._powers[targets] * SELF_COUPLING_GAIN
        interference -= batch.signals[positions]
        np.maximum(interference, 0.0, out=interference)
        if self._sic_models:
            # Untouched SIC receptions saw no field change, so their
            # cancelled level is unchanged too — only the touched
            # subset needs the model re-applied.
            local = {int(p): k for k, p in enumerate(positions)}
            for seq, model in self._sic_models.items():
                k = local.get(batch.position(seq))
                if k is not None:
                    interference[k] = self._cancel_for(
                        seq,
                        model,
                        float(batch.signals[positions[k]]),
                        float(interference[k]),
                    )
        for seq in batch.update_where(self.env.now, interference, positions):
            attempt = self._attempts[seq]
            attempt.failure_sources = self._significant_sources(
                attempt.transmission.destination, seq
            )

    def _notify_overhearers(self, tx: Transmission) -> None:
        """One vectorised eligibility pass over all registered overhearers.

        Called from :meth:`_end` *after* the ended transmission left
        ``_active``/``_powers``/``_interference``, so the field already
        excludes it and no ``exclude_seq`` correction is needed.
        """
        stations = self._overhear_stations
        if stations.size == 0:
            return
        if self.sparse is None:
            signals = tx.power_w * self._gains_columns[tx.source][stations]
        else:
            signals = tx.power_w * self._gather_gains(tx.source, stations)
        interference = self._interference[stations]
        interference += self._powers[stations] * SELF_COUPLING_GAIN
        np.maximum(interference, 0.0, out=interference)
        eligible = (
            (self._tx_count[stations] == 0)
            & (signals > 0.0)
            & (signals >= self.sir_thresholds[stations] * (interference + self.thermal_noise_w))
            & (stations != tx.source)
            & (stations != tx.destination)
        )
        if not eligible.any():
            return
        handlers = self._overhear_handlers
        for position in np.nonzero(eligible)[0]:
            handlers[int(position)](tx)

    def _end(self, tx: Transmission) -> bool:
        if tx.seq not in self._active:
            # The transmission was aborted mid-flight (source crashed);
            # its loss is already recorded and its power already removed
            # from the field — the stale end timer has nothing to do.
            return False
        del self._active[tx.seq]
        self._bound_terms.pop(tx.seq, None)
        self._tx_count[tx.source] -= 1
        self._powers[tx.source] -= tx.power_w
        if abs(self._powers[tx.source]) < 1e-18:
            self._powers[tx.source] = 0.0
        self._remove_axpy(tx.source, tx.power_w)
        self._field_changed()
        if self.instr.active:
            self.instr.emit(TxEnd(self.env.now, tx.source, tx.destination))
        attempt = self._attempts.pop(tx.seq, None)
        self._sic_models.pop(tx.seq, None)
        record = self._trackers.remove(tx.seq) if attempt is not None else None
        # Interference at the remaining receivers drops; fold that in
        # after removing the ended transmission.
        self._update_attempts_for(tx)
        self._notify_overhearers(tx)

        if attempt is None or record is None:
            self._record_unlocked_loss(tx)
            return False

        bank = self._channel_query(tx.destination)
        bank.release(tx.seq)
        if attempt.sic_max_cancelled > 0 and self.instr.active:
            self.instr.emit(
                SicCancel(
                    self.env.now,
                    tx.destination,
                    tx.source,
                    attempt.sic_max_cancelled,
                    record.ok,
                )
            )
        if record.ok and self._corruption is not None and self._corruption(tx):
            self._record_loss(tx, "corrupted", frozenset(), record.min_sir)
            return False
        if record.ok:
            self.deliveries += 1
            if self.instr.active:
                self.instr.emit(
                    RxOk(
                        self.env.now,
                        tx.destination,
                        tx.source,
                        record.min_sir,
                        tx.packet.packet_id,
                    )
                )
            callback = self._delivery_callbacks.get(tx.destination)
            if callback is not None:
                callback(tx)
            return True

        sources = attempt.failure_sources or ()
        types = classify_loss(tx.destination, sources) if sources else frozenset()
        self._record_loss(tx, "sir", types, record.min_sir)
        return False

    def _record_unlocked_loss(self, tx: Transmission) -> None:
        reason = self._lock_failures.pop(tx.seq, "not_listening")
        if reason == "self_transmitting":
            types: frozenset = frozenset({CollisionType.TYPE_3})
        elif reason == "no_channel":
            types = frozenset({CollisionType.TYPE_2})
        else:
            types = frozenset()
        self._record_loss(tx, reason, types, float("nan"))

    def _record_loss(
        self,
        tx: Transmission,
        reason: str,
        types: frozenset,
        min_sir: float,
    ) -> None:
        record = LossRecord(
            time=self.env.now,
            transmission=tx,
            reason=reason,
            collision_types=types,
            min_sir=min_sir,
        )
        self.losses.append(record)
        if self.instr.active:
            self.instr.emit(
                RxFail(
                    self.env.now,
                    tx.destination,
                    tx.source,
                    reason,
                    tuple(sorted(t.value for t in types)),
                    tx.packet.packet_id,
                    min_sir,
                )
            )

    def loss_counts_by_type(self) -> Dict[CollisionType, int]:
        """Tally of losses per collision type (Section 5 taxonomy)."""
        counts = {collision_type: 0 for collision_type in CollisionType}
        for record in self.losses:
            for collision_type in record.collision_types:
                counts[collision_type] += 1
        return counts

    def loss_counts_by_reason(self) -> Dict[str, int]:
        """Tally of losses per mechanical reason string."""
        counts: Dict[str, int] = {}
        for record in self.losses:
            counts[record.reason] = counts.get(record.reason, 0) + 1
        return counts

    # -- fault handling -------------------------------------------------

    def set_station_down(self, station: int, down: bool) -> None:
        """Mark a station dead (or alive again) for reception locking.

        A dead station never locks onto a transmission, so packets sent
        to it are lost with reason ``"receiver_down"``.  The caller is
        responsible for the rest of the lifecycle
        (:meth:`fail_receptions_at`, :meth:`abort_transmissions_from`).
        """
        if not 0 <= station < self.station_count:
            raise ValueError("station index out of range")
        self._down[station] = down

    def fail_receptions_at(self, station: int, reason: str = "receiver_down") -> None:
        """Unlock every reception in progress at a (newly dead) station.

        The wanted transmissions stay on the air — the sender has no
        way to know — but their outcome is now a loss with ``reason``,
        recorded when each burst ends.
        """
        for seq, attempt in list(self._attempts.items()):
            if attempt.transmission.destination != station:
                continue
            del self._attempts[seq]
            self._sic_models.pop(seq, None)
            self._trackers.remove(seq)
            self._channel_query(station).release(seq)
            self._lock_failures[seq] = reason

    def abort_transmissions_from(
        self, station: int, reason: str = "source_down"
    ) -> None:
        """Cut short every in-flight transmission from a dead station.

        The radiated power leaves the field immediately (interference
        at every other receiver drops), the packet is recorded lost
        with ``reason``, and the stale end timer becomes a no-op via
        the :meth:`_end` guard.
        """
        aborted = [tx for tx in self._active.values() if tx.source == station]
        for tx in aborted:
            del self._active[tx.seq]
            self._bound_terms.pop(tx.seq, None)
            self._tx_count[tx.source] -= 1
            self._powers[tx.source] -= tx.power_w
            if abs(self._powers[tx.source]) < 1e-18:
                self._powers[tx.source] = 0.0
            self._remove_axpy(tx.source, tx.power_w)
            self._field_changed()
            attempt = self._attempts.pop(tx.seq, None)
            self._sic_models.pop(tx.seq, None)
            if attempt is not None:
                self._trackers.remove(tx.seq)
                self._channel_query(tx.destination).release(tx.seq)
            self._lock_failures.pop(tx.seq, None)
            self._record_loss(tx, reason, frozenset(), float("nan"))
            if self.instr.active:
                self.instr.emit(
                    TxAbort(self.env.now, tx.source, tx.destination)
                )
        if aborted:
            self._update_attempts()

    def scale_link(self, receiver: int, source: int, factor: float) -> None:
        """Fade (or restore) one link: gain becomes ``nominal * factor``.

        The first fade privatises the medium's gain matrix so power
        control — which closes over the *builder's* matrix — keeps
        aiming at nominal gains: a faded link degrades delivered SIR
        instead of being silently compensated.  The incremental
        interference field is adjusted in the same step, so in-progress
        receptions immediately feel the change.
        """
        if receiver == source:
            raise ValueError("a link needs two distinct stations")
        if factor <= 0.0:
            raise ValueError("gain factor must be positive")
        if self.sparse is not None:
            rows, _ = self._column(source)
            position = int(np.searchsorted(rows, receiver))
            if position >= rows.size or int(rows[position]) != receiver:
                raise ValueError(
                    "cannot fade a link that was culled from the sparse "
                    "gain field"
                )
            if self._nominal_svals is None:
                self._nominal_svals = self._svals
                self._svals = self._svals.copy()
            index = int(self.sparse.indptr[source]) + position
            new_gain = float(self._nominal_svals[index]) * factor
            delta = new_gain - float(self._svals[index])
            if delta == 0.0:
                return
            self._svals[index] = new_gain
            self._interference[receiver] += self._powers[source] * delta
            self._field_changed()
            self._update_attempts()
            return
        if self._nominal_gains is None:
            self._nominal_gains = self.gains
            self.gains = self.gains.copy()
        new_gain = self._nominal_gains[receiver, source] * factor
        delta = new_gain - self.gains[receiver, source]
        if delta == 0.0:
            return
        self.gains[receiver, source] = new_gain
        self._gains_columns[source][receiver] = new_gain
        self._interference[receiver] += self._powers[source] * delta
        self._field_changed()
        self._update_attempts()

    def link_indices(
        self, receivers: np.ndarray, sources: np.ndarray
    ) -> Optional[np.ndarray]:
        """Sparse mode: flat CSR indices of ``(receiver, source)`` pairs.

        Culled pairs resolve to ``-1``.  The CSR structure is immutable
        for the lifetime of the medium, so a caller driving repeated
        :meth:`update_links` batches over a fixed link set (the
        continuous channel process) resolves once and caches the
        result.  Dense mode needs no resolution: returns ``None``.
        """
        if self.sparse is None:
            return None
        indptr, rows = self.sparse.indptr, self.sparse.rows
        receivers = np.asarray(receivers, dtype=np.intp)
        sources = np.asarray(sources, dtype=np.intp)
        indices = np.full(receivers.shape, -1, dtype=np.int64)
        for k in range(receivers.size):
            lo = int(indptr[sources[k]])
            hi = int(indptr[sources[k] + 1])
            position = lo + int(np.searchsorted(rows[lo:hi], receivers[k]))
            if position < hi and int(rows[position]) == int(receivers[k]):
                indices[k] = position
        return indices

    def update_links(
        self,
        receivers: np.ndarray,
        sources: np.ndarray,
        new_gains: np.ndarray,
        indices: Optional[np.ndarray] = None,
    ) -> int:
        """Batch absolute-gain update: the continuous-channel entry point.

        Where :meth:`scale_link` applies one *relative* factor against
        the nominal matrix (the one-shot LinkFade discipline), this
        sets many links to explicit new gains in a single pass — the
        shape a mobility/fading process produces each tick.  Pairs must
        be unique within one call.  The same copy-on-write
        privatisation applies, so the builder's nominal matrix (and
        therefore power control and the exact-restore witness) is never
        disturbed, and the incremental interference field absorbs the
        exact per-link deltas so in-progress receptions feel the change
        immediately; the periodic ``_resync_field`` drift check bounds
        the accumulated float error exactly as for transmission events.

        Sparse mode skips pairs culled from the CSR structure (their
        interference contribution is already covered by the build-time
        bounded-error accounting) and accrues the skip count in
        :attr:`culled_update_skips` — skipped, never silent.  Pass the
        cached :meth:`link_indices` result as ``indices`` to avoid
        re-resolving every tick.

        Returns the number of link entries actually applied.
        """
        receivers = np.asarray(receivers, dtype=np.intp)
        sources = np.asarray(sources, dtype=np.intp)
        values = np.asarray(new_gains, dtype=float)
        if not (receivers.shape == sources.shape == values.shape):
            raise ValueError("receivers, sources and gains must align")
        if receivers.size == 0:
            return 0
        if np.any(receivers == sources):
            raise ValueError("a link needs two distinct stations")
        if np.any(values <= 0.0):
            raise ValueError("link gains must be positive")
        if self.sparse is not None:
            if indices is None:
                indices = self.link_indices(receivers, sources)
            assert indices is not None
            if self._nominal_svals is None:
                self._nominal_svals = self._svals
                self._svals = self._svals.copy()
            live = indices >= 0
            self.culled_update_skips += int(indices.size) - int(
                np.count_nonzero(live)
            )
            flat = indices[live]
            receivers = receivers[live]
            sources = sources[live]
            values = values[live]
            delta = values - self._svals[flat]
            self._svals[flat] = values
        else:
            assert self.gains is not None and self._gains_columns is not None
            if self._nominal_gains is None:
                self._nominal_gains = self.gains
                self.gains = self.gains.copy()
            delta = values - self.gains[receivers, sources]
            self.gains[receivers, sources] = values
            self._gains_columns[sources, receivers] = values
        if self._active:
            # np.add.at: unbuffered, so repeated receivers (one station
            # hearing several updated sources) each land exactly once.
            np.add.at(
                self._interference, receivers, self._powers[sources] * delta
            )
        self._field_changed()
        self._update_attempts()
        return int(values.size)

    def channel_drift_from_nominal(self) -> float:
        """Max abs difference between live and nominal gains — the
        exact-restore witness (0.0 while the matrix is unprivatised)."""
        if self.sparse is not None:
            if self._nominal_svals is None or self._svals.size == 0:
                return 0.0
            return float(np.max(np.abs(self._svals - self._nominal_svals)))
        if self._nominal_gains is None:
            return 0.0
        assert self.gains is not None
        return float(np.max(np.abs(self.gains - self._nominal_gains)))

    def set_corruption(
        self, predicate: Optional[Callable[[Transmission], bool]]
    ) -> None:
        """Install (or clear, with ``None``) a corruption predicate.

        During an episode, each reception that would otherwise succeed
        is consulted against the predicate; ``True`` converts it into a
        loss with reason ``"corrupted"`` — decoder-level damage the SIR
        criterion cannot see.
        """
        self._corruption = predicate
