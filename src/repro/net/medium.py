"""The shared radio medium: the simulator's physical-layer oracle.

This module operationalises the Section 3 model.  It keeps the set of
in-flight transmissions and, at every change of that set that can lower
an SIR, re-evaluates the signal-to-interference ratio of every
in-progress reception against the continuous criterion (Eq. 4-6).  A
reception succeeds iff:

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
transmission starts or ends, one axpy over the transmitter's gain
column (``field ± column * power``) replaces the O(active × M)
matrix-vector recomputation, so every power query
(:meth:`Medium.interference_at`, :meth:`Medium.total_received_power`,
the per-reception tracker updates) is an O(1) lookup plus the
self-coupling/wanted-signal corrections.  A drift guard re-derives the
field from scratch every ``resync_events`` field changes (and whenever
the channel drains to idle, where the field is exactly zero), bounding
floating-point accumulation; under the determinism sanitizer the
resync also *asserts* that the incremental field still matches the
exact recomputation.

The trackers are folded only where an SIR can fall.  A burst that
ends or is aborted only takes power out of the field, and every step
from the field to an SIR is monotone under round-to-nearest, so no
tracked SIR can drop below what the last pass saw: such a retirement
skips the tracker pass, byte-identically.  It still folds the rows a
resync raised since their last pass (the exact field may sit above the
incremental one), and runs the whole pass while a cancelling receiver
model is tracked (its reduced level is not monotone in floating point).

Two gain representations sit behind one small private interface, and
the medium picks one from the type of the gains it is handed: a dense
``(M, M)`` matrix, or, at metro scale (where the dense matrix is 80 GB
at 10^5 stations), a horizon-culled
:class:`~repro.propagation.sparse.SparseGainField`.  Over the CSR
field the axpy is a scatter over the transmitter's column and tracker
updates touch only the receptions that column can affect.  Such a
scoped pass reaches a few rows (about three of some 240 tracked on the
20,000-station metro scene), where numpy's per-call dispatch would cost
more than the arithmetic, so it folds them one row at a time in Python
floats.  It runs the IEEE-754 operations of the pass over all rows, in
the same order, so either pass leaves a reception in the same state to
the last bit.  A pass over all rows (at a dense burst start, or after
a link write) stays one vectorized pass.
Significance culling under-reports interference by a *provably
bounded* amount — :meth:`Medium.field_error_bound_w` witnesses the
bound at any instant — and a cull threshold of zero makes the CSR
field bit-identical to the dense one.  The witness stays exact and
drift-free: each burst's term is cached when it begins and dropped
when it ends, and the bound is a C-level sum of the cached terms in
active-set order, so no per-transmit Python loop walks the active set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.collisions import CollisionType, InterferenceSource, classify_loss
from repro.core.reception import TrackerBatch
from repro.net.packet import Packet
from repro.propagation.sparse import SparseGainField
from repro.radio.receiver_model import SicReceiver
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
    transmission's ``seq``), so that a pass over all in-progress
    receptions is one vectorised pass.

    Attributes:
        transmission: the wanted transmission.
        channel: despreader channel index in use.
        failure_sources: the interferers significant at the moment the
            criterion first failed, if it did.
        sic_max_cancelled: peak interferers the receiver's SIC model
            cancelled at any one interference change (0 when the
            receiver has none).
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


class _DenseField:
    """A dense ``(M, M)`` gain matrix behind the medium's field interface.

    Each transmitter's column is kept as a row of a transposed
    contiguous copy, so the axpy reads it cache-friendly.  The first
    link write privatises the matrix (copy-on-write), so power control,
    which closes over the *builder's* matrix, keeps aiming at nominal
    gains: a faded link degrades delivered SIR instead of being
    silently compensated.
    """

    def __init__(self, gains: np.ndarray) -> None:
        gains = np.asarray(gains, dtype=float)
        if gains.ndim != 2 or gains.shape[0] != gains.shape[1]:
            raise ValueError("gain matrix must be square")
        # A retirement may skip the tracker pass only because it never
        # raises the field: every gain it subtracts must be finite and
        # >= 0.
        if gains.size and not (gains.min() >= 0.0 and gains.max() < math.inf):
            raise ValueError("power gains must be non-negative and finite")
        self.gains = gains
        self.count = int(gains.shape[0])
        self._columns = np.ascontiguousarray(gains.T)
        self._nominal: Optional[np.ndarray] = None
        # Scratch for the axpy; contents meaningless between calls.
        self._scratch = np.zeros(self.count)
        # A dense field culls nothing.
        self.culled_out_max = np.zeros(self.count)

    def add(self, field: np.ndarray, source: int, power_w: float) -> None:
        """``field += gains[:, source] * power_w``, the O(M) axpy."""
        np.multiply(self._columns[source], power_w, out=self._scratch)
        field += self._scratch

    def subtract(self, field: np.ndarray, source: int, power_w: float) -> None:
        """Exact mirror of :meth:`add`: the same products, subtracted."""
        np.multiply(self._columns[source], power_w, out=self._scratch)
        field -= self._scratch

    def gain(self, receiver: int, source: int) -> float:
        return float(self.gains[receiver, source])

    def gather(self, source: int, stations: np.ndarray) -> np.ndarray:
        return self._columns[source][stations]

    def exact(self, powers: np.ndarray) -> np.ndarray:
        """The Eq. 2 field recomputed from scratch: one matvec."""
        return self.gains @ powers

    def touched(self, source: int) -> Optional[np.ndarray]:
        """Every receiver sees every column change: no scoped update."""
        return None

    def _privatise(self) -> np.ndarray:
        if self._nominal is None:
            self._nominal = self.gains
            self.gains = self.gains.copy()
        return self._nominal

    def scale(self, receiver: int, source: int, factor: float) -> float:
        """Set one link to ``nominal * factor``; returns the gain change."""
        new_gain = self._privatise()[receiver, source] * factor
        delta = new_gain - self.gains[receiver, source]
        self.gains[receiver, source] = new_gain
        self._columns[source, receiver] = new_gain
        return delta

    def set(
        self, receivers: np.ndarray, sources: np.ndarray, values: np.ndarray
    ) -> np.ndarray:
        """Set unique links to absolute gains; returns the gain changes."""
        self._privatise()
        delta = values - self.gains[receivers, sources]
        self.gains[receivers, sources] = values
        self._columns[sources, receivers] = values
        return delta

    def drift(self) -> float:
        """Max abs difference between live and nominal gains."""
        if self._nominal is None:
            return 0.0
        return float(np.max(np.abs(self.gains - self._nominal)))


class _CsrField:
    """A :class:`~repro.propagation.sparse.SparseGainField` behind the
    medium's field interface.  Read-only: the CSR structure is built
    from geometry once, and no link write ever reaches it."""

    def __init__(self, gains: SparseGainField) -> None:
        self.gains = gains
        self.count = gains.count
        self.culled_out_max = gains.culled_out_max
        self._memo_source = -1
        self._memo: Tuple[np.ndarray, np.ndarray] = (
            np.zeros(0, dtype=np.intp),
            np.zeros(0),
        )

    def _column(self, source: int) -> Tuple[np.ndarray, np.ndarray]:
        """One transmitter's column as (receivers, gains).

        The stored int32 receivers are cast to ``intp`` here, once per
        column: every fancy index with an int32 array would otherwise
        make the same cast itself.  The last column read is kept, so a
        burst start reads its column once for the scatter, the wanted
        link's gain and the touched rows, and its end once for the
        scatter and the touched rows.  The field is read-only, so the
        kept column never goes stale; callers must not write to it.
        """
        if source == self._memo_source:
            return self._memo
        indptr = self.gains.indptr
        lo = int(indptr[source])
        hi = int(indptr[source + 1])
        self._memo = self.gains.rows[lo:hi].astype(np.intp), self.gains.vals[lo:hi]
        self._memo_source = source
        return self._memo

    def add(self, field: np.ndarray, source: int, power_w: float) -> None:
        """Scatter over the column's receivers.  The rows are unique, so
        the fancy-index in-place add performs exactly one dense-identical
        multiply-add per stored entry, and every unstored entry is an
        exact ``+0.0`` no-op (which is why a cull-nothing CSR field
        stays bit-identical to the dense one)."""
        rows, vals = self._column(source)
        field[rows] += vals * power_w

    def subtract(self, field: np.ndarray, source: int, power_w: float) -> None:
        """Exact mirror of :meth:`add`: the same products, subtracted."""
        rows, vals = self._column(source)
        field[rows] -= vals * power_w

    def gain(self, receiver: int, source: int) -> float:
        """The stored gain, found by binary search in the (kept) column
        of ascending receivers; culled and over-horizon links read 0.0.
        The medium never asks for a self-gain, so none is refused."""
        rows, vals = self._column(source)
        position = int(rows.searchsorted(receiver))
        if position < rows.size and rows[position] == receiver:
            return float(vals[position])
        return 0.0

    def gather(self, source: int, stations: np.ndarray) -> np.ndarray:
        return self.gains.gather(source, stations)

    def exact(self, powers: np.ndarray) -> np.ndarray:
        """The Eq. 2 field recomputed from scratch: one scatter per
        radiating column, in ascending source order."""
        exact = np.zeros(self.count)
        for source in np.nonzero(powers)[0]:
            rows, vals = self._column(int(source))
            exact[rows] += vals * powers[source]
        return exact

    def touched(self, source: int) -> Optional[np.ndarray]:
        """The receivers one change of ``source``'s column reaches."""
        return self._column(source)[0]

    def scale(self, receiver: int, source: int, factor: float) -> float:
        raise ValueError("a CSR gain field is read-only: links cannot be written")

    def set(
        self, receivers: np.ndarray, sources: np.ndarray, values: np.ndarray
    ) -> np.ndarray:
        raise ValueError("a CSR gain field is read-only: links cannot be written")

    def drift(self) -> float:
        return 0.0


class Medium:
    """The shared radio channel for one simulated network.

    Args:
        env: simulation environment.
        gains: ``(M, M)`` power-gain matrix (zero diagonal), or a
            :class:`~repro.propagation.sparse.SparseGainField` for the
            metro-scale medium.  Over the CSR field the O(M) axpy is a
            scatter over the transmitter's column and only the
            reception trackers whose receiver that column touches are
            updated; with a cull threshold of zero the two are
            bit-identical, and with culling on the under-reported
            interference is bounded by :meth:`field_error_bound_w`.
            Only a dense medium's links can be faded or updated.
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
            changes (drift guard).
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
        resync_events: int = 4096,
    ) -> None:
        self._field: Union[_DenseField, _CsrField] = (
            _CsrField(gains)
            if isinstance(gains, SparseGainField)
            else _DenseField(gains)
        )
        stations = self._field.count
        thresholds = np.asarray(sir_thresholds, dtype=float)
        if thresholds.shape != (stations,):
            raise ValueError("need one SIR threshold per station")
        if thermal_noise_w < 0.0:
            raise ValueError("thermal noise must be non-negative")
        if resync_events < 1:
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
        # Each in-flight burst's culling-bound term
        # ``P_j * culled_out_max[j]``, keyed by seq and inserted/removed
        # in lockstep with _active so the two share one order (every
        # term is 0.0 over a dense field, which culls nothing).
        self._bound_terms: Dict[int, float] = {}
        # Power currently radiated per station; lets interference_at be
        # one vectorised dot product instead of a loop over the active
        # set (the simulator's hot path).
        self._powers = np.zeros(stations)
        # The Eq. 2 received-power field ``gains @ _powers``, maintained
        # incrementally: one axpy over a gain column per transmission
        # start/end.
        self._interference = np.zeros(stations)
        # Per-station count of in-flight transmissions (always 0 or 1
        # for well-behaved MACs); makes is_station_transmitting O(1).
        self._tx_count = np.zeros(stations, dtype=np.int64)
        self._resync_events = resync_events
        self._field_changes = 0
        # Per station: a resync raised the field at this tracked
        # receiver, and no tracker pass has evaluated it since.  A
        # retirement folds only these rows.  _resynced is the cheap
        # guard, set while any mark may be, so a medium with none set
        # pays no numpy call for them.
        self._raised = np.zeros(stations, dtype=bool)
        self._resynced = False
        # Scratch buffers for the hot path (the per-attempt gathers and
        # the touched-receiver mask of a scoped update); contents
        # meaningless between calls.
        self._gather = np.zeros(16)
        self._gather_own = np.zeros(16)
        self._touched = np.zeros(stations, dtype=bool)
        self._attempts: Dict[int, ReceptionAttempt] = {}
        self._trackers = TrackerBatch()
        # Receptions whose despreader bank carries a SicReceiver, keyed
        # by seq.  Empty unless a bank opts in, so the default path
        # pays one falsy dict check per update.
        self._sic_models: Dict[int, SicReceiver] = {}
        self._lock_failures: Dict[int, str] = {}
        # Fault support: stations currently down (never lock receptions)
        # and an optional per-reception corruption predicate.  Both stay
        # inert until a fault actually uses them.
        self._down = np.zeros(stations, dtype=bool)
        self._corruption: Optional[Callable[[Transmission], bool]] = None
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

    def field_error_bound_w(self) -> float:
        """Provable upper bound on the interference the stored field
        under-reports at *any* receiver, right now.

        The true dense field exceeds a culled CSR field at receiver
        ``i`` by exactly ``sum_{j active} P_j * g_ij^culled``, and every
        culled ``g_ij`` is at most the transmitter's
        ``culled_out_max[j]`` recorded at build time, so the bound is
        ``sum_{j active} P_j * culled_out_max[j]``.  Each burst's term
        is cached when it begins and dropped when it ends, and the
        bound is summed afresh from the cached terms, in active-set
        order, by the builtin ``sum`` — still exact and drift-free (no
        running total is kept), and a C-level loop rather than a Python
        walk of the active set.  A dense field culls nothing: 0.0.
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
                    total -= excluded.power_w * self._field.gain(
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
                else self._field.gain(receiver, tx.source)
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
        model: SicReceiver,
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
            power = other.power_w * self._field.gain(receiver, other.source)
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
        if not 0.0 < power_w < math.inf:
            raise ValueError("transmit power must be positive and finite")
        if not 0.0 < duration < math.inf:
            raise ValueError("duration must be positive and finite")
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
        if self._field_changes >= self._resync_events:
            self._resync_field()
        elif not self._active:
            self._interference[:] = 0.0

    def _resync_field(self) -> None:
        # The exact recompute keeps each field's own summation order: a
        # resync writes these floats into the field every later SIR reads.
        exact = self._field.exact(self._powers)
        if self.env.sanitizing:
            scale = float(np.max(exact)) + self.thermal_noise_w + 1.0
            if not np.allclose(self._interference, exact, rtol=1e-6, atol=1e-9 * scale):
                worst = float(np.max(np.abs(self._interference - exact)))
                raise SanitizerError(
                    "incremental interference field drifted from the exact "
                    f"gains @ powers recompute (max abs error {worst:.3e} W "
                    f"after {self._field_changes} field changes)"
                )
            self._check_bound_terms()
        # Mark the tracked receivers the exact field raises: only their
        # SIRs can sit below what their last pass saw after a retirement.
        receivers = self._trackers.receivers
        raised = receivers[exact[receivers] > self._interference[receivers]]
        self._interference = exact
        self._field_changes = 0
        if raised.size:
            self._raised[raised] = True
            self._resynced = True

    def _check_bound_terms(self) -> None:
        """Sanitizer: the cached culling-bound terms must cover exactly
        the active set, in its order, and sum to the from-scratch bound."""
        # Order matters too: the cached sum equals the from-scratch one
        # bit for bit only when both add the same terms in the same order.
        if list(self._bound_terms) != list(self._active):
            raise SanitizerError(
                "cached culling-bound terms do not match the active set "
                f"({len(self._bound_terms)} terms, {len(self._active)} "
                "transmissions in flight)"
            )
        culled_out_max = self._field.culled_out_max
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
        """Add one transmitter's contribution to the incremental field."""
        self._field.add(self._interference, source, power_w)

    def _remove_axpy(self, source: int, power_w: float) -> None:
        """Subtract one transmitter's contribution (exact mirror of
        :meth:`_apply_axpy`, same products, subtracted)."""
        self._field.subtract(self._interference, source, power_w)

    def _begin(self, tx: Transmission) -> None:
        self._active[tx.seq] = tx
        self._bound_terms[tx.seq] = tx.power_w * float(
            self._field.culled_out_max[tx.source]
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
        self._update_attempts(tx)

    def _retire(self, tx: Transmission) -> Optional[ReceptionAttempt]:
        """Take an ended or aborted burst off the air: its power leaves
        the field at once.  Returns its reception attempt, if one was
        locked; the caller settles the tracker and the despreader."""
        del self._active[tx.seq]
        del self._bound_terms[tx.seq]
        self._tx_count[tx.source] -= 1
        self._powers[tx.source] -= tx.power_w
        if abs(self._powers[tx.source]) < 1e-18:
            self._powers[tx.source] = 0.0
        self._remove_axpy(tx.source, tx.power_w)
        self._field_changed()
        self._sic_models.pop(tx.seq, None)
        return self._attempts.pop(tx.seq, None)

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
        signal_power = tx.power_w * self._field.gain(receiver, tx.source)
        self._trackers.add(
            tag=tx.seq,
            receiver=receiver,
            threshold=float(self.sir_thresholds[receiver]),
            signal_power_w=signal_power,
            noise_power_w=self.thermal_noise_w,
        )
        self._attempts[tx.seq] = ReceptionAttempt(tx, channel)
        model = getattr(bank, "model", None)
        if model is not None:
            self._sic_models[tx.seq] = model
        if self.instr.active:
            self.instr.emit(
                RxLock(self.env.now, receiver, tx.source, channel)
            )

    def _reached(self, tx: Optional[Transmission]) -> Optional[np.ndarray]:
        """The tracked receptions a change of ``tx``'s column reaches, as
        a mask over dense tracker positions; ``None`` means all of them.

        A CSR field scopes the change to the receivers in the
        transmitter's column, the transmitter itself (its own radiated
        power feeds the :data:`SELF_COUPLING_GAIN` term — the Type 3
        mechanism when a locked receiver later keys up), and the
        destination (a freshly locked attempt needs its first sample
        even if the wanted link was culled).  Everything else saw the
        identical interference level.  A dense field, and every change
        without a burst, reaches every reception.
        """
        if tx is None or (rows := self._field.touched(tx.source)) is None:
            return None
        touched = self._touched
        touched[rows] = True
        touched[tx.source] = True
        touched[tx.destination] = True
        reached = touched[self._trackers.receivers]
        touched[rows] = False
        touched[tx.source] = False
        touched[tx.destination] = False
        return reached

    def _update_attempts(self, tx: Optional[Transmission] = None) -> None:
        """Fold the current field into the in-progress receptions that
        the begin or end of ``tx`` reached (see :meth:`_reached`), or
        into every reception when ``tx`` is ``None``."""
        if self._trackers.count == 0:
            return
        reached = self._reached(tx)
        if reached is None:
            self._fold(None)
        elif positions := reached.nonzero()[0].tolist():
            self._fold(positions)

    def _fold(self, positions: Optional[List[int]]) -> None:
        """One tracker pass over the receptions at dense ``positions``
        (all of them when ``None``); it clears their resync marks.

        A pass over all rows is one numpy pass.  A pass over given rows
        (a CSR burst's column, or the marked rows a retirement refolds)
        reaches a few of them, so it runs row by row in Python floats,
        with the same IEEE-754 operations in the same order: per-entry
        results are the same whichever subset is folded."""
        batch = self._trackers
        if positions is None:
            if self._resynced:
                self._raised.fill(False)
                self._resynced = False
            count = batch.count
            receivers = batch.receivers
            # Gather the incremental field at each attempt's receiver,
            # then apply the two per-attempt corrections: the receiver's
            # own transmitter couples in, and the wanted signal (stored
            # as the tracker's signal power at lock time) is not
            # interference.
            if self._gather.size < count:
                size = max(count, 2 * self._gather.size)
                self._gather = np.zeros(size)
                self._gather_own = np.zeros(size)
            interference = self._gather[:count]
            np.take(self._interference, receivers, out=interference)
            own = self._gather_own[:count]
            np.take(self._powers, receivers, out=own)
            own *= SELF_COUPLING_GAIN
            interference += own
            interference -= batch.signals
            np.maximum(interference, 0.0, out=interference)
            for seq, model in self._sic_models.items():
                position = batch.position(seq)
                interference[position] = self._cancel_for(
                    seq,
                    model,
                    float(batch.signals[position]),
                    float(interference[position]),
                )
            failed = batch.update(self.env.now, interference)
        else:
            receivers = batch.receivers
            signals = batch.signals
            field = self._interference
            powers = self._powers
            raised = self._raised if self._resynced else None
            # An untouched SIC reception saw no field change, so its
            # cancelled level is unchanged too: only the folded rows
            # need their model re-applied.
            cancelling = (
                {
                    batch.position(seq): (seq, model)
                    for seq, model in self._sic_models.items()
                }
                if self._sic_models
                else None
            )
            levels: List[float] = []
            for position in positions:
                receiver = receivers.item(position)
                if raised is not None:
                    raised[receiver] = False
                signal = signals.item(position)
                level = field.item(receiver) + powers.item(receiver) * SELF_COUPLING_GAIN
                level = max(level - signal, 0.0)
                if cancelling is not None and position in cancelling:
                    seq, model = cancelling[position]
                    level = self._cancel_for(seq, model, signal, level)
                levels.append(level)
            failed = batch.update_where(self.env.now, levels, positions)
        for seq in failed:
            attempt = self._attempts[seq]
            attempt.failure_sources = self._significant_sources(
                attempt.transmission.destination, seq
            )

    def _fold_retirement(self, tx: Optional[Transmission] = None) -> None:
        """The tracker pass after bursts left the field, when it can
        change anything.

        A retirement only subtracts non-negative products from the
        field and ``_powers``, and each step from there to an SIR
        (``+ own``, ``- signal``, ``max(., 0)``, ``+ noise``,
        ``signal / .``) is monotone under round-to-nearest.  So every
        SIR the pass would compute is at least the one the reception's
        last pass folded in: no ``min_sir``, ``failed_at`` or failure
        source could change, and the pass is skipped.  Two cases break
        that chain:

        * a resync raised a reception's row since its last pass: the
          exact field can sit above the incremental one.
          ``_resync_field`` marks such rows, every pass clears the marks
          of the rows it evaluates, and a retirement folds only marked
          rows: on a CSR medium those its column touches (see
          :meth:`_reached`), on a dense medium or at an abort all of
          them.  An unmarked row has only lost power since its last
          pass;
        * a cancelling receiver model is tracked: its reduced level is
          monotone only in exact arithmetic, so the whole pass runs.
        """
        if self._sic_models:
            self._update_attempts(tx)
            return
        if not self._resynced:
            return
        marked = self._raised[self._trackers.receivers]
        if not marked.any():
            # The marks left sit where no reception is tracked, and a
            # reception locked there later is folded by its own begin.
            self._raised.fill(False)
            self._resynced = False
            return
        reached = self._reached(tx)
        if reached is not None:
            marked &= reached
        if positions := marked.nonzero()[0].tolist():
            self._fold(positions)

    def _notify_overhearers(self, tx: Transmission) -> None:
        """One vectorised eligibility pass over all registered overhearers.

        Called from :meth:`_end` *after* the ended transmission left
        ``_active``/``_powers``/``_interference``, so the field already
        excludes it and no ``exclude_seq`` correction is needed.
        """
        stations = self._overhear_stations
        if stations.size == 0:
            return
        signals = tx.power_w * self._field.gather(tx.source, stations)
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
        attempt = self._retire(tx)
        if self.instr.active:
            self.instr.emit(TxEnd(self.env.now, tx.source, tx.destination))
        record = self._trackers.remove(tx.seq) if attempt is not None else None
        # Interference at the remaining receivers only drops, so this
        # folds the trackers only where an SIR may still have fallen.
        self._fold_retirement(tx)
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
            if self._retire(tx) is not None:
                self._trackers.remove(tx.seq)
                self._channel_query(tx.destination).release(tx.seq)
            self._lock_failures.pop(tx.seq, None)
            self._record_loss(tx, reason, frozenset(), float("nan"))
            if self.instr.active:
                self.instr.emit(
                    TxAbort(self.env.now, tx.source, tx.destination)
                )
        if aborted:
            self._fold_retirement()

    def scale_link(self, receiver: int, source: int, factor: float) -> None:
        """Fade (or restore) one link: gain becomes ``nominal * factor``.

        The first fade privatises the medium's gain matrix so power
        control — which closes over the *builder's* matrix — keeps
        aiming at nominal gains: a faded link degrades delivered SIR
        instead of being silently compensated.  The incremental
        interference field is adjusted in the same step, so in-progress
        receptions immediately feel the change.  A CSR medium's links
        cannot be written: ``ValueError``.
        """
        if receiver == source:
            raise ValueError("a link needs two distinct stations")
        if not 0.0 < factor < math.inf:
            raise ValueError("gain factor must be positive and finite")
        delta = self._field.scale(receiver, source, factor)
        if delta == 0.0:
            return
        self._interference[receiver] += self._powers[source] * delta
        self._field_changed()
        self._update_attempts()

    def update_links(
        self,
        receivers: np.ndarray,
        sources: np.ndarray,
        new_gains: np.ndarray,
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
        A CSR medium's links cannot be written: ``ValueError``.

        Returns the number of link entries applied.
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
        if not np.all((values > 0.0) & (values < math.inf)):
            raise ValueError("link gains must be positive and finite")
        delta = self._field.set(receivers, sources, values)
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
        exact-restore witness (0.0 while no link was ever written)."""
        return self._field.drift()

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
