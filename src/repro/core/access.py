"""The collision-free channel access scheme (Section 7).

The scheme in one sentence: every station publishes a pseudo-random
transmit/receive schedule reckoned by its own free-running clock, and a
sender "will compare its own schedule with the receiving station's
schedule and send the packet during a time when one of its own transmit
windows overlaps with a receive window of the receiving station enough
to handle the packet length".

This module implements the sender-side computation:

* :class:`ScheduleView` — a station's schedule windows mapped into
  global simulation time, either exactly (its own clock) or through a
  :class:`~repro.clock.sync.NeighborClockModel` (how a sender sees a
  neighbour's schedule);
* :func:`find_transmit_window` — the overlap search that both the
  network MAC and the metro driver run, including the Section 7.3
  extension: intervals that fall inside the receive windows of *other*
  near neighbours that the transmission would significantly interfere
  with can be excluded ("each must refrain from transmitting in a
  manner that interferes excessively with the receptions at its
  neighbor").

A sender compares nearly the same stretch of the same schedules on
each search, so each view derives a designation's windows once, into a
*window table*: the schedule's merged runs from a base slot on, each
run's start and end mapped to global time by the view's ``to_global``.
A new table derives one run and grows by doubling, so a one-shot query
derives little past its answer.  Searches and the public window
streams walk the tables; only a stream's first window, clipped at the
query instant, is mapped per query.  A neighbour view's tables are
keyed on its model's fitted ``(intercept, slope)`` and rebuilt when a
refit in place changes it; any table is rebuilt from the query's slot
when a query falls before its base, past its last run or far past its
first.  A cached float is the one a fresh derivation computes, by the
same expression, so the tables never change a search's result.

Because the receive windows a station publishes are a *commitment to
listen*, a sender that transmits only inside such an overlap can never
cause a Type 3 collision at the addressee; Type 2 is absorbed by the
receiver's despreader bank; and the Section 7.3 exclusion plus the
spread-spectrum interference budget remove Type 1 losses.  No
transmission beyond the data packet itself is needed at any hop.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence, Tuple

from repro.clock.clock import Clock
from repro.clock.sync import NeighborClockModel
from repro.core.intervals import Interval, first_fitting, intersect, subtract
from repro.core.schedule import Schedule

__all__ = [
    "ScheduleView",
    "NoTransmitWindowError",
    "find_transmit_window",
    "DEFAULT_SEARCH_SLOTS",
]

DEFAULT_SEARCH_SLOTS = 10_000
"""Default search horizon, in slots, before giving up on a neighbour."""

#: Runs a new window table derives first.  It then grows by as many
#: runs as it already holds, up to :data:`_CHUNK_RUNS` at a time, so a
#: one-shot query derives little beyond its answer while a stretch
#: queried again and again is soon derived in full chunks.
_FIRST_RUNS = 1

#: The most runs a window table derives at a time: about 75 slots of
#: schedule at the default duty cycle, the next several searches' worth.
_CHUNK_RUNS = 16

#: A query this many runs (about 1,200 slots) past its table's first
#: run rebuilds the table from the query's slot, so a long
#: simulation's tables stay bounded.
_STALE_RUNS = 256


class NoTransmitWindowError(RuntimeError):
    """No suitable overlap exists within the search horizon.

    With independent pseudo-random schedules this is vanishingly rare
    (the expected wait is ~1/(p(1-p)) slots); it signals either a
    degenerate schedule parameter or clocks so close that the schedules
    are correlated (Section 7.1's "unfortunate phase offsets").
    """


_NO_SLOTS = array("q")
_NO_TIMES = array("d")


class _WindowTable:
    """One designation's merged schedule runs, from slot ``base`` on.

    ``starts`` and ``ends`` hold each run's first slot and the slot
    after its last (the first run starts no earlier than ``base``);
    ``lo`` and ``hi`` hold ``to_global`` of their local start times.
    ``key`` is the model fit the times were mapped with.  The arrays
    only ever grow, so a stream holding a table stays valid after the
    view swaps in a rebuilt one.
    """

    __slots__ = ("key", "base", "starts", "ends", "lo", "hi")

    def __init__(self, key: Optional[Tuple[float, float]], base: int) -> None:
        self.key = key
        self.base = base
        # Copies of an empty array: cheaper than parsing a typecode,
        # and a one-shot search builds a table per query.
        self.starts = _NO_SLOTS[:]
        self.ends = _NO_SLOTS[:]
        self.lo = _NO_TIMES[:]
        self.hi = _NO_TIMES[:]


@dataclass(frozen=True)
class ScheduleView:
    """A station's schedule windows expressed in global time.

    Attributes:
        schedule: the (shared) schedule function.
        to_global: maps the station's local clock reading to global time.
        to_local: maps global time to the station's local clock reading.

    For the sender's own schedule the mappings come straight from its
    clock; for a neighbour they are composed with the sender's fitted
    clock model, so any model error shows up as window misalignment —
    which the ``guard`` margin in :func:`find_transmit_window` absorbs.
    The mappings must stay fixed, except through the model's fit: the
    window tables are rebuilt when that fit changes.
    """

    schedule: Schedule
    to_global: Callable[[float], float]
    to_local: Callable[[float], float]
    #: The neighbour model the mappings go through; its fit keys the
    #: window tables.  ``None`` for fixed mappings.
    _model: Optional[NeighborClockModel] = field(
        default=None, repr=False, compare=False
    )
    #: The window tables, indexed by designation (1 = receive).  Pure
    #: cache: excluded from equality and never observable.  A shared
    #: empty pair until the first search, so building a network's
    #: thousands of views allocates nothing more.
    _tables: Tuple[Optional[_WindowTable], Optional[_WindowTable]] = field(
        default=(None, None), init=False, repr=False, compare=False
    )

    @classmethod
    def own(cls, schedule: Schedule, clock: Clock) -> "ScheduleView":
        """The view a station has of its own schedule (exact)."""
        return cls(schedule, clock.true_time, clock.reading)

    @classmethod
    def of_neighbor(
        cls,
        schedule: Schedule,
        own_clock: Clock,
        model: NeighborClockModel,
    ) -> "ScheduleView":
        """A sender's view of a neighbour's schedule via its clock model.

        Global time converts to the neighbour's estimated local time by
        going through the sender's own clock and the fitted affine
        relation between the two clocks.
        """

        def to_local(global_time: float) -> float:
            return model.predict_neighbor_reading(own_clock.reading(global_time))

        def to_global(neighbor_local: float) -> float:
            return own_clock.true_time(model.own_reading_for(neighbor_local))

        return cls(schedule, to_global, to_local, model)

    def _extend(self, table: _WindowTable, want: int) -> None:
        """Append the next runs of designation ``want`` (1 = receive),
        found and mapped as :meth:`Schedule.windows` and ``to_global``
        would: :data:`_FIRST_RUNS` to a new table, then as many as it
        holds, up to :data:`_CHUNK_RUNS`."""
        schedule = self.schedule
        find = schedule._find_designation
        slot_time = schedule.slot_time
        to_global = self.to_global
        other = 1 - want
        starts, ends, lows, highs = table.starts, table.ends, table.lo, table.hi
        held = len(ends)
        index = ends[-1] + 1 if held else table.base
        for _ in range(min(max(held, _FIRST_RUNS), _CHUNK_RUNS)):
            run_start = find(index, want)
            run_end = find(run_start + 1, other)
            starts.append(run_start)
            ends.append(run_end)
            lows.append(to_global(run_start * slot_time))
            highs.append(to_global(run_end * slot_time))
            index = run_end + 1

    def _rebuild(
        self, want: int, key: Optional[Tuple[float, float]], base: int
    ) -> _WindowTable:
        table = _WindowTable(key, base)
        self._extend(table, want)
        tables = (self._tables[0], table) if want else (table, self._tables[1])
        object.__setattr__(self, "_tables", tables)
        return table

    def _first_window(
        self, from_global: float, want: int
    ) -> Tuple[_WindowTable, int, float]:
        """The table of designation ``want``, the position in it of the
        first window ending after ``from_global``, and that window's
        start clipped at ``from_global``.

        The clip is computed as :meth:`Schedule.windows` computes it,
        from the first wanted slot at or after the query's, and mapped
        through ``to_global``: the round trip need not return
        ``from_global`` exactly.
        """
        start_local = self.to_local(from_global)
        schedule = self.schedule
        slot_time = schedule.slot_time
        index = schedule.slot_index(start_local)
        model = self._model
        key = None if model is None else model._fitted()
        table = self._tables[want]
        if table is None or table.key != key or index < table.base:
            table = self._rebuild(want, key, index)
        ends = table.ends
        position = bisect_right(ends, index)
        if position == len(ends) or position > _STALE_RUNS:
            table = self._rebuild(want, key, index)
            ends = table.ends
            position = 0
        # Schedule.windows skips a run that ends by the query instant.
        while ends[position] * slot_time <= start_local:
            position += 1
            if position == len(ends):
                self._extend(table, want)
        run_start = max(table.starts[position], index)
        return table, position, self.to_global(max(run_start * slot_time, start_local))

    def _windows_global(
        self, from_global: float, receive: bool
    ) -> Iterator[Interval]:
        want = 1 if receive else 0
        model = self._model
        table, position, lo = self._first_window(from_global, want)
        while True:
            yield (lo, table.hi[position])
            position += 1
            if model is not None and model._fitted() != table.key:
                # Refitted while this stream was suspended: map the rest
                # with the new fit, from the run after the last one.
                table = self._rebuild(
                    want, model._fitted(), table.ends[position - 1] + 1
                )
                position = 0
            elif position == len(table.ends):
                self._extend(table, want)
            lo = table.lo[position]

    def transmit_windows(self, from_global: float) -> Iterator[Interval]:
        """Merged transmit windows in global time, from ``from_global``."""
        return self._windows_global(from_global, receive=False)

    def receive_windows(self, from_global: float) -> Iterator[Interval]:
        """Merged receive windows in global time, from ``from_global``."""
        return self._windows_global(from_global, receive=True)

    def is_receiving_at(self, global_time: float) -> bool:
        """Whether this station is committed to listen at ``global_time``."""
        return self.schedule.is_receiving_at(self.to_local(global_time))


def _bounded_windows(
    view: ScheduleView,
    from_global: float,
    want: int,
    guard: float,
    horizon: float,
    offset: float = 0.0,
) -> Iterator[Interval]:
    """One view's windows of designation ``want`` (1 = receive) from
    ``from_global``, shifted by ``offset``, shrunk by ``guard`` at both
    ends (dropping those it empties), and ended at the first whose
    shrunk start is at or beyond ``horizon``, kept or dropped: window
    starts only grow, so no later window could be yielded."""
    table, position, lo = view._first_window(from_global, want)
    lows, highs = table.lo, table.hi
    double_guard = 2.0 * guard
    hi = highs[position]
    while True:
        if offset != 0.0:
            lo += offset
            hi += offset
        start = lo + guard
        if start >= horizon:
            return
        if hi - lo > double_guard:
            yield (start, hi - guard)
        position += 1
        if position == len(lows):
            view._extend(table, want)
        lo = lows[position]
        hi = highs[position]


def _earliest_overlap(
    sender: ScheduleView,
    receiver: ScheduleView,
    duration: float,
    earliest: float,
    guard: float,
    horizon: float,
    offset: float,
) -> Optional[Interval]:
    """``first_fitting(intersect(a, b), duration, earliest)`` over the
    sender's and receiver's :func:`_bounded_windows` streams ``a`` and
    ``b``, as one loop over their window tables: the same comparisons
    in the same order (``max``/``min`` written out with their tie rule,
    which keeps the sign of a zero), with no generator between them.
    Each skip past windows the guard empties stops at the horizon too,
    so a guard no window survives cannot walk the schedule forever."""
    s_table, s_position, s_lo = sender._first_window(earliest, 0)
    r_table, r_position, r_lo = receiver._first_window(earliest, 1)
    s_lows, s_highs = s_table.lo, s_table.hi
    r_lows, r_highs = r_table.lo, r_table.hi
    s_hi = s_highs[s_position]
    r_hi = r_highs[r_position]
    double_guard = 2.0 * guard
    # The first window of each stream, through the guard.
    while not s_hi - s_lo > double_guard:
        if s_lo + guard >= horizon:
            return None
        s_position += 1
        if s_position == len(s_lows):
            sender._extend(s_table, 0)
        s_lo = s_lows[s_position]
        s_hi = s_highs[s_position]
    a_lo = s_lo + guard
    if a_lo >= horizon:
        return None
    a_hi = s_hi - guard
    if offset != 0.0:
        r_lo += offset
        r_hi += offset
    while not r_hi - r_lo > double_guard:
        if r_lo + guard >= horizon:
            return None
        r_position += 1
        if r_position == len(r_lows):
            receiver._extend(r_table, 1)
        r_lo = r_lows[r_position]
        r_hi = r_highs[r_position]
        if offset != 0.0:
            r_lo += offset
            r_hi += offset
    b_lo = r_lo + guard
    if b_lo >= horizon:
        return None
    b_hi = r_hi - guard
    while True:
        start = b_lo if b_lo > a_lo else a_lo
        end = b_hi if b_hi < a_hi else a_hi
        if start < end:
            candidate = earliest if earliest > start else start
            if end - candidate >= duration:
                return (candidate, candidate + duration)
        # Advance whichever window ends first, to its stream's next
        # window that survives the guard.
        if a_hi <= b_hi:
            while True:
                s_position += 1
                if s_position == len(s_lows):
                    sender._extend(s_table, 0)
                s_lo = s_lows[s_position]
                s_hi = s_highs[s_position]
                if s_hi - s_lo > double_guard or s_lo + guard >= horizon:
                    break
            a_lo = s_lo + guard
            if a_lo >= horizon:
                return None
            a_hi = s_hi - guard
        else:
            while True:
                r_position += 1
                if r_position == len(r_lows):
                    receiver._extend(r_table, 1)
                r_lo = r_lows[r_position]
                r_hi = r_highs[r_position]
                if offset != 0.0:
                    r_lo += offset
                    r_hi += offset
                if r_hi - r_lo > double_guard or r_lo + guard >= horizon:
                    break
            b_lo = r_lo + guard
            if b_lo >= horizon:
                return None
            b_hi = r_hi - guard


def _shifted(windows: Iterator[Interval], offset: float) -> Iterator[Interval]:
    """Translate every window by ``offset`` (order is preserved)."""
    if offset == 0.0:
        yield from windows
        return
    for lo, hi in windows:
        yield (lo + offset, hi + offset)


def _grown(windows: Iterator[Interval], guard: float) -> Iterator[Interval]:
    """Grow each window by ``guard`` at both ends, merging any overlaps."""
    pending: Optional[Interval] = None
    for lo, hi in windows:
        lo, hi = lo - guard, hi + guard
        if pending is None:
            pending = (lo, hi)
        elif lo <= pending[1]:
            pending = (pending[0], max(pending[1], hi))
        else:
            yield pending
            pending = (lo, hi)
    if pending is not None:
        yield pending


def find_transmit_window(
    sender: ScheduleView,
    receiver: ScheduleView,
    duration: float,
    earliest: float,
    guard: float = 0.0,
    avoid: Sequence[ScheduleView] = (),
    search_slots: int = DEFAULT_SEARCH_SLOTS,
    propagation_delay: float = 0.0,
) -> Interval:
    """Earliest interval in which the sender may convey one packet.

    The returned global-time interval of length ``duration`` starts at
    or after ``earliest``, lies inside one of the sender's transmit
    windows and inside one of the receiver's receive windows — both
    shrunk by ``guard`` on each side (for the receiver, the guard
    absorbs clock-model error; for the sender, it keeps the burst
    strictly clear of its own slot boundaries, where floating-point
    round-trips through the clock mapping could otherwise land a start
    an epsilon inside a receive slot) — and outside the receive windows
    of every view in ``avoid`` (grown by ``guard``), the Section 7.3
    courtesy to near neighbours the transmission would interfere with
    excessively.

    ``propagation_delay`` implements Section 3.3's remark that "actual
    delays could be observed and easily compensated for in the
    scheduling technique": the sender leads its burst so that the
    packet *arrives* inside the receiver's window — the constraint on
    the receiver applies to ``[start + delay, start + delay +
    duration]`` while the sender's own window constrains ``[start,
    start + duration]``.  Avoid views are treated like receivers (their
    victims also hear the burst delayed); the per-victim delay spread
    is sub-guard at any plausible geometry, so one delay serves all.

    Raises:
        NoTransmitWindowError: no overlap within ``search_slots`` slots.
        ValueError: an input is out of range or not finite (a NaN
            guard or delay would never let the search reach its horizon).
    """
    isfinite = math.isfinite
    if not (
        isfinite(duration)
        and isfinite(earliest)
        and isfinite(guard)
        and isfinite(propagation_delay)
    ):
        raise ValueError(
            "duration, earliest, guard and propagation delay must be finite"
        )
    if duration <= 0.0:
        raise ValueError("duration must be positive")
    if guard < 0.0:
        raise ValueError("guard must be non-negative")
    if search_slots < 1:
        raise ValueError("search horizon must be at least one slot")
    if propagation_delay < 0.0:
        raise ValueError("propagation delay must be non-negative")

    # The sender's and receiver's windows end at the horizon: the
    # search would otherwise walk forever whenever the combination is
    # empty (e.g. two stations with identical clocks, whose transmit
    # and receive windows are exact complements — the Section 7.1
    # failure mode the random offsets exist to prevent).
    horizon = earliest + search_slots * sender.schedule.slot_time
    # Receiver-side windows are shifted back by the propagation delay:
    # a burst transmitted during the shifted window arrives during the
    # published one.
    offset = -propagation_delay
    if avoid:
        candidates: Iterator[Interval] = intersect(
            _bounded_windows(sender, earliest, 0, guard, horizon),
            _bounded_windows(receiver, earliest, 1, guard, horizon, offset),
        )
        for neighbor in avoid:
            candidates = subtract(
                candidates,
                _grown(_shifted(neighbor.receive_windows(earliest), offset), guard),
            )
        window = first_fitting(candidates, duration, not_before=earliest)
    else:
        window = _earliest_overlap(
            sender, receiver, duration, earliest, guard, horizon, offset
        )
    if window is None:
        raise NoTransmitWindowError(
            f"no {duration}-long overlap within {search_slots} slots of {earliest}"
        )
    return window


#: The margin a reused search keeps below its answer, per unit of the
#: search's operand magnitude: 64 unit roundoffs, eight times the
#: ``to_local`` -> ``to_global`` round-trip error bound of DESIGN §4.
_REUSE_MARGIN = 64.0 * 2.0**-53

#: An absolute floor under that margin: rounding a subnormal result
#: errs by an absolute amount, not a relative one.
_REUSE_MARGIN_FLOOR = 2.0**-1000


def _reuse_until(
    clock: Clock,
    receiver: ScheduleView,
    avoid: Sequence[ScheduleView],
    duration: float,
    earliest: float,
    start: float,
    guard: float,
) -> float:
    """The latest instant from which :func:`find_transmit_window`,
    asked with every input but ``earliest`` unchanged, again returns
    ``start``, the answer it gave from ``earliest``; ``-inf`` when no
    later instant is certain.

    ``clock`` is the sender's own clock, which the sender's view maps
    through directly and the receiver and avoid views through their
    neighbour models.  A later query can change the answer only by
    clipping a first window of the sender or receiver past ``start -
    guard`` (clipped at the query's ``to_local`` -> ``to_global``
    round trip, not at the query), or by outliving an avoid view's
    first receive window.  The margin bounds that round trip's error
    from the operands' magnitudes (DESIGN §4, "Reusing a plan").
    """
    model = receiver._model
    if model is None or not start - guard > earliest:
        return -math.inf
    intercept, slope = model._fitted()
    spread = abs(intercept) / slope  # the largest |intercept| / slope
    reach = 0.0  # the largest |end| of an avoid view's first window
    ends = []
    for view in avoid:
        model = view._model
        if model is None:
            return -math.inf
        intercept, slope = model._fitted()
        spread = max(spread, abs(intercept) / slope)
        table, position, _ = view._first_window(earliest, 1)
        end = table.hi[position]
        ends.append(end)
        reach = max(reach, abs(end))
    magnitude = (
        abs(earliest)
        + abs(start)
        + guard
        + reach
        + (abs(clock.offset) + spread) / clock.rate
    )
    margin = _REUSE_MARGIN * magnitude + _REUSE_MARGIN_FLOOR
    if not duration > margin:
        return -math.inf
    until = start - guard - margin
    for end in ends:
        until = min(until, end - margin)
    return until

