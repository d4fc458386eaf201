"""Tests for the collision-free channel access computation."""

import math
import signal
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock.clock import Clock
from repro.clock.sync import ClockSample, NeighborClockModel, exact_model
from repro.core.access import (
    DEFAULT_SEARCH_SLOTS,
    NoTransmitWindowError,
    ScheduleView,
    expected_wait_slots,
    find_transmit_window,
    overlap_fraction,
)
from repro.core.intervals import (
    clip,
    first_fitting,
    intersect,
    subtract,
    total_length,
)
from repro.core.schedule import Schedule


SCHEDULE = Schedule(slot_time=1.0, receive_fraction=0.3, key=99)


def own_view(offset, rate_error=0.0):
    return ScheduleView.own(SCHEDULE, Clock(offset=offset, rate_error=rate_error))


def neighbor_view(own_clock, neighbor_clock):
    return ScheduleView.of_neighbor(
        SCHEDULE, own_clock, exact_model(own_clock, neighbor_clock)
    )


@contextmanager
def stall_alarm(seconds, message):
    """Raise ``TimeoutError(message)`` if the block outlives ``seconds``."""

    def stalled(signum, frame):
        raise TimeoutError(message)

    previous = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestScheduleView:
    def test_own_view_matches_schedule(self):
        clock = Clock(offset=123.0)
        view = ScheduleView.own(SCHEDULE, clock)
        for t in (0.0, 1.7, 55.3):
            assert view.is_receiving_at(t) == SCHEDULE.is_receiving_at(
                clock.reading(t)
            )

    def test_neighbor_view_with_exact_model_matches_truth(self):
        own_clock = Clock(offset=5.0, rate_error=1e-5)
        neighbor_clock = Clock(offset=321.0, rate_error=-1e-5)
        believed = neighbor_view(own_clock, neighbor_clock)
        truth = ScheduleView.own(SCHEDULE, neighbor_clock)
        for t in (0.0, 10.1, 77.7):
            assert believed.is_receiving_at(t) == truth.is_receiving_at(t)

    def test_windows_are_ordered(self):
        view = own_view(42.7)
        previous_end = None
        gen = view.transmit_windows(0.0)
        for _ in range(30):
            lo, hi = next(gen)
            assert lo < hi
            if previous_end is not None:
                assert lo >= previous_end
            previous_end = hi


class TestFindTransmitWindow:
    def test_window_is_valid_for_both_parties(self):
        sender_clock = Clock(offset=11.3)
        receiver_clock = Clock(offset=871.9)
        sender = ScheduleView.own(SCHEDULE, sender_clock)
        receiver_believed = neighbor_view(sender_clock, receiver_clock)
        receiver_truth = ScheduleView.own(SCHEDULE, receiver_clock)
        start, end = find_transmit_window(
            sender, receiver_believed, duration=0.25, earliest=3.0
        )
        assert end - start == pytest.approx(0.25)
        assert start >= 3.0
        for t in (start, (start + end) / 2, end - 1e-9):
            assert not sender.is_receiving_at(t)
            assert receiver_truth.is_receiving_at(t)

    def test_earliest_window_is_found(self):
        sender = own_view(0.0)
        receiver = own_view(500.5)
        first = find_transmit_window(sender, receiver, 0.25, earliest=0.0)
        # No valid start earlier than the one returned: check a grid.
        step = 0.05
        t = 0.0
        while t < first[0] - 1e-9:
            fits = (
                not sender.is_receiving_at(t)
                and not sender.is_receiving_at(t + 0.25 - 1e-9)
                and receiver.is_receiving_at(t)
                and receiver.is_receiving_at(t + 0.25 - 1e-9)
            )
            if fits:
                # The candidate must span window boundaries then.
                whole = all(
                    not sender.is_receiving_at(u) and receiver.is_receiving_at(u)
                    for u in (t + k * 0.01 for k in range(26))
                )
                assert not whole, f"missed earlier window at {t}"
            t += step

    def test_guard_shrinks_usable_region(self):
        sender_clock = Clock(offset=1.0)
        receiver_clock = Clock(offset=400.9)
        sender = ScheduleView.own(SCHEDULE, sender_clock)
        receiver_truth = ScheduleView.own(SCHEDULE, receiver_clock)
        start, end = find_transmit_window(
            sender,
            neighbor_view(sender_clock, receiver_clock),
            duration=0.25,
            earliest=0.0,
            guard=0.1,
        )
        # The receiver listens for at least the guard on both sides.
        assert receiver_truth.is_receiving_at(start - 0.09)
        assert receiver_truth.is_receiving_at(end + 0.09)

    def test_avoid_views_are_respected(self):
        sender_clock = Clock(offset=3.0)
        receiver_clock = Clock(offset=907.1)
        bystander_clock = Clock(offset=5550.7)
        sender = ScheduleView.own(SCHEDULE, sender_clock)
        receiver = neighbor_view(sender_clock, receiver_clock)
        bystander = neighbor_view(sender_clock, bystander_clock)
        bystander_truth = ScheduleView.own(SCHEDULE, bystander_clock)
        start, end = find_transmit_window(
            sender, receiver, 0.25, earliest=0.0, avoid=[bystander]
        )
        for t in (start, (start + end) / 2, end - 1e-9):
            assert not bystander_truth.is_receiving_at(t)

    def test_propagation_delay_compensated(self):
        # Section 3.3: "actual delays could be observed and easily
        # compensated for in the scheduling technique."  With a large
        # artificial delay, the burst must be led so that the *arrival*
        # interval sits inside the receiver's window.
        delay = 0.3  # slots — absurd physically, visible mathematically
        sender_clock = Clock(offset=4.2)
        receiver_clock = Clock(offset=611.7)
        sender = ScheduleView.own(SCHEDULE, sender_clock)
        receiver_truth = ScheduleView.own(SCHEDULE, receiver_clock)
        start, end = find_transmit_window(
            sender,
            neighbor_view(sender_clock, receiver_clock),
            duration=0.25,
            earliest=0.0,
            propagation_delay=delay,
        )
        for t in (start + 1e-9, (start + end) / 2, end - 1e-9):
            assert not sender.is_receiving_at(t)        # sender window: tx time
            assert receiver_truth.is_receiving_at(t + delay)  # rx window: arrival

    def test_zero_delay_matches_plain_search(self):
        sender_clock = Clock(offset=4.2)
        receiver_clock = Clock(offset=611.7)
        sender = ScheduleView.own(SCHEDULE, sender_clock)
        receiver = neighbor_view(sender_clock, receiver_clock)
        plain = find_transmit_window(sender, receiver, 0.25, earliest=0.0)
        delayed = find_transmit_window(
            sender, receiver, 0.25, earliest=0.0, propagation_delay=0.0
        )
        assert plain == delayed

    def test_negative_delay_rejected(self):
        sender = own_view(0.0)
        receiver = own_view(99.5)
        with pytest.raises(ValueError):
            find_transmit_window(
                sender, receiver, 0.25, 0.0, propagation_delay=-1.0
            )

    def test_no_window_raises(self):
        # A receiver whose believed windows are always outside the
        # search horizon: use an avoid view identical to the receiver,
        # which forbids every candidate.
        sender_clock = Clock(offset=0.0)
        receiver_clock = Clock(offset=123.4)
        sender = ScheduleView.own(SCHEDULE, sender_clock)
        receiver = neighbor_view(sender_clock, receiver_clock)
        with pytest.raises(NoTransmitWindowError):
            find_transmit_window(
                sender,
                receiver,
                0.25,
                earliest=0.0,
                avoid=[receiver],
                search_slots=200,
            )

    def test_rejects_bad_arguments(self):
        sender = own_view(0.0)
        receiver = own_view(99.5)
        with pytest.raises(ValueError):
            find_transmit_window(sender, receiver, 0.0, 0.0)
        with pytest.raises(ValueError):
            find_transmit_window(sender, receiver, 0.25, 0.0, guard=-1.0)
        with pytest.raises(ValueError):
            find_transmit_window(sender, receiver, 0.25, 0.0, search_slots=0)

    def test_identical_clocks_cannot_communicate(self):
        # Section 7.1: "If the clocks were not set differently, then the
        # identical schedules would prevent communication between the
        # two stations."
        sender = own_view(10.0)
        receiver = own_view(10.0)
        with pytest.raises(NoTransmitWindowError):
            find_transmit_window(
                sender, receiver, 0.25, earliest=0.0, search_slots=500
            )

    @pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
    @pytest.mark.parametrize(
        "avoid, search_slots", [(True, 100), (False, 100), (False, 10**6)]
    )
    def test_guard_that_empties_every_window_ends_at_the_horizon(
        self, avoid, search_slots
    ):
        # A 0.6 guard on 0.05 slots keeps only runs longer than 24 slots;
        # the receiver never has one.  Both searches used to skip
        # emptied windows without looking at the horizon, and ran on.
        schedule = Schedule(slot_time=0.05, receive_fraction=0.3, key=99)
        sender = ScheduleView.own(schedule, Clock(offset=12.3))
        receiver = ScheduleView.own(schedule, Clock(offset=456.7))
        neighbor = ScheduleView.own(schedule, Clock(offset=89.1))
        with stall_alarm(60, "window search did not stop at its horizon"):
            with pytest.raises(NoTransmitWindowError):
                find_transmit_window(
                    sender,
                    receiver,
                    0.01,
                    earliest=0.0,
                    guard=0.6,
                    avoid=[neighbor] if avoid else [],
                    search_slots=search_slots,
                )

    @pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
    @pytest.mark.parametrize("avoid", [False, True])
    @pytest.mark.parametrize(
        "argument, value",
        [
            ("guard", math.nan),
            ("guard", math.inf),
            ("propagation_delay", math.nan),
            ("propagation_delay", math.inf),
            ("earliest", math.nan),
            ("earliest", math.inf),
            ("earliest", -math.inf),
            ("duration", math.nan),
            ("duration", math.inf),
        ],
    )
    def test_rejects_inputs_that_are_not_finite(self, argument, value, avoid):
        # A NaN guard or delay used to hang the search (no comparison
        # with the horizon is ever true) or fail deep inside it.
        arguments = dict(
            sender=own_view(0.0),
            receiver=own_view(99.5),
            duration=0.25,
            earliest=3.0,
            guard=0.01,
            avoid=[own_view(40.25)] if avoid else [],
            search_slots=50,
        )
        arguments[argument] = value
        with stall_alarm(30, "window search with a non-finite input hung"):
            with pytest.raises(ValueError, match="finite"):
                find_transmit_window(**arguments)

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=1e4),
        st.floats(min_value=0.0, max_value=1e4),
        st.floats(min_value=-5e-5, max_value=5e-5),
        st.floats(min_value=0.0, max_value=100.0),
    )
    def test_window_always_valid_property(
        self, sender_offset, receiver_offset, rate_error, earliest
    ):
        from hypothesis import assume

        # Section 7.1 requires clocks set at least a slot apart; with
        # closer offsets the schedules correlate and overlap may not
        # exist (see test_identical_clocks_cannot_communicate).
        assume(abs(sender_offset - receiver_offset) >= 2.0)
        sender_clock = Clock(offset=sender_offset)
        receiver_clock = Clock(offset=receiver_offset, rate_error=rate_error)
        sender = ScheduleView.own(SCHEDULE, sender_clock)
        receiver_believed = neighbor_view(sender_clock, receiver_clock)
        receiver_truth = ScheduleView.own(SCHEDULE, receiver_clock)
        start, end = find_transmit_window(
            sender, receiver_believed, duration=0.25, earliest=earliest
        )
        assert start >= earliest
        for t in (start + 1e-9, (start + end) / 2, end - 1e-9):
            assert not sender.is_receiving_at(t)
            assert receiver_truth.is_receiving_at(t)


class TestClosedForms:
    def test_overlap_fraction_at_p03(self):
        assert overlap_fraction(0.3) == pytest.approx(0.21)

    def test_expected_wait_at_p03(self):
        assert expected_wait_slots(0.3) == pytest.approx(4.7619, abs=1e-3)

    def test_overlap_fraction_bounds(self):
        with pytest.raises(ValueError):
            overlap_fraction(0.0)


# -- reference: the search as a per-query generator pipeline -----------------
#
# Every window is derived afresh on each query: Schedule.windows, mapped
# through the view, shifted, shrunk, cut at the horizon, then
# intersect / subtract / first_fitting.  The window tables must return
# the same floats, bit for bit.


def _reference_windows(view, from_global, receive):
    start_local = view.to_local(from_global)
    for lo, hi in view.schedule.windows(start_local, receive=receive):
        yield (view.to_global(lo), view.to_global(hi))


def _reference_shifted(windows, offset):
    if offset == 0.0:
        yield from windows
        return
    for lo, hi in windows:
        yield (lo + offset, hi + offset)


def _reference_shrunk(windows, guard):
    for lo, hi in windows:
        if hi - lo > 2.0 * guard:
            yield (lo + guard, hi - guard)


def _reference_until(windows, horizon):
    for lo, hi in windows:
        if lo >= horizon:
            return
        yield (lo, hi)


def _reference_grown(windows, guard):
    pending = None
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


def reference_find(
    sender,
    receiver,
    duration,
    earliest,
    guard=0.0,
    avoid=(),
    search_slots=DEFAULT_SEARCH_SLOTS,
    propagation_delay=0.0,
):
    horizon = earliest + search_slots * sender.schedule.slot_time
    offset = -propagation_delay
    sender_stream = _reference_until(
        _reference_shrunk(_reference_windows(sender, earliest, False), guard),
        horizon,
    )
    receiver_stream = _reference_until(
        _reference_shrunk(
            _reference_shifted(_reference_windows(receiver, earliest, True), offset),
            guard,
        ),
        horizon,
    )
    candidates = intersect(sender_stream, receiver_stream)
    for neighbor in avoid:
        candidates = subtract(
            candidates,
            _reference_grown(
                _reference_shifted(
                    _reference_windows(neighbor, earliest, True), offset
                ),
                guard,
            ),
        )
    window = first_fitting(candidates, duration, not_before=earliest)
    if window is None:
        raise NoTransmitWindowError("no overlap")
    return window


def _bits(values):
    """Floats as hex strings: equal only if bit-identical (sign of zero too)."""
    return tuple(float(v).hex() for v in values)


def _outcome(search, *args, **kwargs):
    try:
        return ("window", _bits(search(*args, **kwargs)))
    except (NoTransmitWindowError, RuntimeError) as exc:
        return ("raised", type(exc).__name__)


def _first_windows(stream, count):
    return [_bits(next(stream)) for _ in range(count)]


def _jittered_model(own_clock, neighbor_clock, samples):
    model = NeighborClockModel()
    for when, jitter in samples:
        model.add_sample(
            ClockSample(
                own_clock.reading(when), neighbor_clock.reading(when) + jitter
            )
        )
    return model


_clocks = st.builds(
    Clock,
    offset=st.floats(min_value=-1e3, max_value=1e5),
    rate_error=st.floats(min_value=-5e-5, max_value=5e-5),
)
_samples = st.lists(
    st.tuples(
        st.integers(min_value=-2000, max_value=0).map(float),
        st.floats(min_value=-0.02, max_value=0.02),
    ),
    min_size=1,
    max_size=4,
    unique_by=lambda sample: sample[0],
)
#: Moves of the query instant, in slots: forward, backward, far past
#: any table's end, or onto one of the views' own slot boundaries.
_moves = st.one_of(
    st.tuples(st.just("step"), st.floats(min_value=0.0, max_value=3.0)),
    st.tuples(st.just("step"), st.floats(min_value=-20.0, max_value=0.0)),
    st.tuples(st.just("step"), st.floats(min_value=50.0, max_value=3000.0)),
    st.tuples(st.just("snap"), st.integers(min_value=0, max_value=1)),
    st.tuples(st.just("sample"), st.floats(min_value=-0.02, max_value=0.02)),
    st.tuples(st.just("refit"), _samples),
)


class TestWindowTablesMatchReference:
    """The table-driven search against the per-query pipeline it
    replaced: the same windows and the same errors, bit for bit, over
    query sequences that reuse, outrun and invalidate the tables."""

    @settings(max_examples=80, deadline=None)
    @given(
        slot_time=st.sampled_from([1.0, 0.3, 2.5]),
        sender_clock=_clocks,
        receiver_clock=_clocks,
        receiver_samples=st.one_of(st.none(), _samples),
        avoid_specs=st.one_of(
            st.just([]), st.lists(st.tuples(_clocks, _samples), min_size=1, max_size=3)
        ),
        guard=st.one_of(
            st.just(0.0),
            st.floats(min_value=1e-6, max_value=0.2),
            st.floats(min_value=0.2, max_value=0.6),
        ),
        delay=st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=0.5)),
        duration=st.floats(min_value=0.05, max_value=1.0),
        search_slots=st.integers(min_value=1, max_value=50),
        start=st.one_of(
            st.sampled_from([0.0, -0.0]), st.floats(min_value=-50.0, max_value=5e3)
        ),
        moves=st.lists(_moves, min_size=20, max_size=30),
    )
    def test_query_sequence(
        self,
        slot_time,
        sender_clock,
        receiver_clock,
        receiver_samples,
        avoid_specs,
        guard,
        delay,
        duration,
        search_slots,
        start,
        moves,
    ):
        schedule = Schedule(slot_time=slot_time, receive_fraction=0.3, key=99)
        sender = ScheduleView.own(schedule, sender_clock)
        models = []

        def neighbor(clock, samples):
            model = _jittered_model(sender_clock, clock, samples)
            models.append((clock, model))
            return ScheduleView.of_neighbor(schedule, sender_clock, model)

        if receiver_samples is None:
            receiver = ScheduleView.own(schedule, receiver_clock)
        else:
            receiver = neighbor(receiver_clock, receiver_samples)
        avoid = [neighbor(clock, samples) for clock, samples in avoid_specs]
        views = [sender, receiver, *avoid]
        arguments = dict(
            guard=guard,
            avoid=avoid,
            search_slots=search_slots,
            propagation_delay=delay,
        )
        earliest = start
        for step, (kind, value) in enumerate(moves):
            if kind == "step":
                earliest += value * slot_time
            elif kind == "snap":
                view = views[value]
                local = view.schedule.slot_index(view.to_local(earliest))
                earliest = view.to_global((local + 1) * slot_time)
            elif models and kind == "sample":
                # A rolling refit in place (the online rendezvous).
                neighbor_clock, model = models[step % len(models)]
                model.add_sample(
                    ClockSample(
                        sender_clock.reading(earliest),
                        neighbor_clock.reading(earliest) + value,
                    )
                )
            elif models and kind == "refit":
                # A fault recovery: reset, then refill.
                neighbor_clock, model = models[step % len(models)]
                model.reset()
                for when, jitter in value:
                    model.add_sample(
                        ClockSample(
                            sender_clock.reading(earliest + when),
                            neighbor_clock.reading(earliest + when) + jitter,
                        )
                    )
            got = _outcome(
                find_transmit_window, sender, receiver, duration, earliest, **arguments
            )
            want = _outcome(
                reference_find, sender, receiver, duration, earliest, **arguments
            )
            assert got == want, (step, earliest)
            for view in views:
                for receive in (False, True):
                    stream = (
                        view.receive_windows(earliest)
                        if receive
                        else view.transmit_windows(earliest)
                    )
                    assert _first_windows(stream, 4) == _first_windows(
                        _reference_windows(view, earliest, receive), 4
                    ), (step, earliest)

    def test_stream_follows_a_refit_while_suspended(self):
        own_clock = Clock(offset=17.25, rate_error=2e-5)
        neighbor_clock = Clock(offset=4321.5, rate_error=-3e-5)
        model = _jittered_model(
            own_clock, neighbor_clock, [(-300.0, 0.01), (-100.0, -0.004)]
        )
        view = ScheduleView.of_neighbor(SCHEDULE, own_clock, model)
        reference_view = ScheduleView.of_neighbor(SCHEDULE, own_clock, model)
        stream = view.receive_windows(12.5)
        reference = _reference_windows(reference_view, 12.5, True)
        assert _first_windows(stream, 20) == _first_windows(reference, 20)
        model.add_sample(
            ClockSample(own_clock.reading(50.0), neighbor_clock.reading(50.0) + 0.01)
        )
        assert _first_windows(stream, 40) == _first_windows(reference, 40)

    @pytest.mark.parametrize("walk_first", [False, True])
    def test_t1_query_pattern(self, walk_first):
        # T1 searches from 300 random arrivals on fresh views, so most
        # arrivals land past the end of the tables.  With walk_first
        # the same views first walk 20,000 slots of overlap (T1's
        # overlap measurement), so the arrivals land inside filled
        # tables, most of them far past their first runs.
        rng = np.random.default_rng(3)
        sender_clock = Clock(offset=float(rng.uniform(0.0, 1e5)))
        receiver_clock = Clock(offset=float(rng.uniform(0.0, 1e5)))
        sender = ScheduleView.own(SCHEDULE, sender_clock)
        receiver = ScheduleView.own(SCHEDULE, receiver_clock)
        if walk_first:
            horizon = 20_000 * SCHEDULE.slot_time
            walked = total_length(
                clip(
                    intersect(
                        sender.transmit_windows(0.0), receiver.receive_windows(0.0)
                    ),
                    0.0,
                    horizon,
                )
            )
            reference_walk = total_length(
                clip(
                    intersect(
                        _reference_windows(sender, 0.0, False),
                        _reference_windows(receiver, 0.0, True),
                    ),
                    0.0,
                    horizon,
                )
            )
            assert walked.hex() == reference_walk.hex()
        for arrival in rng.uniform(0.0, 300 * 20.0, size=300):
            got = _outcome(find_transmit_window, sender, receiver, 0.25, float(arrival))
            want = _outcome(reference_find, sender, receiver, 0.25, float(arrival))
            assert got == want, arrival
