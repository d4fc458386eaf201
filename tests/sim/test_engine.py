"""Tests for the discrete-event environment."""

import math

import pytest

from repro.sim.engine import EmptySchedule, Environment
from repro.sim.events import Event


class TestTimeAdvance:
    def test_starts_at_zero(self):
        assert Environment().now == 0.0

    def test_custom_start(self):
        assert Environment(initial_time=5.0).now == 5.0

    def test_timeout_advances_clock(self):
        env = Environment()
        env.timeout(3.5)
        env.run()
        assert env.now == 3.5

    def test_events_in_time_order(self):
        env = Environment()
        order = []
        for delay in (5.0, 1.0, 3.0):
            env.timeout(delay).subscribe(
                lambda e, d=delay: order.append(d)
            )
        env.run()
        assert order == [1.0, 3.0, 5.0]

    def test_fifo_tie_break(self):
        env = Environment()
        order = []
        for tag in ("a", "b", "c"):
            env.timeout(1.0).subscribe(lambda e, t=tag: order.append(t))
        env.run()
        assert order == ["a", "b", "c"]

    def test_step_on_empty_raises(self):
        with pytest.raises(EmptySchedule):
            Environment().step()

    def test_peek(self):
        env = Environment()
        assert env.peek() == float("inf")
        env.timeout(7.0)
        assert env.peek() == 7.0

    def test_cannot_schedule_into_past(self):
        env = Environment()
        event = Event(env)
        with pytest.raises(ValueError):
            env.schedule(event, delay=-1.0)

    @pytest.mark.parametrize("delay", [math.nan, math.inf])
    def test_refuses_a_non_finite_time_unsanitized(self, delay):
        # A NaN time compares neither below nor above any other in the
        # heap: accepted, it made later timeouts of 1.0, 2.0 and 0.5
        # fire at now = 1.0, 0.5, 2.0.
        env = Environment(sanitize=False)
        fired = []
        with pytest.raises(ValueError, match="cannot schedule"):
            env.timeout(delay)
        for later in (1.0, 2.0, 0.5):
            env.timeout(later).subscribe(lambda e: fired.append(env.now))
        env.run()
        assert fired == [0.5, 1.0, 2.0]


class TestRunUntil:
    def test_until_number_stops_before_boundary_events(self):
        env = Environment()
        fired = []
        env.timeout(1.0).subscribe(lambda e: fired.append(1.0))
        env.timeout(2.0).subscribe(lambda e: fired.append(2.0))
        env.run(until=2.0)
        assert fired == [1.0]
        assert env.now == 2.0

    def test_until_number_past_all_events(self):
        env = Environment()
        env.timeout(1.0)
        env.run(until=10.0)
        assert env.now == 10.0

    def test_until_rejects_past(self):
        env = Environment()
        env.timeout(5.0)
        env.run()
        with pytest.raises(ValueError):
            env.run(until=1.0)

    def test_until_rejects_nan(self):
        env = Environment(sanitize=False)
        env.timeout(1.0)
        with pytest.raises(ValueError, match="NaN"):
            env.run(until=math.nan)

    def test_until_event_returns_value(self):
        env = Environment()

        def producer(env):
            yield env.timeout(2.0)
            return "payload"

        process = env.process(producer(env))
        assert env.run(until=process) == "payload"

    def test_until_event_never_fires_raises(self):
        env = Environment()
        stuck = env.event()
        env.timeout(1.0)
        with pytest.raises(RuntimeError):
            env.run(until=stuck)

    def test_resume_after_run_until(self):
        env = Environment()
        fired = []
        env.timeout(3.0).subscribe(lambda e: fired.append(3.0))
        env.run(until=1.0)
        env.run()
        assert fired == [3.0]


class TestFailurePropagation:
    def test_unhandled_failure_raises_from_run(self):
        env = Environment()

        def exploder(env):
            yield env.timeout(1.0)
            raise RuntimeError("boom")

        env.process(exploder(env))
        with pytest.raises(RuntimeError, match="boom"):
            env.run()

    def test_handled_failure_does_not_raise(self):
        env = Environment()
        outcome = []

        def exploder(env):
            yield env.timeout(1.0)
            raise RuntimeError("boom")

        def handler(env, child):
            try:
                yield child
            except RuntimeError as exc:
                outcome.append(str(exc))

        child = env.process(exploder(env))
        env.process(handler(env, child))
        env.run()
        assert outcome == ["boom"]
