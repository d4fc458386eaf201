"""Tests for neighbour clock modelling via rendezvous."""

import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock.clock import Clock
from repro.clock.sync import (
    ClockSample,
    NeighborClockModel,
    exact_model,
    exchange_readings,
)
from repro.core.access import ScheduleView, find_transmit_window
from repro.core.schedule import Schedule
from tests.core.test_access import stall_alarm


class TestExchange:
    def test_exact_exchange(self):
        own = Clock(offset=5.0)
        neighbor = Clock(offset=9.0)
        sample = exchange_readings(own, neighbor, true_time=10.0)
        assert sample.own_reading == 15.0
        assert sample.neighbor_reading == 19.0

    def test_jitter_requires_rng(self):
        with pytest.raises(ValueError):
            exchange_readings(Clock(), Clock(), 0.0, jitter=0.1)

    def test_jitter_perturbs(self):
        rng = np.random.default_rng(3)
        clean = exchange_readings(Clock(), Clock(offset=1.0), 0.0)
        noisy = exchange_readings(Clock(), Clock(offset=1.0), 0.0, jitter=0.5, rng=rng)
        assert noisy.neighbor_reading != clean.neighbor_reading


class TestModelFitting:
    def test_no_samples_raises(self):
        with pytest.raises(RuntimeError):
            NeighborClockModel().predict_neighbor_reading(0.0)

    def test_single_sample_assumes_equal_rates(self):
        model = NeighborClockModel()
        model.add_sample(ClockSample(own_reading=10.0, neighbor_reading=25.0))
        assert model.predict_neighbor_reading(12.0) == pytest.approx(27.0)
        assert model.relative_rate == 1.0

    def test_two_exact_samples_fit_affine_exactly(self):
        own = Clock(offset=3.0, rate_error=1e-5)
        neighbor = Clock(offset=100.0, rate_error=-2e-5)
        model = exact_model(own, neighbor)
        for t in (0.0, 57.0, 1234.5):
            assert model.predict_neighbor_reading(
                own.reading(t)
            ) == pytest.approx(neighbor.reading(t), abs=1e-6)

    def test_inverse_prediction(self):
        own = Clock(offset=3.0)
        neighbor = Clock(offset=-7.0, rate_error=5e-5)
        model = exact_model(own, neighbor)
        t = 99.0
        assert model.own_reading_for(
            neighbor.reading(t)
        ) == pytest.approx(own.reading(t), abs=1e-6)

    def test_noisy_fit_averages_out(self):
        rng = np.random.default_rng(7)
        own = Clock()
        neighbor = Clock(offset=50.0, rate_error=3e-5)
        model = NeighborClockModel()
        for t in np.linspace(0.0, 1000.0, 40):
            model.add_sample(
                exchange_readings(own, neighbor, float(t), jitter=0.01, rng=rng)
            )
        prediction = model.predict_neighbor_reading(own.reading(2000.0))
        assert prediction == pytest.approx(neighbor.reading(2000.0), abs=0.02)

    def test_sample_window_bounded(self):
        model = NeighborClockModel(max_samples=4)
        for k in range(10):
            model.add_sample(ClockSample(float(k), float(k) + 1.0))
        assert model.sample_count == 4

    def test_repeated_instant_degenerates_gracefully(self):
        model = NeighborClockModel()
        model.add_sample(ClockSample(5.0, 8.0))
        model.add_sample(ClockSample(5.0, 8.2))
        assert model.relative_rate == 1.0
        assert model.predict_neighbor_reading(5.0) == pytest.approx(8.1)

    @settings(max_examples=25)
    @given(
        st.floats(min_value=-1e4, max_value=1e4),
        st.floats(min_value=-1e4, max_value=1e4),
        st.floats(min_value=-1e-4, max_value=1e-4),
        st.floats(min_value=-1e-4, max_value=1e-4),
        st.floats(min_value=0.0, max_value=1e5),
    )
    def test_exact_model_property(self, o1, o2, r1, r2, t):
        own = Clock(offset=o1, rate_error=r1)
        neighbor = Clock(offset=o2, rate_error=r2)
        model = exact_model(own, neighbor)
        assert model.predict_neighbor_reading(own.reading(t)) == pytest.approx(
            neighbor.reading(t), abs=1e-4
        )


class TestRateBand:
    """A fitted rate no oscillator has is refused for the latest
    sample's equal-rate offset."""

    @staticmethod
    def two_samples(slope):
        model = NeighborClockModel()
        model.add_sample(ClockSample(1000.0, 5000.0))
        model.add_sample(ClockSample(1010.0, 5000.0 + 10.0 * slope))
        return model

    @pytest.mark.parametrize("slope", [1e9, 1.02, 0.98, 0.0, -1.0])
    def test_implausible_rate_keeps_latest_offset(self, slope):
        model = self.two_samples(slope)
        assert model.relative_rate == 1.0
        assert model.reading_offset == 5000.0 + 10.0 * slope - 1010.0

    @pytest.mark.parametrize("slope", [1.009, 0.991, 1.0 + 1.81e-3, 1.0 - 3e-6])
    def test_plausible_rate_is_fitted(self, slope):
        assert self.two_samples(slope).relative_rate == pytest.approx(slope)

    def test_each_refit_stores_a_fresh_fit(self):
        # ShepardMac's plans compare the fit by identity.
        model = NeighborClockModel()
        model.add_sample(ClockSample(10.0, 25.0))
        first = model._fitted()
        model.add_sample(ClockSample(12.0, 27.0))
        second = model._fitted()
        assert second == first and second is not first
        assert model._fitted() is second

    @pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
    def test_window_search_through_a_clock_step_ends(self):
        # Two samples a nanosecond apart that straddle the neighbour's
        # clock step fit a rate of ~1e9.  Mapped through it, each of
        # the neighbour's receive windows is ~1e-9 s of global time
        # long, and a search walking them does not reach its horizon.
        schedule = Schedule(slot_time=1.0, receive_fraction=0.3, key=99)
        own = Clock(offset=100.0)
        model = NeighborClockModel()
        model.add_sample(ClockSample(1000.0, 5000.0))
        model.add_sample(ClockSample(1000.0 + 1e-9, 5001.0))
        with stall_alarm(30, "window search through a clock step hung"):
            start, end = find_transmit_window(
                ScheduleView.own(schedule, own),
                ScheduleView.of_neighbor(schedule, own, model),
                0.2,
                earliest=900.0,
                search_slots=40,
            )
        assert 900.0 <= start and end - start == pytest.approx(0.2)
