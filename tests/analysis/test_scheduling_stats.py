"""Tests for the Section 7.2 scheduling statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.scheduling_stats import (
    expected_wait_slots,
    geometric_wait_pmf,
    measure_overlap,
    measure_slot_waits,
    measure_waits,
    optimal_receive_fraction,
    pairwise_overlap_fraction,
    throughput_proxy,
    usable_fraction,
)
from repro.clock.clock import Clock
from repro.core.schedule import Schedule


class TestClosedForms:
    def test_overlap_021_at_p03(self):
        assert pairwise_overlap_fraction(0.3) == pytest.approx(0.21)

    def test_overlap_fraction_bounds(self):
        with pytest.raises(ValueError):
            pairwise_overlap_fraction(0.0)

    def test_usable_15_percent(self):
        # "approximately 15% of all time" with quarter-slot packets.
        assert usable_fraction(0.3) == pytest.approx(0.1575)

    def test_expected_wait_476(self):
        assert expected_wait_slots(0.3) == pytest.approx(4.762, abs=1e-3)

    def test_pmf_sums_toward_one(self):
        pmf = geometric_wait_pmf(0.3, 100)
        assert sum(pmf) == pytest.approx(1.0, abs=1e-8)

    def test_pmf_is_geometric(self):
        pmf = geometric_wait_pmf(0.3, 10)
        q = 0.21
        for k in range(9):
            assert pmf[k + 1] / pmf[k] == pytest.approx(1.0 - q)

    def test_pairwise_proxy_peaks_at_half(self):
        # The *pairwise* proxy is maximised at p = 1/2; the network-
        # level optimum near 0.3 emerges only in simulation (T2), where
        # receive capacity serves several upstream senders.
        assert optimal_receive_fraction() == pytest.approx(0.5)

    def test_proxy_flat_near_optimum(self):
        assert throughput_proxy(0.3) / throughput_proxy(0.5) > 0.8


class TestMeasurement:
    def test_overlap_matches_p_one_minus_p(self):
        schedule = Schedule(slot_time=1.0, receive_fraction=0.3, key=3)
        measurement = measure_overlap(
            schedule, Clock(offset=17.3), Clock(offset=912.8), horizon_slots=20_000
        )
        assert measurement.overlap_fraction == pytest.approx(0.21, abs=0.02)

    @settings(max_examples=10, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=1e5),
        st.floats(min_value=0.0, max_value=1e5),
    )
    def test_overlap_property_over_offsets(self, a, b):
        from hypothesis import assume

        assume(abs(a - b) >= 2.0)
        schedule = Schedule(slot_time=1.0, receive_fraction=0.3, key=5)
        measurement = measure_overlap(
            schedule, Clock(offset=a), Clock(offset=b), horizon_slots=5_000
        )
        assert measurement.overlap_fraction == pytest.approx(0.21, abs=0.05)

    def test_slot_waits_mean_near_bernoulli(self):
        # A single pair's wait depends on its particular clock phase;
        # the Bernoulli 1/(p(1-p)) figure is an ensemble average, so
        # measure over several random pairs.
        schedule = Schedule(slot_time=1.0, receive_fraction=0.3, key=7)
        rng = np.random.default_rng(0)
        waits = []
        for _ in range(8):
            waits.extend(
                measure_slot_waits(
                    schedule,
                    Clock(offset=float(rng.uniform(0.0, 1e5))),
                    Clock(offset=float(rng.uniform(0.0, 1e5))),
                    arrivals=150,
                    rng=rng,
                )
            )
        # +1 for the sending slot itself (the model counts trials).
        assert float(np.mean(waits)) + 1.0 == pytest.approx(4.76, abs=1.0)

    def test_continuous_waits_beat_slotted(self):
        schedule = Schedule(slot_time=1.0, receive_fraction=0.3, key=9)
        rng = np.random.default_rng(1)
        continuous = measure_waits(
            schedule, Clock(offset=3.3), Clock(offset=700.9),
            arrivals=300, rng=rng,
        )
        assert float(np.mean(continuous)) < expected_wait_slots(0.3)

    def test_measure_waits_validates(self):
        schedule = Schedule()
        with pytest.raises(ValueError):
            measure_waits(schedule, Clock(), Clock(offset=5.0), arrivals=0)
