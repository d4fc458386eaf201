"""Tests for the Section 6 design-strategy calculations."""

import math

import pytest

from repro.core.design import (
    DesignPoint,
    expected_neighbors,
    range_doubling_cost_db,
    reach_for_expected_neighbors,
)


class TestNeighborGeometry:
    def test_pi_at_characteristic_reach(self):
        # Section 6: "the expected number of stations inside a circle of
        # radius 1/sqrt(rho) ... is pi".
        assert expected_neighbors(1.0) == pytest.approx(math.pi)

    def test_four_pi_after_doubling(self):
        assert expected_neighbors(2.0) == pytest.approx(4.0 * math.pi)

    def test_reach_inverse(self):
        assert reach_for_expected_neighbors(math.pi) == pytest.approx(1.0)
        assert reach_for_expected_neighbors(4 * math.pi) == pytest.approx(2.0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            expected_neighbors(0.0)


class TestRangeDoubling:
    def test_six_db_per_doubling(self):
        assert range_doubling_cost_db(1.0) == pytest.approx(6.02, abs=0.01)

    def test_two_doublings(self):
        assert range_doubling_cost_db(2.0) == pytest.approx(12.04, abs=0.01)

    def test_zero_is_free(self):
        assert range_doubling_cost_db(0.0) == 0.0


class TestDesignPoint:
    def test_paper_processing_gain_range(self):
        # Section 6: "the proper amount of processing gain is determined
        # to lie in the range of 20 to 25 db" — for metro scales at the
        # duty cycles the paper considers reasonable (around 1/2 to 1).
        for station_count in (1e6, 1e9, 1e12):
            for duty in (0.5, 0.75, 1.0):
                point = DesignPoint(station_count=station_count, duty_cycle=duty)
                assert 17.0 < point.processing_gain_db < 27.0

    def test_nominal_point_in_range(self):
        point = DesignPoint(station_count=1e9, duty_cycle=1.0)
        assert 20.0 <= point.processing_gain_db <= 25.0

    def test_budget_lines_sum(self):
        point = DesignPoint(station_count=1e8, duty_cycle=0.5)
        assert point.processing_gain_db == pytest.approx(
            -point.characteristic_snr_db
            + point.detection_margin_db
            + point.reach_margin_db
        )

    def test_expected_neighbors_at_design_reach(self):
        point = DesignPoint(station_count=1e6, duty_cycle=1.0)
        assert point.expected_neighbors_at_reach == pytest.approx(4 * math.pi)

    def test_summary_keys(self):
        summary = DesignPoint(1e6, 0.5).summary()
        assert {
            "station_count",
            "duty_cycle",
            "characteristic_snr_db",
            "detection_margin_db",
            "reach_margin_db",
            "processing_gain_db",
            "expected_neighbors",
        } <= set(summary)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            DesignPoint(station_count=1.0, duty_cycle=0.5)
        with pytest.raises(ValueError):
            DesignPoint(station_count=1e6, duty_cycle=1.5)

    @pytest.mark.parametrize(
        "field", ["station_count", "detection_margin_db", "reach_doublings"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_parameters(self, field, value):
        arguments = dict(station_count=1e6, duty_cycle=0.5)
        arguments[field] = value
        with pytest.raises(ValueError):
            DesignPoint(**arguments)
