"""T12 resilience experiment: fast parameterisation."""

import math
from types import SimpleNamespace

import pytest

from repro.experiments import get_experiment
from repro.faults.resilience import window_ratio


class TestT12Resilience:
    @pytest.fixture(scope="class")
    def report(self):
        return get_experiment("T12")(
            churn_rates=(0.02,),
            station_count=16,
            warmup_slots=100,
            churn_slots=100,
            recovery_slots=200,
            macs=("shepard", "aloha"),
        )

    def test_requested_macs_ran(self, report):
        assert {row[0] for row in report.rows} == {"shepard", "aloha"}

    def test_churn_actually_crashed_stations(self, report):
        assert all(row[2] > 0 for row in report.rows)

    def test_scheme_recovers_delivery_ratio(self, report):
        recovered = report.claims[
            "scheme post-churn delivery vs pre-fault steady state"
        ][1]
        assert recovered >= 0.95

    def test_rerouting_engaged(self, report):
        assert all(not math.isnan(row[7]) for row in report.rows)

    def test_rejects_unknown_mac(self):
        with pytest.raises(ValueError, match="carrier-pigeon"):
            get_experiment("T12")(
                churn_rates=(0.02,),
                station_count=12,
                warmup_slots=60,
                churn_slots=60,
                recovery_slots=60,
                macs=("carrier-pigeon",),
            )


class TestWindowRatio:
    """T12's and T13's delivery ratio over the window between two
    cumulative results."""

    @staticmethod
    def cumulative(originated, delivered):
        return SimpleNamespace(
            originated=originated, delivered_end_to_end=delivered
        )

    def test_ratio_of_the_window_only(self):
        before = self.cumulative(10, 9)
        after = self.cumulative(30, 24)
        assert window_ratio(before, after) == 15 / 20

    def test_nan_when_nothing_originated(self):
        same = self.cumulative(10, 9)
        assert math.isnan(window_ratio(same, self.cumulative(10, 10)))
