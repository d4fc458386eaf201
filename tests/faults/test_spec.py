"""Fault specs and plan compilation: validation, expansion, determinism."""

import math

import pytest

from repro.faults import (
    ClockStep,
    FaultEvent,
    FaultPlan,
    LinkFade,
    PacketCorruption,
    StationChurn,
    StationCrash,
    compile_plan,
)
from tests.core.test_access import stall_alarm

#: One valid instance of every fault spec and plan type, as keyword
#: arguments.
VALID_SPECS = {
    StationCrash: dict(station=0, at_slot=10.0, recover_after_slots=5.0),
    StationChurn: dict(
        rate_per_slot=0.1, start_slot=10.0, end_slot=50.0, mean_downtime_slots=5.0
    ),
    LinkFade: dict(
        receiver=0, source=1, at_slot=10.0, duration_slots=5.0, gain_factor=0.5
    ),
    ClockStep: dict(
        station=0,
        at_slot=10.0,
        offset_slots=0.5,
        rate_error_delta_ppm=1.0,
        refit_after_slots=5.0,
    ),
    PacketCorruption: dict(at_slot=10.0, duration_slots=5.0, probability=0.5),
    FaultEvent: dict(at_slot=10.0, kind="fade", station=0, peer=1, value=0.5, extra=1.0),
    FaultPlan: dict(reroute_delay_slots=2.0),
}


class TestSpecValidation:
    def test_crash_rejects_negative_time(self):
        with pytest.raises(ValueError):
            StationCrash(station=0, at_slot=-1.0)

    def test_crash_rejects_nonpositive_recovery(self):
        with pytest.raises(ValueError):
            StationCrash(station=0, at_slot=1.0, recover_after_slots=0.0)

    def test_churn_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            StationChurn(
                rate_per_slot=0.0,
                start_slot=1.0,
                end_slot=10.0,
                mean_downtime_slots=5.0,
            )

    def test_churn_rejects_empty_window(self):
        with pytest.raises(ValueError):
            StationChurn(
                rate_per_slot=0.1,
                start_slot=10.0,
                end_slot=10.0,
                mean_downtime_slots=5.0,
            )

    def test_fade_rejects_self_link(self):
        with pytest.raises(ValueError):
            LinkFade(
                receiver=2,
                source=2,
                at_slot=1.0,
                duration_slots=5.0,
                gain_factor=0.5,
            )

    def test_fade_rejects_negative_factor(self):
        with pytest.raises(ValueError):
            LinkFade(
                receiver=0,
                source=1,
                at_slot=1.0,
                duration_slots=5.0,
                gain_factor=-0.1,
            )

    def test_clock_step_must_change_something(self):
        with pytest.raises(ValueError):
            ClockStep(station=0, at_slot=1.0, offset_slots=0.0)

    def test_corruption_probability_bounds(self):
        with pytest.raises(ValueError):
            PacketCorruption(at_slot=1.0, duration_slots=5.0, probability=0.0)
        with pytest.raises(ValueError):
            PacketCorruption(at_slot=1.0, duration_slots=5.0, probability=1.5)

    def test_event_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            FaultEvent(at_slot=0.0, kind="meltdown")

    def test_compile_rejects_out_of_range_station(self):
        with pytest.raises(ValueError):
            compile_plan(
                [StationCrash(station=9, at_slot=1.0)],
                seed=1,
                station_count=4,
            )


class TestPlanCompilation:
    def test_empty_plan(self):
        plan = compile_plan([], seed=1, station_count=4)
        assert plan.is_empty
        assert FaultPlan().is_empty

    def test_events_sorted_by_time(self):
        plan = compile_plan(
            [
                StationCrash(station=1, at_slot=30.0),
                StationCrash(station=0, at_slot=5.0, recover_after_slots=10.0),
            ],
            seed=1,
            station_count=4,
        )
        times = [event.at_slot for event in plan.events]
        assert times == sorted(times)

    def test_crash_expands_to_lifecycle(self):
        plan = compile_plan(
            [StationCrash(station=2, at_slot=10.0, recover_after_slots=20.0)],
            seed=1,
            station_count=4,
            reroute_delay_slots=3.0,
        )
        kinds = [(event.at_slot, event.kind) for event in plan.events]
        assert kinds == [
            (10.0, "down"),
            (13.0, "reroute"),
            (30.0, "up"),
            (33.0, "reroute"),
        ]
        assert all(
            event.station == 2
            for event in plan.events
            if event.kind in ("down", "up")
        )

    def test_fade_emits_onset_and_restore(self):
        plan = compile_plan(
            [
                LinkFade(
                    receiver=0,
                    source=1,
                    at_slot=5.0,
                    duration_slots=10.0,
                    gain_factor=0.25,
                )
            ],
            seed=1,
            station_count=4,
        )
        assert [event.kind for event in plan.events] == ["fade", "fade"]
        assert plan.events[0].value == 0.25
        assert plan.events[1].value == 1.0
        assert plan.events[1].at_slot == 15.0

    def test_corruption_emits_on_and_off(self):
        plan = compile_plan(
            [PacketCorruption(at_slot=5.0, duration_slots=10.0, probability=0.5)],
            seed=1,
            station_count=4,
        )
        assert [event.kind for event in plan.events] == [
            "corrupt_on",
            "corrupt_off",
        ]


class TestChurnDeterminism:
    CHURN = StationChurn(
        rate_per_slot=0.2,
        start_slot=1.0,
        end_slot=200.0,
        mean_downtime_slots=20.0,
    )

    def test_same_seed_same_schedule(self):
        one = compile_plan([self.CHURN], seed=7, station_count=8)
        two = compile_plan([self.CHURN], seed=7, station_count=8)
        assert one.events == two.events
        assert not one.is_empty

    def test_different_seed_different_schedule(self):
        one = compile_plan([self.CHURN], seed=7, station_count=8)
        two = compile_plan([self.CHURN], seed=8, station_count=8)
        assert one.events != two.events

    def test_no_overlapping_downtime_per_station(self):
        plan = compile_plan([self.CHURN], seed=7, station_count=8)
        down = {}
        for event in plan.events:
            if event.kind == "down":
                assert event.station not in down
                down[event.station] = event.at_slot
            elif event.kind == "up":
                assert event.station in down
                assert event.at_slot > down.pop(event.station)

    def test_restricted_pool_is_respected(self):
        churn = StationChurn(
            rate_per_slot=0.2,
            start_slot=1.0,
            end_slot=200.0,
            mean_downtime_slots=20.0,
            stations=(1, 3),
        )
        plan = compile_plan([churn], seed=7, station_count=8)
        crashed = {e.station for e in plan.events if e.kind in ("down", "up")}
        assert crashed <= {1, 3}


class TestNonFiniteSpecs:
    @pytest.mark.parametrize(
        "spec, name, value",
        [
            pytest.param(spec, name, value, id=f"{spec.__name__}-{name}-{value}")
            for spec, kwargs in VALID_SPECS.items()
            for name, default in kwargs.items()
            if isinstance(default, float)
            for value in (math.nan, math.inf)
        ],
    )
    def test_every_number_must_be_finite(self, spec, name, value):
        # Every range check is a comparison, which NaN passes: a crash at
        # slot NaN was accepted and still changed the run, and a fade by
        # NaN turned the medium's field into NaN.
        spec(**VALID_SPECS[spec])
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            spec(**{**VALID_SPECS[spec], name: value})

    @pytest.mark.parametrize(
        "name, value", [("rate_per_slot", math.nan), ("end_slot", math.inf)]
    )
    def test_churn_is_refused_not_sampled_forever(self, name, value):
        # Accepted, either churn left compile_plan drawing crash instants
        # that never reach the end of the episode.
        with stall_alarm(2, "compile_plan kept sampling a non-finite churn"):
            with pytest.raises(ValueError, match="finite"):
                churn = StationChurn(**{**VALID_SPECS[StationChurn], name: value})
                compile_plan([churn], seed=5, station_count=12)
