"""Tests for the metro-scale projection and the simulated metro scene."""

import math

import numpy as np
import pytest

from repro.analysis.metro import (
    LEGACY_SCENE_DENSITY,
    MetroProjection,
    build_metro_scene,
    run_metro_scene,
)
from repro.sim.engine import Environment


class TestAbstractClaim:
    def test_hundreds_of_megabits_at_a_million_stations(self):
        # The headline: 10^6 stations, 1 GHz, optimistic detection ->
        # raw per-station rate in the hundreds of Mb/s.
        projection = MetroProjection()
        assert 100e6 < projection.raw_rate_bps < 1e9

    def test_rate_survives_a_billion_stations(self):
        projection = MetroProjection(station_count=1e9)
        assert projection.raw_rate_bps > 50e6

    def test_conservative_case_still_useful(self):
        projection = MetroProjection(beta=3.0, reach_doublings=1.0)
        assert projection.raw_rate_bps > 10e6


class TestInternals:
    def test_snr_matches_eq15(self):
        projection = MetroProjection(station_count=1e6, duty_cycle=0.5)
        assert projection.snr == pytest.approx(1.0 / (0.5 * math.log(1e6)))

    def test_margins_reduce_design_snr(self):
        base = MetroProjection()
        margined = MetroProjection(beta=3.0, reach_doublings=1.0)
        assert margined.worst_case_snr == pytest.approx(base.worst_case_snr / 12.0)

    def test_sustained_rate_scales_with_duty(self):
        projection = MetroProjection()
        assert projection.sustained_rate_bps == pytest.approx(
            projection.raw_rate_bps * projection.duty_cycle
        )

    def test_aggregate_counts_every_station(self):
        projection = MetroProjection()
        assert projection.aggregate_rate_bps == pytest.approx(
            projection.sustained_rate_bps * 1e6
        )

    def test_processing_gain_positive_at_low_snr(self):
        projection = MetroProjection(beta=3.0, reach_doublings=1.0)
        assert projection.processing_gain_db > 10.0

    def test_thermal_noise_negligible(self):
        # Section 4's justification for dropping thermal noise.
        assert MetroProjection().thermal_noise_check() > 30.0

    def test_summary_keys(self):
        summary = MetroProjection().summary()
        assert {"raw_rate_mbps", "sustained_rate_mbps", "processing_gain_db"} <= set(
            summary
        )

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            MetroProjection(station_count=1.0)
        with pytest.raises(ValueError):
            MetroProjection(duty_cycle=0.0)


STATIONS = 400


@pytest.fixture(scope="module")
def scene():
    return build_metro_scene(STATIONS, seed=11)


class TestMetroScene:
    def test_density_fixes_the_radius(self, scene):
        expected = math.sqrt(STATIONS / (math.pi * LEGACY_SCENE_DENSITY))
        assert scene.placement.region_radius == pytest.approx(expected)

    def test_deterministic_rebuild(self, scene):
        again = build_metro_scene(STATIONS, seed=11)
        assert np.array_equal(scene.gain_field.vals, again.gain_field.vals)
        assert np.array_equal(scene.powers, again.powers)
        assert np.array_equal(scene.clock_offsets, again.clock_offsets)
        assert scene.sir_threshold == again.sir_threshold

    def test_nearest_is_strongest_stored_neighbour(self, scene):
        for station in range(STATIONS):
            rows, vals = scene.gain_field.column(station)
            assert scene.nearest[station] == rows[np.argmax(vals)]

    def test_threshold_survives_worst_case_interference(self, scene):
        # Calibration divides by the culling-inclusive bound, so even
        # the all-on worst case leaves the wanted SIR above threshold.
        bounds = scene.gain_field.interference_bound_w(scene.powers)
        delivered = scene.powers * np.array(
            [
                scene.gain_field.gain(int(scene.nearest[s]), s)
                for s in range(STATIONS)
            ]
        )
        worst = float(bounds.max()) + scene.thermal_noise_w
        assert float(delivered.min()) / worst >= scene.sir_threshold

    def test_summary_keys(self, scene):
        summary = scene.summary()
        assert {"nnz", "csr_memory_mb", "dense_memory_mb", "slot_time_s"} <= set(
            summary
        )

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            build_metro_scene(1)
        with pytest.raises(ValueError):
            build_metro_scene(10, clock_offset_span_slots=1.0)

    def test_rejects_a_cull_that_empties_every_column(self):
        # No gain reaches 10^12 times the characteristic-length gain, so
        # every column is empty and the first station is named.
        with pytest.raises(ValueError, match="station 0 has no stored neighbours"):
            build_metro_scene(20, cull_fraction=1e12)


class TestMetroRun:
    def test_collision_free_and_accounted(self, scene):
        result = run_metro_scene(scene, load=0.05, duration_slots=10.0)
        assert result.transmitted > 0
        assert result.deliveries == result.transmitted
        assert result.collision_free
        assert result.losses_total == 0
        # Every arrival is either on the air or counted unschedulable.
        assert result.transmitted + result.unscheduled == result.offered_packets
        # The culling witness was live and stayed finite.
        assert 0.0 < result.max_field_error_bound_w < math.inf

    def test_same_seed_same_digest(self, scene):
        first = run_metro_scene(
            scene, duration_slots=5.0, env=Environment(sanitize=True)
        )
        second = run_metro_scene(
            scene, duration_slots=5.0, env=Environment(sanitize=True)
        )
        assert first.digest is not None
        assert first.digest == second.digest
        assert first.deliveries == second.deliveries

    def test_rejects_bad_parameters(self, scene):
        with pytest.raises(ValueError):
            run_metro_scene(scene, load=0.0)
        with pytest.raises(ValueError):
            run_metro_scene(scene, duration_slots=0.0)


class TestMetroRunPinned:
    """One 2,000-station run pinned to its exact outcome: events,
    deliveries, the culling witness's peak and the replay digest.  Any
    change to the sparse medium's hot path must leave all of them as
    they are."""

    @pytest.fixture(scope="class")
    def pinned_scene(self):
        return build_metro_scene(2000, 2029)

    def test_outcome(self, pinned_scene):
        result = run_metro_scene(
            pinned_scene, load=0.05, duration_slots=20.0, traffic_seed=29
        )
        assert result.events == 4962
        assert result.transmitted == 1665
        assert result.deliveries == 1665
        assert result.losses_total == 0
        assert result.unscheduled == 350
        assert result.max_field_error_bound_w == pytest.approx(
            0.3018974855026905, rel=1e-12
        )

    def test_digest(self, pinned_scene):
        result = run_metro_scene(
            pinned_scene,
            load=0.05,
            duration_slots=20.0,
            traffic_seed=29,
            env=Environment(sanitize=True),
        )
        assert result.digest == "659074a04f02ca8fd4766a943bdcd568"
