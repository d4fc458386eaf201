"""Channel process behaviour: ticks, exact restore, re-acquisition."""

import math

import numpy as np
import pytest

from repro.experiments.simsetup import add_uniform_poisson, standard_network
from repro.mobility import (
    ChannelSpec,
    FadingSpec,
    RandomWaypoint,
    install_channel,
)
from repro.net.network import NetworkConfig
from repro.propagation.matrix import PropagationMatrix

STATIONS = 12
SEED = 11


def make_network(load=0.05):
    config = NetworkConfig(seed=SEED)
    network = standard_network(
        STATIONS, placement_seed=SEED, config=config, trace=False
    )
    add_uniform_poisson(network, load, SEED + 1)
    return network


class TestFadingOnly:
    def test_exact_restore_to_nominal(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        network = make_network()
        spec = ChannelSpec(
            fading=FadingSpec(sigma_db=4.0, coherence_slots=6.0),
            tick_slots=2.0,
            start_slot=20.0,
            end_slot=120.0,
        )
        channel = install_channel(network, spec, seed=9)
        assert channel is not None
        network.run(250.0 * network.budget.slot_time)
        assert channel.ticks > 0
        assert network.medium.channel_drift_from_nominal() == 0.0

    def test_fading_changes_gains_while_live(self):
        network = make_network()
        spec = ChannelSpec(
            fading=FadingSpec(sigma_db=4.0, coherence_slots=6.0),
            tick_slots=2.0,
            end_slot=500.0,
        )
        channel = install_channel(network, spec, seed=9)
        network.run(50.0 * network.budget.slot_time)
        assert network.medium.channel_drift_from_nominal() > 0.0
        assert channel.updates_applied > 0


class TestMobility:
    def run_churned(self, reacquire, slots=300.0):
        network = make_network()
        spec = ChannelSpec(
            mobility=RandomWaypoint(
                speed=0.03 * network.placement.characteristic_length
            ),
            tick_slots=2.0,
            start_slot=20.0,
            end_slot=200.0,
            reacquire_every_slots=20.0 if reacquire else None,
            reacquire_delay_slots=4.0,
        )
        channel = install_channel(network, spec, seed=5)
        network.run(slots * network.budget.slot_time)
        return network, channel

    def test_turnover_detected_and_reacquired(self):
        network, channel = self.run_churned(reacquire=True)
        assert len(channel.log.turnovers) > 0
        assert len(channel.log.reacquired) > 0
        assert len(channel.log.mobility_reroutes) > 0
        latencies = channel.log.rendezvous_recovery_latencies()
        assert latencies
        slot = network.budget.slot_time
        # Every recovery includes at least the modelled rendezvous lag
        # and lands within the run.
        assert all(lat >= 0.0 for lat in latencies)
        assert not math.isnan(channel.log.mean_rendezvous_recovery())

    def test_no_reacquire_means_no_reconverge(self):
        _network, channel = self.run_churned(reacquire=False)
        assert len(channel.log.turnovers) == 0
        assert len(channel.log.reacquired) == 0
        assert len(channel.log.mobility_reroutes) == 0
        assert math.isnan(channel.log.mean_rendezvous_recovery())

    def test_moved_geometry_lands_in_medium(self):
        network, channel = self.run_churned(reacquire=False)
        # Stations moved, so the live gains differ from nominal.
        assert network.medium.channel_drift_from_nominal() > 0.0
        assert channel.updates_applied > 0


class TestReconverge:
    def test_reconverge_refreshes_routes_power_and_models(self):
        network = make_network()
        network.run(20.0 * network.budget.slot_time)
        pairs_before = len(network.clock_models)
        matrix = PropagationMatrix(network.matrix.gains * 0.5)
        counters = network.reconverge(matrix, np.random.default_rng(3))
        assert network.matrix is matrix
        assert counters["new_pairs"] >= 0
        assert counters["kicked"] >= 0
        assert len(network.clock_models) >= pairs_before


class TestSpecValidation:
    def test_rejects_bad_episode_bounds(self):
        with pytest.raises(ValueError):
            ChannelSpec(tick_slots=0.0)
        with pytest.raises(ValueError):
            ChannelSpec(start_slot=100.0, end_slot=50.0)
        with pytest.raises(ValueError):
            ChannelSpec(reacquire_every_slots=0.0)
        with pytest.raises(ValueError):
            FadingSpec(sigma_db=-1.0)
        with pytest.raises(ValueError):
            FadingSpec(coherence_slots=0.0)

    @pytest.mark.parametrize(
        "spec, name, value",
        [
            pytest.param(spec, name, value, id=f"{spec.__name__}-{name}-{value}")
            for spec, names in (
                (
                    ChannelSpec,
                    (
                        "tick_slots",
                        "start_slot",
                        "end_slot",
                        "reacquire_every_slots",
                        "reacquire_delay_slots",
                        "track_gain_floor",
                    ),
                ),
                (FadingSpec, ("sigma_db", "coherence_slots")),
            )
            for name in names
            for value in (math.nan, math.inf)
        ],
    )
    def test_every_number_must_be_finite(self, spec, name, value):
        # A NaN fade sigma sent NaN gains into the medium, and a NaN tick
        # made no tick at all yet still changed the run.
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            spec(**{name: value})
