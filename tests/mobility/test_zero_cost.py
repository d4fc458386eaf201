"""The mobility layer's zero-cost guarantee.

The load-bearing property, mirroring the empty fault plan: an inert
channel spec installs *nothing*, so the engine's replay digest is
bit-identical to a network that never heard of mobility — and the
default (ARQ-less) configuration leaves the transmit path untouched.
"""

import pytest

from repro.experiments.simsetup import add_uniform_poisson, standard_network
from repro.mobility import (
    ChannelSpec,
    ClusterDrift,
    FadingSpec,
    RandomWaypoint,
    install_channel,
)
from repro.net.network import NetworkConfig

STATIONS = 12
SEED = 11


def make_network():
    network = standard_network(
        STATIONS, placement_seed=SEED, config=NetworkConfig(seed=SEED)
    )
    add_uniform_poisson(network, 0.05, SEED + 1)
    return network


INERT_SPECS = [
    ChannelSpec(),
    ChannelSpec(mobility=RandomWaypoint(speed=0.0)),
    ChannelSpec(mobility=ClusterDrift(speed=0.0)),
    ChannelSpec(fading=FadingSpec(sigma_db=0.0)),
    ChannelSpec(
        mobility=RandomWaypoint(speed=0.0), fading=FadingSpec(sigma_db=0.0)
    ),
]


class TestInertSpecIsFree:
    @pytest.mark.parametrize("spec", INERT_SPECS)
    def test_install_returns_none(self, spec):
        assert spec.is_inert
        network = make_network()
        assert install_channel(network, spec) is None
        assert network.channel is None

    def test_replay_digest_identical_to_no_mobility(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        bare = make_network()
        bare.run(200.0 * bare.budget.slot_time)

        network = make_network()
        assert (
            install_channel(
                network,
                ChannelSpec(
                    mobility=RandomWaypoint(speed=0.0),
                    fading=FadingSpec(sigma_db=0.0),
                ),
            )
            is None
        )
        network.run(200.0 * network.budget.slot_time)
        assert network.env.replay_digest() == bare.env.replay_digest()

    def test_default_config_installs_no_arq(self):
        network = make_network()
        assert all(station.arq is None for station in network.stations)


class TestLiveChannelIsDeterministic:
    def run_once(self):
        network = make_network()
        spec = ChannelSpec(
            mobility=RandomWaypoint(
                speed=0.02 * network.placement.characteristic_length
            ),
            fading=FadingSpec(sigma_db=3.0, coherence_slots=8.0),
            tick_slots=2.0,
            start_slot=30.0,
            end_slot=150.0,
            reacquire_every_slots=20.0,
        )
        channel = install_channel(network, spec, seed=5)
        result = network.run(250.0 * network.budget.slot_time)
        return network, channel, result

    def test_channel_runs_are_bit_deterministic(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        one, ch1, r1 = self.run_once()
        two, ch2, r2 = self.run_once()
        assert one.env.replay_digest() == two.env.replay_digest()
        assert ch1.ticks == ch2.ticks
        assert ch1.log.turnovers == ch2.log.turnovers
        assert ch1.log.mobility_reroutes == ch2.log.mobility_reroutes
        assert ch1.log == ch2.log
        assert r1.losses_by_reason == r2.losses_by_reason
