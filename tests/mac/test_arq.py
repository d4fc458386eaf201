"""The stop-and-wait ARQ sublayer: policy, bookkeeping, integration."""

import math

import pytest

from repro.experiments.simsetup import add_uniform_poisson, standard_network
from repro.mac import ArqConfig
from repro.mac.aloha import AlohaMac
from repro.mobility import (
    ChannelSpec,
    FadingSpec,
    RandomWaypoint,
    install_channel,
)
from repro.net.network import NetworkConfig
from repro.sim.streams import RandomStreams

STATIONS = 12
SEED = 11


class TestArqConfig:
    def test_delay_schedule_is_deterministic_and_capped(self):
        config = ArqConfig(
            max_retries=5,
            timeout_slots=4.0,
            backoff_slots=2.0,
            backoff_cap_slots=12.0,
        )
        assert config.retry_delay_slots(1) == 6.0
        assert config.retry_delay_slots(2) == 8.0
        assert config.retry_delay_slots(3) == 12.0  # capped (4 + 8)
        assert config.retry_delay_slots(4) == 12.0  # capped (4 + 16)

    def test_validation(self):
        with pytest.raises(ValueError):
            ArqConfig(max_retries=0)
        with pytest.raises(ValueError):
            ArqConfig(timeout_slots=0.0)
        with pytest.raises(ValueError):
            ArqConfig(backoff_slots=-1.0)
        with pytest.raises(ValueError):
            ArqConfig(timeout_slots=8.0, backoff_cap_slots=4.0)

    def test_network_config_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(arq_max_retries=0)
        with pytest.raises(ValueError):
            NetworkConfig(arq_max_retries=3, arq_timeout_slots=0.0)
        with pytest.raises(ValueError):
            NetworkConfig(arq_max_retries=3, arq_backoff_slots=-1.0)


def lossy_network(arq_retries, load=0.1):
    """An ALOHA network under a fading channel: plenty of failed hops."""
    streams = RandomStreams(SEED)
    network = standard_network(
        STATIONS,
        placement_seed=SEED,
        config=NetworkConfig(seed=SEED, arq_max_retries=arq_retries),
        mac=lambda i, b: AlohaMac(streams.stream(f"a{i}")),
        trace=False,
    )
    add_uniform_poisson(network, load, SEED + 1)
    spec = ChannelSpec(
        mobility=RandomWaypoint(
            speed=0.03 * network.placement.characteristic_length
        ),
        fading=FadingSpec(sigma_db=6.0, coherence_slots=8.0),
        tick_slots=2.0,
        end_slot=400.0,
    )
    install_channel(network, spec, seed=SEED)
    return network


class TestArqIntegration:
    def test_sublayer_installed_only_when_configured(self):
        with_arq = lossy_network(arq_retries=3)
        assert all(s.arq is not None for s in with_arq.stations)
        without = lossy_network(arq_retries=None)
        assert all(s.arq is None for s in without.stations)

    def test_retries_and_giveups_are_counted(self):
        network = lossy_network(arq_retries=2)
        result = network.run(400.0 * network.budget.slot_time)
        assert result.arq_retries > 0
        assert result.delivered_end_to_end > 0
        # Station stats sum to the network totals.
        assert result.arq_retries == sum(
            s.stats.arq_retries for s in network.stations
        )
        assert result.arq_giveups == sum(
            s.stats.arq_giveups for s in network.stations
        )
        # Retries are bounded: give-ups only after max_retries failures.
        for station in network.stations:
            assert station.arq.retries == station.stats.arq_retries
            assert station.arq.giveups == station.stats.arq_giveups

    def test_arq_runs_are_deterministic(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        digests = []
        for _ in range(2):
            network = lossy_network(arq_retries=2)
            network.run(300.0 * network.budget.slot_time)
            digests.append(network.env.replay_digest())
        assert digests[0] == digests[1]

    def test_retry_state_clears_on_success(self):
        network = lossy_network(arq_retries=3)
        network.run(400.0 * network.budget.slot_time)
        # Long after the episode, no retry state should leak for
        # packets that were delivered or given up; pending entries are
        # bounded by the stations' queue depths.
        for station in network.stations:
            assert len(station.arq._attempts) <= 64
