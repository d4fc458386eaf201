"""Tests for the multi-level random transmit power MAC."""

import numpy as np
import pytest

from repro.experiments.simsetup import add_uniform_poisson, standard_network
from repro.mac.multilevel_power import MultilevelPowerMac
from repro.net.network import NetworkConfig
from repro.sim.sanitizer import sanitized


def mlp_run(seed=29, count=12, load=0.2, duration_slots=60.0):
    with sanitized(True):
        network = standard_network(
            count,
            seed,
            NetworkConfig(seed=seed),
            mac="multilevel_power",
            trace=True,
        )
        add_uniform_poisson(network, load, seed + 1)
        result = network.run(duration_slots * network.budget.slot_time)
        digest = network.env.replay_digest()
    return network, result, digest


def level_draws(network):
    return [
        event
        for event in network.instrumentation.events()
        if event.KIND == "tx_power_level"
    ]


class TestValidation:
    def test_needs_a_real_ladder(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError):
            MultilevelPowerMac(rng, levels=0)
        with pytest.raises(ValueError):
            MultilevelPowerMac(rng, level_spread=1.0)

    def test_name_not_shadowed_by_slotted_aloha(self):
        mac = MultilevelPowerMac(np.random.default_rng(1))
        assert mac.name == "multilevel_power"
        assert mac.slotted


class TestBehaviour:
    def test_every_attempt_draws_a_level(self):
        network, _result, _digest = mlp_run()
        draws = level_draws(network)
        assert draws
        # Drawn levels live on the configured ladder with the expected
        # downward-geometric scales.
        for record in draws:
            assert 0 <= record.level < 3
            assert record.scale == pytest.approx(4.0 ** (-record.level))
        # All rungs get exercised over a run of this length.
        assert {record.level for record in draws} == {0, 1, 2}

    def test_scaled_bursts_stay_under_power_budget(self):
        network, _result, _digest = mlp_run(duration_slots=30.0)
        max_power = network.stations[0].transmitter.max_power_w
        for station in network.stations:
            assert station.transmitter.max_power_w == max_power

    def test_still_delivers(self):
        _network, result, _digest = mlp_run()
        assert result.delivered_end_to_end > 0


class TestDeterminism:
    def test_replay_digest_bit_identical(self):
        n1, _r1, d1 = mlp_run()
        n2, _r2, d2 = mlp_run()
        assert d1 == d2
        assert len(level_draws(n1)) == len(level_draws(n2))
