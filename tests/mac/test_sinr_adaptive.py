"""Tests for the SINR-adaptive persistence MAC."""

import numpy as np
import pytest

from repro.experiments.simsetup import add_uniform_poisson, standard_network
from repro.mac.sinr_adaptive import SinrAdaptiveMac
from repro.net.network import PACKET_SIZE_BITS, NetworkConfig, build_network
from repro.net.traffic import CbrTraffic
from repro.propagation.geometry import uniform_disk
from repro.sim.sanitizer import sanitized
from repro.sim.streams import RandomStreams


def budget_stub():
    from repro.net.network import LinkBudget

    return LinkBudget(
        sir_threshold=0.05,
        data_rate_bps=1e4,
        slot_time=0.4,
        packet_airtime=0.1,
        min_gain=1e-9,
        interference_bounds=np.ones(4),
        thermal_noise_w=1e-9,
        processing_gain_db=20.0,
        target_delivered_w=1.0,
    )


def adaptive_run(seed=37, count=12, load=0.2, duration_slots=60.0):
    with sanitized(True):
        network = standard_network(
            count, seed, NetworkConfig(seed=seed), mac="sinr_adaptive"
        )
        add_uniform_poisson(network, load, seed + 1)
        result = network.run(duration_slots * network.budget.slot_time)
        digest = network.env.replay_digest()
    return network, result, digest


class TestValidation:
    def test_parameter_ranges(self):
        rng = np.random.default_rng(1)
        budget = budget_stub()
        with pytest.raises(ValueError):
            SinrAdaptiveMac(rng, budget, p_max=0.0)
        with pytest.raises(ValueError):
            SinrAdaptiveMac(rng, budget, p_min=0.0)
        with pytest.raises(ValueError):
            SinrAdaptiveMac(rng, budget, p_min=0.9, p_max=0.5)
        with pytest.raises(ValueError):
            SinrAdaptiveMac(rng, budget, margin=0.5)
        with pytest.raises(ValueError):
            SinrAdaptiveMac(rng, budget, ewma_alpha=0.0)
        with pytest.raises(ValueError):
            SinrAdaptiveMac(rng, budget, max_defer=0)


class TestBehaviour:
    def test_delivers_on_quiet_channel(self):
        # With no contention the predicted SINR clears the margin and
        # persistence sits at p_max: every packet goes out.
        seed = 19
        placement = uniform_disk(12, radius=600.0, seed=seed)
        streams = RandomStreams(seed)
        network = build_network(
            placement, NetworkConfig(seed=seed), mac="sinr_adaptive", trace=True
        )
        network.add_traffic(
            CbrTraffic(
                origin=0,
                destination=int(network.tables[0].neighbors_in_use()[0]),
                interval=20 * network.budget.slot_time,
                size_bits=PACKET_SIZE_BITS,
                limit=5,
            )
        )
        result = network.run(200 * network.budget.slot_time)
        assert result.hop_deliveries == 5
        assert result.losses_total == 0

    def test_backs_off_under_load_but_still_delivers(self):
        _network, result, _digest = adaptive_run()
        assert result.delivered_end_to_end > 0
        assert result.transmissions > 0


class TestDeterminism:
    def test_replay_digest_bit_identical(self):
        _n1, r1, d1 = adaptive_run()
        _n2, r2, d2 = adaptive_run()
        assert d1 == d2
        assert r1.delivered_end_to_end == r2.delivered_end_to_end
