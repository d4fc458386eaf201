"""Tests for over-the-air distance-vector route computation."""

import copy

import pytest

from repro.experiments.simsetup import standard_network
from repro.net.network import PACKET_SIZE_BITS, NetworkConfig
from repro.routing.overlay import DistanceVectorOverlay


@pytest.fixture(scope="module")
def converged():
    """A bootstrapped 15-station network, run to route convergence."""
    config = NetworkConfig(seed=23, calibrate_all_links=True)
    network = standard_network(15, 23, config)
    reference = {
        index: copy.deepcopy(table) for index, table in network.tables.items()
    }
    overlay = DistanceVectorOverlay(network)
    overlay.install()
    network.start()
    env = network.env
    slot = network.budget.slot_time
    for _ in range(30):
        before = overlay.last_change_at
        env.run(until=env.now + 50 * slot)
        if overlay.last_change_at == before:
            break
    return network, overlay, reference


class TestConvergence:
    def test_tables_match_centralized_next_hops(self, converged):
        _network, overlay, reference = converged
        stats = overlay.agreement_with(reference)
        assert stats["missing"] == 0
        assert stats["next_hop_agreement"] == 1.0

    def test_costs_match_exactly(self, converged):
        _network, overlay, reference = converged
        assert overlay.agreement_with(reference)["cost_agreement"] == 1.0

    def test_bootstrap_was_loss_free(self, converged):
        network, _overlay, _reference = converged
        assert network.medium.losses == []

    def test_adverts_were_real_transmissions(self, converged):
        network, overlay, _reference = converged
        assert overlay.adverts_sent > 0
        assert network.medium.deliveries >= overlay.adverts_sent


class TestValidation:
    def test_oversized_advert_rejected(self):
        network = standard_network(8, 29, NetworkConfig(seed=29), trace=False)
        with pytest.raises(ValueError, match="quarter-slot"):
            DistanceVectorOverlay(
                network, control_size_bits=10 * PACKET_SIZE_BITS
            )

    def test_bad_interval_rejected(self):
        network = standard_network(8, 29, NetworkConfig(seed=29), trace=False)
        with pytest.raises(ValueError):
            DistanceVectorOverlay(network, advert_interval_slots=0.0)


class TestStationControlPlumbing:
    def test_send_control_rejects_data_packets(self):
        from repro.net.packet import Packet

        network = standard_network(8, 31, NetworkConfig(seed=31), trace=False)
        station = network.stations[0]
        data = Packet(source=0, destination=1, size_bits=10.0, created_at=0.0)
        with pytest.raises(ValueError):
            station.send_control(1, data)

    def test_register_control_handler_validates_kind(self):
        network = standard_network(8, 31, NetworkConfig(seed=31), trace=False)
        with pytest.raises(ValueError):
            network.stations[0].register_control_handler("", lambda tx: None)
