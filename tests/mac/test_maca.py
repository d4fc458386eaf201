"""Tests for the MACA (RTS/CTS) baseline."""

import numpy as np
import pytest

from repro.mac.maca import MacaMac
from repro.net.network import PACKET_SIZE_BITS, NetworkConfig, build_network
from repro.net.traffic import CbrTraffic, PoissonTraffic
from repro.propagation.geometry import uniform_disk
from repro.sim.streams import RandomStreams


def maca_network(count=12, seed=43):
    placement = uniform_disk(count, radius=600.0, seed=seed)
    streams = RandomStreams(seed)
    return build_network(
        placement,
        NetworkConfig(seed=seed),
        mac=lambda i, b: MacaMac(streams.stream(f"mac{i}")),
        trace=True,
    )


class TestMaca:
    def test_handshake_precedes_data(self):
        network = maca_network()
        destination = int(network.tables[0].neighbors_in_use()[0])
        network.add_traffic(
            CbrTraffic(
                origin=0, destination=destination,
                interval=100 * network.budget.slot_time,
                size_bits=PACKET_SIZE_BITS,
                limit=1,
            )
        )
        result = network.run(200 * network.budget.slot_time)
        sender_mac = network.stations[0].mac
        receiver_mac = network.stations[destination].mac
        assert sender_mac.rts_sent == 1
        assert receiver_mac.cts_sent == 1
        assert result.hop_deliveries >= 3  # RTS + CTS + data all landed
        assert network.stations[destination].stats.delivered_to_me == 1

    def test_control_frames_not_forwarded(self):
        network = maca_network()
        destination = int(network.tables[0].neighbors_in_use()[0])
        network.add_traffic(
            CbrTraffic(
                origin=0, destination=destination,
                interval=100 * network.budget.slot_time,
                size_bits=PACKET_SIZE_BITS,
                limit=1,
            )
        )
        network.run(200 * network.budget.slot_time)
        # Forwarding counters only move for data packets.
        total_forwarded = sum(s.stats.forwarded for s in network.stations)
        assert total_forwarded == 0  # single-hop route in this pair

    def test_loaded_network_moves_traffic(self):
        network = maca_network(count=15, seed=47)
        rng = RandomStreams(47).stream("traffic")
        for origin in range(15):
            network.add_traffic(
                PoissonTraffic(
                    origin=origin,
                    rate=0.02 / network.budget.slot_time,
                    destinations=list(range(15)),
                    size_bits=PACKET_SIZE_BITS,
                    rng=rng,
                )
            )
        result = network.run(300 * network.budget.slot_time)
        assert result.delivered_end_to_end > 0
        macs = [s.mac for s in network.stations]
        assert sum(m.rts_sent for m in macs) > 0
        assert sum(m.cts_sent for m in macs) > 0

    def test_per_packet_control_overhead_exists(self):
        # The comparison point against the paper's scheme: MACA pays
        # control transmissions per data packet.
        network = maca_network(count=15, seed=53)
        rng = RandomStreams(53).stream("traffic")
        for origin in range(15):
            network.add_traffic(
                PoissonTraffic(
                    origin=origin,
                    rate=0.02 / network.budget.slot_time,
                    destinations=list(range(15)),
                    size_bits=PACKET_SIZE_BITS,
                    rng=rng,
                )
            )
        network.run(300 * network.budget.slot_time)
        macs = [s.mac for s in network.stations]
        control = sum(m.rts_sent + m.cts_sent for m in macs)
        data = sum(s.stats.delivered_to_me + s.stats.forwarded for s in network.stations)
        assert control >= data  # at least one control frame per data hop

    def test_rejects_bad_parameters(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            MacaMac(rng, control_size_bits=0.0)
        with pytest.raises(ValueError):
            MacaMac(rng, cts_timeout_factor=1.0)
