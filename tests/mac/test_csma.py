"""Tests for the CSMA baseline."""

import numpy as np
import pytest

from repro.mac.csma import CsmaMac
from repro.net.network import PACKET_SIZE_BITS, NetworkConfig, build_network
from repro.net.traffic import CbrTraffic
from repro.obs.events import TxStart
from repro.propagation.geometry import uniform_disk
from repro.sim.streams import RandomStreams


def csma_network(count=12, seed=31, threshold=0.5):
    placement = uniform_disk(count, radius=600.0, seed=seed)
    streams = RandomStreams(seed)
    return build_network(
        placement,
        NetworkConfig(seed=seed),
        mac=lambda i, b: CsmaMac(
            streams.stream(f"mac{i}"), sense_threshold_w=threshold
        ),
        trace=True,
    )


class TestCsma:
    def test_delivers_on_quiet_channel(self):
        network = csma_network()
        network.add_traffic(
            CbrTraffic(
                origin=0,
                destination=int(network.tables[0].neighbors_in_use()[0]),
                interval=30 * network.budget.slot_time,
                size_bits=PACKET_SIZE_BITS,
                limit=4,
            )
        )
        result = network.run(200 * network.budget.slot_time)
        assert result.hop_deliveries == 4

    def test_defers_while_neighbor_transmits(self):
        # Station B starts a long burst; station A's packet arrives
        # mid-burst and must defer until the channel clears.
        network = csma_network(seed=37)
        a = 0
        neighbors = network.tables[a].neighbors_in_use()
        b = int(neighbors[0])
        slot = network.budget.slot_time
        b_target = int(network.tables[b].neighbors_in_use()[0])
        # B's stream starts first and is long (big packet).
        network.add_traffic(
            CbrTraffic(
                origin=b, destination=b_target,
                interval=1000 * slot,
                size_bits=20 * PACKET_SIZE_BITS,
                start_at=0.0, limit=1,
            )
        )
        network.add_traffic(
            CbrTraffic(
                origin=a, destination=b,
                interval=1000 * slot,
                size_bits=PACKET_SIZE_BITS,
                start_at=network.budget.packet_airtime,  # mid-burst
                limit=1,
            )
        )
        network.run(500 * slot)
        starts = sorted(
            (event.time, event.source)
            for event in network.instrumentation.events()
            if isinstance(event, TxStart)
        )
        assert starts[0][1] == b
        b_end = starts[0][0] + 20 * network.budget.packet_airtime
        # A deferred past the end of B's burst.
        a_start = next(t for t, src in starts if src == a)
        assert a_start >= b_end
        mac = network.stations[a].mac
        assert mac.busy_verdicts > 0

    def test_gives_up_when_din_exceeds_threshold(self):
        # One ALOHA station hums a very long burst; the CSMA station
        # under test, with a hair-trigger threshold, must drop its
        # packet after max_sense_deferrals rather than livelock.
        from repro.mac.aloha import AlohaMac

        placement = uniform_disk(10, radius=600.0, seed=41)
        streams = RandomStreams(41)

        def factory(index, budget):
            if index == 0:
                return CsmaMac(
                    streams.stream(f"m{index}"),
                    sense_threshold_w=1e-30,
                    max_attempts=1,
                    max_sense_deferrals=5,
                )
            return AlohaMac(streams.stream(f"m{index}"), max_attempts=1)

        network = build_network(
            placement, NetworkConfig(seed=41), mac=factory, trace=True
        )
        slot = network.budget.slot_time
        network.add_traffic(
            CbrTraffic(
                origin=0,
                destination=int(network.tables[0].neighbors_in_use()[0]),
                interval=1000 * slot,
                size_bits=PACKET_SIZE_BITS,
                start_at=slot,  # arrives once the hum is established
                limit=1,
            )
        )
        # The hummer's single burst outlasts the whole test window.
        hummer = 1
        hum_target = int(network.tables[hummer].neighbors_in_use()[0])
        network.add_traffic(
            CbrTraffic(
                origin=hummer, destination=hum_target,
                interval=1e9,
                size_bits=10_000 * PACKET_SIZE_BITS,
                limit=1,
            )
        )
        network.run(300 * slot)
        assert network.stations[0].mac.dropped == 1
        assert network.stations[0].mac.busy_verdicts >= 5

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            CsmaMac(np.random.default_rng(0), sense_threshold_w=0.0)
