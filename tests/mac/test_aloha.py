"""Tests for the ALOHA baselines."""

import numpy as np
import pytest

from repro.mac.aloha import AlohaMac
from repro.net.network import PACKET_SIZE_BITS, NetworkConfig, build_network
from repro.net.traffic import CbrTraffic, PoissonTraffic
from repro.obs.events import TxStart
from repro.propagation.geometry import uniform_disk
from repro.sim.streams import RandomStreams


def aloha_network(count=12, seed=19, slotted=False):
    placement = uniform_disk(count, radius=600.0, seed=seed)
    streams = RandomStreams(seed)
    network = build_network(
        placement,
        NetworkConfig(seed=seed),
        mac=lambda i, b: AlohaMac(
            streams.stream(f"mac{i}"), slotted=slotted
        ),
        trace=True,
    )
    return network


def tx_start_times(network):
    return [
        event.time
        for event in network.instrumentation.events()
        if isinstance(event, TxStart)
    ]


class TestAlohaBehaviour:
    def test_delivers_on_quiet_channel(self):
        network = aloha_network()
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

    def test_transmits_immediately_not_schedule_gated(self):
        # ALOHA ignores schedules: the first transmission happens right
        # at the packet arrival, not at a schedule window.
        network = aloha_network()
        network.add_traffic(
            CbrTraffic(
                origin=0,
                destination=int(network.tables[0].neighbors_in_use()[0]),
                interval=1000.0,
                size_bits=PACKET_SIZE_BITS,
                start_at=7.0,
                limit=1,
            )
        )
        network.run(100 * network.budget.slot_time)
        first = tx_start_times(network)[0]
        assert first == pytest.approx(7.0, abs=1e-9)

    def test_contention_produces_losses(self):
        network = aloha_network(count=20, seed=23)
        rng = RandomStreams(5).stream("traffic")
        for origin in range(20):
            network.add_traffic(
                PoissonTraffic(
                    origin=origin,
                    rate=0.15 / network.budget.slot_time,
                    destinations=list(range(20)),
                    size_bits=PACKET_SIZE_BITS,
                    rng=rng,
                )
            )
        result = network.run(300 * network.budget.slot_time)
        assert result.losses_total > 0

    def test_retry_recovers_after_failure(self):
        # Two simultaneous CBR streams to each other: the first attempts
        # self-jam (Type 3), but backoff desynchronises the retries.
        network = aloha_network(count=12, seed=29)
        a = 0
        b = int(network.tables[0].neighbors_in_use()[0])
        slot = network.budget.slot_time
        for origin, destination in ((a, b), (b, a)):
            network.add_traffic(
                CbrTraffic(
                    origin=origin,
                    destination=destination,
                    interval=1000 * slot,
                    size_bits=PACKET_SIZE_BITS,
                    limit=1,
                )
            )
        result = network.run(500 * slot)
        assert result.hop_deliveries == 2
        assert result.losses_total >= 1  # the initial collision

    def test_slotted_variant_aligns_starts(self):
        network = aloha_network(slotted=True)
        airtime = network.budget.packet_airtime
        destination = int(network.tables[0].neighbors_in_use()[0])
        network.add_traffic(
            CbrTraffic(
                origin=0,
                destination=destination,
                interval=17.3 * airtime,
                size_bits=PACKET_SIZE_BITS,
                limit=8,
            )
        )
        network.run(400 * airtime)
        for time in tx_start_times(network):
            phase = (time / airtime) % 1.0
            assert min(phase, 1.0 - phase) < 1e-6

    def test_rejects_bad_parameters(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            AlohaMac(rng, max_attempts=0)
        with pytest.raises(ValueError):
            AlohaMac(rng, base_backoff=0.0)
