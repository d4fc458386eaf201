"""Tests for station behaviour: intake, forwarding, wake-up."""

import pytest

from repro.net.network import NetworkConfig, build_network
from repro.net.packet import HopRecord, Packet
from repro.obs.events import DropStationDown, QueueEnter
from repro.propagation.geometry import uniform_disk


def tiny_network(count=8, seed=5, **config_overrides):
    placement = uniform_disk(count, radius=500.0, seed=seed)
    config = NetworkConfig(seed=seed, **config_overrides)
    return build_network(placement, config, trace=True)


class TestSubmit:
    def test_fresh_packet_counts_as_originated(self):
        network = tiny_network()
        station = network.stations[0]
        destination = next(
            d for d in range(network.station_count)
            if d != 0 and station.table.has_route(d)
        )
        station.submit(
            Packet(source=0, destination=destination, size_bits=100.0, created_at=0.0)
        )
        assert station.stats.originated == 1
        assert len(station.queue) == 1

    def test_unroutable_packet_dropped_and_counted(self):
        network = tiny_network()
        station = network.stations[0]
        ghost = Packet(
            source=0, destination=network.station_count + 5,
            size_bits=100.0, created_at=0.0,
        )
        station.submit(ghost)
        assert station.stats.no_route_drops == 1
        assert len(station.queue) == 0

    def test_self_addressed_submission_rejected(self):
        network = tiny_network()
        with pytest.raises(ValueError):
            network.stations[0].submit(
                Packet(source=3, destination=0, size_bits=100.0, created_at=0.0)
            )


class TestArrivalEvents:
    def test_enqueue_triggers_waiting_event(self):
        network = tiny_network()
        station = network.stations[0]
        event = station.next_arrival()
        assert not event.triggered
        destination = next(
            d for d in range(network.station_count)
            if d != 0 and station.table.has_route(d)
        )
        station.submit(
            Packet(source=0, destination=destination, size_bits=100.0, created_at=0.0)
        )
        assert event.triggered

    def test_fresh_event_after_trigger(self):
        network = tiny_network()
        station = network.stations[0]
        first = station.next_arrival()
        destination = next(
            d for d in range(network.station_count)
            if d != 0 and station.table.has_route(d)
        )
        station.submit(
            Packet(source=0, destination=destination, size_bits=100.0, created_at=0.0)
        )
        second = station.next_arrival()
        assert second is not first
        assert not second.triggered


class TestOneWayIn:
    """Every path into the backlog emits one ``queue_enter`` with its
    own flags and wakes a MAC waiting for an arrival."""

    @staticmethod
    def routed(network, origin=0):
        station = network.stations[origin]
        destination = next(
            d for d in range(network.station_count)
            if d != origin and station.table.has_route(d)
        )
        return station, destination, station.table.next_hop(destination)

    @staticmethod
    def events_of(network, kind):
        return [
            event for event in network.instrumentation.events()
            if isinstance(event, kind)
        ]

    def enter(self, network, station, put, *args):
        arrival = station.next_arrival()
        put(*args)
        (event,) = self.events_of(network, QueueEnter)
        assert arrival.triggered
        assert event.station == station.index
        assert event.depth == len(station.queue) == 1
        return event.next_hop, (event.origin, event.control, event.retry)

    def test_fresh_submit(self):
        network = tiny_network()
        station, destination, next_hop = self.routed(network)
        packet = Packet(
            source=0, destination=destination, size_bits=100.0, created_at=0.0
        )
        assert self.enter(network, station, station.submit, packet) == (
            next_hop, (True, False, False)
        )
        assert (station.stats.originated, station.stats.forwarded) == (1, 0)

    def test_forwarded_submit(self):
        network = tiny_network()
        station, destination, next_hop = self.routed(network)
        upstream = next(
            s for s in range(network.station_count) if s not in (0, destination)
        )
        packet = Packet(
            source=upstream, destination=destination, size_bits=100.0,
            created_at=0.0,
        )
        packet.hops.append(
            HopRecord(sender=upstream, receiver=0, start=0.0, end=0.0,
                      power_w=1.0)
        )
        assert self.enter(network, station, station.submit, packet) == (
            next_hop, (False, False, False)
        )
        assert (station.stats.originated, station.stats.forwarded) == (0, 1)

    def test_requeue(self):
        network = tiny_network()
        station, destination, next_hop = self.routed(network)
        packet = Packet(
            source=0, destination=destination, size_bits=100.0, created_at=0.0
        )
        assert self.enter(
            network, station, station.requeue, packet, next_hop
        ) == (next_hop, (False, False, True))
        assert (station.stats.originated, station.stats.forwarded) == (0, 0)

    def test_send_control(self):
        network = tiny_network()
        station, _destination, next_hop = self.routed(network)
        frame = Packet(
            source=0, destination=next_hop, size_bits=100.0, created_at=0.0,
            kind="probe",
        )
        assert self.enter(
            network, station, station.send_control, next_hop, frame
        ) == (next_hop, (False, True, False))

    @pytest.mark.parametrize("path", ["submit", "send_control"])
    def test_downed_station_refuses(self, path):
        network = tiny_network()
        station, destination, next_hop = self.routed(network)
        station.fail()
        arrival = station.next_arrival()
        if path == "submit":
            station.submit(
                Packet(source=0, destination=destination, size_bits=100.0,
                       created_at=0.0)
            )
        else:
            station.send_control(
                next_hop,
                Packet(source=0, destination=next_hop, size_bits=100.0,
                       created_at=0.0, kind="probe"),
            )
        assert station.stats.fault_drops == 1
        assert len(self.events_of(network, DropStationDown)) == 1
        assert self.events_of(network, QueueEnter) == []
        assert len(station.queue) == 0
        assert not arrival.triggered


class TestForwarding:
    def test_multihop_forwarding_records_hops(self):
        network = tiny_network(count=12, seed=9)
        # Find a pair whose route has at least two hops.
        chosen = None
        for source in range(network.station_count):
            table = network.tables[source]
            for destination in range(network.station_count):
                if (
                    source != destination
                    and table.has_route(destination)
                    and table.next_hop(destination) != destination
                ):
                    chosen = (source, destination)
                    break
            if chosen:
                break
        assert chosen is not None, "placement has no multihop routes"
        source, destination = chosen
        packet = Packet(
            source=source, destination=destination, size_bits=100.0, created_at=0.0
        )
        network.stations[source].submit(packet)
        network.start()
        network.env.run(until=200 * network.budget.slot_time)
        target = network.stations[destination]
        assert target.stats.delivered_to_me == 1
        assert packet.hop_count >= 2
        assert packet.hops[-1].receiver == destination

    def test_neighbor_view_missing_raises(self):
        network = tiny_network()
        with pytest.raises(LookupError, match="no clock model"):
            # A station never rendezvouses with itself.
            network.stations[0].neighbor_view(0)
