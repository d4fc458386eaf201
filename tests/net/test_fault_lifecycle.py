"""Station down/up lifecycle and queue draining."""

from repro.net.network import NetworkConfig, build_network
from repro.net.packet import Packet
from repro.propagation.geometry import uniform_disk


def tiny_network(count=8, seed=5, **config_overrides):
    placement = uniform_disk(count, radius=500.0, seed=seed)
    config = NetworkConfig(seed=seed, **config_overrides)
    return build_network(placement, config, trace=True)


def routable_destination(network, origin=0):
    station = network.stations[origin]
    return next(
        d
        for d in range(network.station_count)
        if d != origin and station.table.has_route(d)
    )


def submit_packets(network, origin, count):
    station = network.stations[origin]
    destination = routable_destination(network, origin)
    for _ in range(count):
        station.submit(
            Packet(
                source=origin,
                destination=destination,
                size_bits=100.0,
                created_at=0.0,
            )
        )
    return station


class TestDropAllQueued:
    def test_drains_everything_and_reports_count(self):
        network = tiny_network()
        station = submit_packets(network, 0, 5)
        assert len(station.queue) == 5
        assert station.drop_all_queued() == 5
        assert len(station.queue) == 0

    def test_empty_queue_drops_nothing(self):
        network = tiny_network()
        assert network.stations[0].drop_all_queued() == 0


class TestStationFailRevive:
    def test_fail_counts_queued_packets_as_fault_drops(self):
        network = tiny_network()
        station = submit_packets(network, 0, 3)
        station.fail()
        assert not station.alive
        assert station.stats.fault_drops == 3
        assert len(station.queue) == 0

    def test_dead_station_drops_submissions(self):
        network = tiny_network()
        station = network.stations[0]
        station.fail()
        destination = routable_destination(network)
        station.submit(
            Packet(
                source=0, destination=destination, size_bits=100.0, created_at=0.0
            )
        )
        assert station.stats.originated == 0
        assert station.stats.fault_drops == 1

    def test_revive_restores_intake(self):
        network = tiny_network()
        station = network.stations[0]
        station.fail()
        station.revive()
        assert station.alive
        submit_packets(network, 0, 1)
        assert station.stats.originated == 1

    def test_fail_and_revive_are_idempotent(self):
        network = tiny_network()
        station = network.stations[0]
        station.fail()
        station.fail()
        station.revive()
        station.revive()
        assert station.alive


class TestNetworkReroute:
    def test_reroute_avoids_dead_station(self):
        network = tiny_network(count=12)
        network.start()
        victim = routable_destination(network)
        assert network.station_down(victim)
        network.reroute()
        for index, station in enumerate(network.stations):
            if index == victim:
                continue
            # No surviving station routes *through* the dead one.
            assert victim not in station.table.neighbors_in_use()

    def test_reroute_restores_after_revival(self):
        network = tiny_network(count=12)
        network.start()
        victim = routable_destination(network)
        before = network.stations[0].table.has_route(victim)
        network.station_down(victim)
        network.reroute()
        assert not network.stations[0].table.has_route(victim)
        network.station_up(victim)
        network.reroute()
        assert network.stations[0].table.has_route(victim) == before
