"""Tests for the physical medium oracle."""

import math

import numpy as np
import pytest

from repro.core.collisions import CollisionType
from repro.net.medium import Medium
from repro.net.packet import Packet
from repro.radio.spreadspectrum import DespreaderBank
from repro.sim.engine import Environment


class World:
    """Test double for the station-side queries the medium makes."""

    def __init__(self, count, channels=4, deaf=()):
        self.banks = [DespreaderBank(capacity=channels) for _ in range(count)]
        self.deaf = set(deaf)
        self.delivered = []

    def listen(self, station, now):
        return station not in self.deaf

    def bank(self, station):
        return self.banks[station]


def line_medium(positions, threshold=0.1, channels=4, deaf=(), thermal=1e-12):
    positions = np.asarray(positions, dtype=float)
    count = len(positions)
    gains = np.zeros((count, count))
    for i in range(count):
        for j in range(count):
            if i != j:
                gains[i, j] = 1.0 / max(abs(positions[i] - positions[j]), 1e-9) ** 2
    env = Environment()
    world = World(count, channels=channels, deaf=deaf)
    medium = Medium(
        env=env,
        gains=gains,
        thermal_noise_w=thermal,
        sir_thresholds=np.full(count, threshold),
        listen_query=world.listen,
        channel_query=world.bank,
    )
    return env, medium, world


def packet(src, dst):
    return Packet(source=src, destination=dst, size_bits=100.0, created_at=0.0)


def send(env, medium, src, dst, power=100.0, duration=1.0, at=0.0):
    outcome = {}

    def process(env):
        if at > env.now:
            yield env.timeout(at - env.now)
        done = medium.transmit(src, dst, packet(src, dst), power, duration)
        outcome["ok"] = yield done

    env.process(process(env))
    return outcome


class TestCleanDelivery:
    def test_single_transmission_delivered(self):
        env, medium, world = line_medium([0.0, 10.0])
        outcome = send(env, medium, 0, 1)
        env.run()
        assert outcome["ok"] is True
        assert medium.deliveries == 1
        assert medium.losses == []

    def test_delivery_callback_invoked(self):
        env, medium, world = line_medium([0.0, 10.0])
        seen = []
        medium.on_delivery(1, lambda tx: seen.append(tx.packet.packet_id))
        send(env, medium, 0, 1)
        env.run()
        assert len(seen) == 1

    def test_oracle_value_false_on_loss(self):
        env, medium, world = line_medium([0.0, 10.0], deaf=(1,))
        outcome = send(env, medium, 0, 1)
        env.run()
        assert outcome["ok"] is False


class TestLossModes:
    def test_not_listening(self):
        env, medium, world = line_medium([0.0, 10.0], deaf=(1,))
        send(env, medium, 0, 1)
        env.run()
        assert medium.loss_counts_by_reason() == {"not_listening": 1}

    def test_no_channel_is_type2(self):
        env, medium, world = line_medium([0.0, 10.0, 20.0], channels=1)
        send(env, medium, 0, 1, at=0.0)
        send(env, medium, 2, 1, at=0.1)
        env.run()
        counts = medium.loss_counts_by_type()
        assert counts[CollisionType.TYPE_2] == 1

    def test_receiver_transmitting_is_type3(self):
        env, medium, world = line_medium([0.0, 10.0, 20.0])
        send(env, medium, 1, 2, at=0.0)   # receiver-to-be is busy talking
        send(env, medium, 0, 1, at=0.1)
        env.run()
        assert medium.loss_counts_by_reason()["self_transmitting"] == 1
        assert medium.loss_counts_by_type()[CollisionType.TYPE_3] == 1

    def test_receiver_starts_transmitting_mid_reception(self):
        # The reception locks first, then the receiver keys up: the
        # self-coupling term must crush the SIR (continuous criterion).
        env, medium, world = line_medium([0.0, 10.0, 20.0])
        first = send(env, medium, 0, 1, at=0.0, duration=1.0)
        send(env, medium, 1, 2, at=0.5, duration=0.2)
        env.run()
        assert first["ok"] is False
        record = medium.losses[0]
        assert record.reason == "sir"
        assert CollisionType.TYPE_3 in record.collision_types

    def test_nearby_interferer_is_type1(self):
        env, medium, world = line_medium([0.0, 10.0, 11.0, 21.0], threshold=0.1)
        victim = send(env, medium, 3, 2, power=100.0, at=0.0, duration=1.0)
        send(env, medium, 1, 0, power=5000.0, at=0.2, duration=0.5)
        env.run()
        assert victim["ok"] is False
        record = next(r for r in medium.losses if r.transmission.destination == 2)
        assert record.collision_types == frozenset({CollisionType.TYPE_1})

    def test_distant_interferer_tolerated(self):
        env, medium, world = line_medium([0.0, 300.0, 11.0, 21.0], threshold=0.1)
        victim = send(env, medium, 3, 2, power=100.0, at=0.0, duration=1.0)
        send(env, medium, 1, 0, power=5000.0, at=0.2, duration=0.5)
        env.run()
        assert victim["ok"] is True


class TestBookkeeping:
    def test_active_transmissions_snapshot(self):
        env, medium, world = line_medium([0.0, 10.0])
        send(env, medium, 0, 1, duration=5.0)
        env.run(until=1.0)
        assert len(medium.active_transmissions) == 1
        env.run()
        assert medium.active_transmissions == []

    def test_station_cannot_double_transmit(self):
        env, medium, world = line_medium([0.0, 10.0, 20.0])

        def double(env):
            medium.transmit(0, 1, packet(0, 1), 1.0, 5.0)
            yield env.timeout(1.0)
            medium.transmit(0, 2, packet(0, 2), 1.0, 5.0)

        env.process(double(env))
        with pytest.raises(RuntimeError, match="already transmitting"):
            env.run()

    def test_self_addressed_rejected(self):
        env, medium, world = line_medium([0.0, 10.0])
        with pytest.raises(ValueError):
            medium.transmit(0, 0, packet(0, 1), 1.0, 1.0)

    @pytest.mark.parametrize(
        "power, duration", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan)]
    )
    def test_non_finite_burst_refused_before_it_airs(self, power, duration):
        # Accepted, a NaN-power burst was delivered (its SIR is NaN, which
        # never falls below a threshold), and a NaN duration left the
        # burst on the air with no end.
        env, medium, world = line_medium([0.0, 10.0])
        with pytest.raises(ValueError, match="finite"):
            medium.transmit(0, 1, packet(0, 1), power, duration)
        assert not medium.active_transmissions

    @pytest.mark.parametrize("thermal", [math.nan, math.inf, -1e-12])
    def test_bad_noise_floor_refused(self, thermal):
        # A NaN floor used to be kept until the first lock refused it,
        # and an infinite one failed every reception silently.
        with pytest.raises(ValueError, match="thermal noise"):
            line_medium([0.0, 10.0], thermal=thermal)

    def test_total_received_power(self):
        env, medium, world = line_medium([0.0, 10.0, 20.0])
        send(env, medium, 0, 1, power=100.0, duration=5.0)
        env.run(until=1.0)
        # Station 2 hears station 0 at 100 / 20^2 = 0.25.
        assert medium.total_received_power(2) == pytest.approx(0.25)

    def test_interference_excludes_wanted(self):
        env, medium, world = line_medium([0.0, 10.0])
        send(env, medium, 0, 1, power=100.0, duration=5.0)
        env.run(until=1.0)
        seq = medium.active_transmissions[0].seq
        assert medium.interference_at(1, exclude_seq=seq) == pytest.approx(0.0)


class TestOverhearing:
    def test_idle_decodable_station_overhears(self):
        env, medium, world = line_medium([0.0, 10.0, 20.0])
        heard = []
        medium.on_overheard(2, lambda tx: heard.append(tx.source))
        send(env, medium, 0, 1, power=100.0)
        env.run()
        assert heard == [0]

    def test_endpoints_do_not_overhear(self):
        env, medium, world = line_medium([0.0, 10.0])
        heard = []
        medium.on_overheard(1, lambda tx: heard.append(tx.source))
        send(env, medium, 0, 1, power=100.0)
        env.run()
        assert heard == []

    def test_undecodable_station_misses_it(self):
        # A distant station buried in thermal noise (signal 1e-10 W vs
        # a 1e-6 W floor) cannot decode the frame.
        env, medium, world = line_medium(
            [0.0, 10.0, 1e6], threshold=0.1, thermal=1e-6
        )
        heard = []
        medium.on_overheard(2, lambda tx: heard.append(tx.source))
        send(env, medium, 0, 1, power=100.0)
        env.run()
        assert heard == []
