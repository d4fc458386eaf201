"""Tests for traffic generators."""

import numpy as np
import pytest

from repro.net.traffic import CbrTraffic, HotspotTraffic, PoissonTraffic
from repro.sim.engine import Environment


def collect(source, run_until=None):
    env = Environment()
    packets = []
    env.process(source.run(env, packets.append))
    env.run(until=run_until)
    return packets


class TestPoissonTraffic:
    def test_respects_limit(self):
        source = PoissonTraffic(
            origin=0, rate=10.0, destinations=[1, 2], size_bits=100.0,
            rng=np.random.default_rng(0), limit=25,
        )
        assert len(collect(source)) == 25

    def test_rate_approximately_honoured(self):
        source = PoissonTraffic(
            origin=0, rate=5.0, destinations=[1], size_bits=100.0,
            rng=np.random.default_rng(1),
        )
        packets = collect(source, run_until=200.0)
        assert len(packets) == pytest.approx(1000, rel=0.15)

    def test_never_addresses_origin(self):
        source = PoissonTraffic(
            origin=0, rate=10.0, destinations=[0, 1, 2], size_bits=100.0,
            rng=np.random.default_rng(2), limit=50,
        )
        assert all(p.destination != 0 for p in collect(source))

    def test_start_delay(self):
        source = PoissonTraffic(
            origin=0, rate=100.0, destinations=[1], size_bits=100.0,
            rng=np.random.default_rng(3), start_at=10.0, limit=5,
        )
        packets = collect(source)
        assert all(p.created_at >= 10.0 for p in packets)

    def test_requires_candidates(self):
        with pytest.raises(ValueError):
            PoissonTraffic(
                origin=0, rate=1.0, destinations=[0], size_bits=100.0,
                rng=np.random.default_rng(0),
            )


class TestCbrTraffic:
    def test_regular_spacing(self):
        source = CbrTraffic(
            origin=0, destination=1, interval=2.0, size_bits=100.0, limit=5
        )
        packets = collect(source)
        times = [p.created_at for p in packets]
        assert times == [0.0, 2.0, 4.0, 6.0, 8.0]

    def test_fixed_destination(self):
        source = CbrTraffic(0, 3, interval=1.0, size_bits=10.0, limit=4)
        assert all(p.destination == 3 for p in collect(source))

    def test_rejects_self_stream(self):
        with pytest.raises(ValueError):
            CbrTraffic(0, 0, interval=1.0, size_bits=10.0)


class TestHotspotTraffic:
    def test_hotspot_fraction(self):
        source = HotspotTraffic(
            origin=0, rate=10.0, hotspot=9, hotspot_fraction=0.8,
            destinations=list(range(1, 9)), size_bits=10.0,
            rng=np.random.default_rng(4), limit=500,
        )
        packets = collect(source)
        to_hotspot = sum(1 for p in packets if p.destination == 9)
        assert to_hotspot / len(packets) == pytest.approx(0.8, abs=0.06)

    def test_pure_hotspot(self):
        source = HotspotTraffic(
            origin=0, rate=10.0, hotspot=5, hotspot_fraction=1.0,
            destinations=[1, 2], size_bits=10.0,
            rng=np.random.default_rng(5), limit=30,
        )
        assert all(p.destination == 5 for p in collect(source))

    def test_hotspot_cannot_be_origin(self):
        with pytest.raises(ValueError):
            HotspotTraffic(
                origin=0, rate=1.0, hotspot=0, hotspot_fraction=0.5,
                destinations=[1], size_bits=10.0,
                rng=np.random.default_rng(0),
            )


class TestDestinationDraw:
    """The generators draw a destination by index, the draw
    ``rng.choice`` makes over the candidate list: the same destinations
    and the same generator state afterwards, so every seeded run keeps
    its traffic."""

    @pytest.mark.parametrize("size", [1, 2, 7, 499, 512, 4096])
    def test_index_draw_is_the_choice_draw(self, size):
        candidates = list(range(100, 100 + size))
        by_choice = np.random.default_rng(size)
        by_index = np.random.default_rng(size)
        chosen = [int(by_choice.choice(candidates)) for _ in range(300)]
        indexed = [
            candidates[int(by_index.integers(len(candidates)))]
            for _ in range(300)
        ]
        assert indexed == chosen
        assert by_index.bit_generator.state == by_choice.bit_generator.state

    def test_poisson_stream_unchanged(self):
        candidates = list(range(1, 500))
        rng = np.random.default_rng(11)
        source = PoissonTraffic(
            origin=0, rate=10.0, destinations=[0, *candidates], size_bits=10.0,
            rng=rng, limit=200,
        )
        packets = collect(source)
        reference = np.random.default_rng(11)
        expected = []
        for _ in range(200):
            reference.exponential(1.0 / 10.0)
            expected.append(int(reference.choice(candidates)))
        assert [p.destination for p in packets] == expected
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_hotspot_stream_unchanged(self):
        candidates = list(range(1, 40))
        rng = np.random.default_rng(12)
        source = HotspotTraffic(
            origin=0, rate=10.0, hotspot=40, hotspot_fraction=0.3,
            destinations=candidates, size_bits=10.0, rng=rng, limit=200,
        )
        packets = collect(source)
        reference = np.random.default_rng(12)
        expected = []
        for _ in range(200):
            reference.exponential(1.0 / 10.0)
            if float(reference.random()) < 0.3:
                expected.append(40)
            else:
                expected.append(int(reference.choice(candidates)))
        assert [p.destination for p in packets] == expected
        assert rng.bit_generator.state == reference.bit_generator.state
