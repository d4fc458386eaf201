"""The repro.simulate one-call facade."""

import pytest

import repro
from repro.experiments.simsetup import add_uniform_poisson, standard_network
from repro.faults import StationCrash
from repro.net import HotspotTraffic, NetworkConfig
from repro.net.network import PACKET_SIZE_BITS
from repro.obs import Instrumentation, MetricTimelines
from repro.obs.events import Delivered, FaultInject, StationDown, TxStart
from repro.propagation import uniform_disk
from repro.sim.sanitizer import sanitized


SCENARIO = repro.Scenario(
    station_count=14, load_packets_per_slot=0.08, duration_slots=80.0
)


class TestSimulate:
    def test_exported_at_top_level(self):
        assert repro.simulate is not None
        assert repro.Scenario is not None
        assert repro.SimulationOutcome is not None

    def test_returns_a_finished_run(self):
        outcome = repro.simulate(SCENARIO, seed=3)
        assert outcome.result.originated > 0
        assert outcome.result.duration == pytest.approx(
            80.0 * outcome.network.budget.slot_time
        )
        assert outcome.injector is None

    def test_same_seed_same_digest(self):
        with sanitized(True):
            one = repro.simulate(SCENARIO, seed=3)
            two = repro.simulate(SCENARIO, seed=3)
            assert (
                one.network.env.replay_digest()
                == two.network.env.replay_digest()
            )

    def test_trace_true_enables_queries(self):
        outcome = repro.simulate(SCENARIO, seed=3, trace=True)
        kinds = {type(event) for event in outcome.instrumentation.events()}
        assert TxStart in kinds and Delivered in kinds

    def test_instrumentation_sink_observes_the_run(self):
        timelines = MetricTimelines()
        outcome = repro.simulate(
            SCENARIO, seed=3, instrumentation=Instrumentation((timelines,))
        )
        assert timelines.count("tx_outcome") == outcome.result.transmissions
        assert timelines.count("rx_ok") == outcome.result.hop_deliveries
        assert (
            timelines.count("delivered")
            == outcome.result.delivered_end_to_end
        )

    def test_matches_legacy_pipeline_bit_exactly(self):
        """seed=N must reproduce the simsetup convention: placement
        seed N, traffic seed N+1, config seed N."""
        with sanitized(True):
            outcome = repro.simulate(
                repro.Scenario(
                    station_count=14,
                    load_packets_per_slot=0.08,
                    duration_slots=80.0,
                ),
                seed=9,
            )
            legacy = standard_network(
                14, 9, NetworkConfig(seed=9), trace=False
            )
            add_uniform_poisson(legacy, 0.08, 10)
            legacy.run(80.0 * legacy.budget.slot_time)
            assert (
                outcome.network.env.replay_digest()
                == legacy.env.replay_digest()
            )

    def test_faults_install_an_injector(self):
        outcome = repro.simulate(
            repro.Scenario(
                station_count=14,
                load_packets_per_slot=0.08,
                duration_slots=120.0,
            ),
            seed=3,
            faults=[StationCrash(station=2, at_slot=30.0,
                                 recover_after_slots=40.0)],
            trace=True,
        )
        assert outcome.injector is not None
        kinds = [type(event) for event in outcome.instrumentation.events()]
        assert kinds.count(StationDown) == 1
        assert kinds.count(FaultInject) == 1

    def test_custom_placement_and_traffic(self):
        placement = uniform_disk(10, radius=500.0, seed=21)
        installed = []

        def traffic(network, seed):
            installed.append(seed)
            for origin in range(1, network.station_count):
                network.add_traffic(
                    HotspotTraffic(
                        origin=origin,
                        rate=0.02 / network.budget.slot_time,
                        hotspot=0,
                        hotspot_fraction=1.0,
                        destinations=list(range(network.station_count)),
                        size_bits=PACKET_SIZE_BITS,
                        rng=repro.sim.RandomStreams(seed).stream("traffic"),
                    )
                )

        outcome = repro.simulate(
            repro.Scenario(
                placement=placement, traffic=traffic, duration_slots=60.0
            ),
            seed=21,
        )
        assert installed == [21]
        assert outcome.network.station_count == 10

    def test_one_station_placement_is_refused_by_name(self):
        # A lone station has no interference bound to calibrate the
        # link budget against; that used to divide by zero.
        lone = repro.Scenario(placement=uniform_disk(1, radius=100.0, seed=1))
        with pytest.raises(ValueError, match="interference bound"):
            repro.simulate(lone, seed=1)

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            repro.Scenario(station_count=1)
        with pytest.raises(ValueError):
            repro.Scenario(load_packets_per_slot=0.0)
        with pytest.raises(ValueError):
            repro.Scenario(duration_slots=0.0)
