"""Tests for network assembly, calibration, and end-to-end runs."""

import math
import signal

import numpy as np
import pytest

from repro.core.reception import required_sir
from repro.experiments.simsetup import add_uniform_poisson, standard_network
from repro.mac.shepard import ShepardMac
from repro.net.network import NetworkConfig, build_network
from repro.net.traffic import PoissonTraffic
from repro.propagation.geometry import uniform_disk
from repro.propagation.models import FreeSpace
from repro.sim.sanitizer import sanitized
from repro.sim.streams import RandomStreams
from tests.core.test_access import stall_alarm


def loaded_network(count=20, seed=3, load=0.05, **config_overrides):
    placement = uniform_disk(count, radius=800.0, seed=seed)
    config = NetworkConfig(seed=seed, **config_overrides)
    network = build_network(placement, config, trace=True)
    rng = RandomStreams(seed + 1).stream("traffic")
    for origin in range(count):
        network.add_traffic(
            PoissonTraffic(
                origin=origin,
                rate=load / network.budget.slot_time,
                destinations=list(range(count)),
                size_bits=config.packet_size_bits,
                rng=rng,
            )
        )
    return network


class TestCalibration:
    def test_slot_is_four_packet_airtimes(self):
        network = loaded_network()
        budget = network.budget
        assert budget.slot_time == pytest.approx(4.0 * budget.packet_airtime)

    def test_threshold_consistent_with_rate(self):
        network = loaded_network()
        budget = network.budget
        assert required_sir(
            budget.data_rate_bps, network.config.bandwidth_hz, network.config.beta
        ) == pytest.approx(budget.sir_threshold)

    def test_delivery_at_target_clears_threshold_under_bound(self):
        # The zero-loss argument: target power over the worst
        # interference bound leaves the safety margin.
        network = loaded_network()
        budget = network.budget
        worst = float(budget.interference_bounds.max()) + budget.thermal_noise_w
        sir = network.config.target_delivered_w / worst
        assert sir >= budget.sir_threshold * network.config.safety_margin * 0.999

    def test_respecting_neighbors_raises_rate(self):
        with_courtesy = loaded_network(respect_neighbors=True)
        without = loaded_network(respect_neighbors=False)
        assert (
            with_courtesy.budget.data_rate_bps >= without.budget.data_rate_bps
        )

    def test_power_lookup_delivers_target(self):
        network = loaded_network()
        for station in network.stations[:5]:
            for hop in station.table.neighbors_in_use():
                power = station.power_for(hop)
                delivered = power * network.matrix.gain(hop, station.index)
                assert delivered == pytest.approx(
                    network.config.target_delivered_w, rel=1e-6
                ) or power == pytest.approx(
                    2.0 * network.config.target_delivered_w / network.budget.min_gain
                )

    def test_one_station_is_refused_by_name(self):
        # No receiver has an interference bound to calibrate against;
        # the design rate used to divide by zero.
        lone = uniform_disk(1, radius=100.0, seed=1)
        with pytest.raises(ValueError, match="interference bound"):
            build_network(lone, NetworkConfig(seed=1))

    def test_processing_gain_reported(self):
        network = loaded_network()
        budget = network.budget
        assert budget.processing_gain_db == pytest.approx(
            10.0 * math.log10(network.config.bandwidth_hz / budget.data_rate_bps)
        )


class TestRun:
    def test_zero_losses_under_the_scheme(self):
        network = loaded_network()
        result = network.run(300 * network.budget.slot_time)
        assert result.collision_free
        assert result.hop_deliveries == result.transmissions

    def test_packets_actually_flow(self):
        network = loaded_network()
        result = network.run(300 * network.budget.slot_time)
        assert result.originated > 0
        assert result.delivered_end_to_end > 0
        assert result.mean_delay > 0

    def test_result_consistency(self):
        network = loaded_network()
        result = network.run(200 * network.budget.slot_time)
        assert result.hop_deliveries + result.losses_total == result.transmissions
        assert 0.0 <= result.mean_duty_cycle <= result.max_duty_cycle <= 1.0

    def test_reproducible_with_same_seeds(self):
        first = loaded_network().run(150 * 1.0)
        second = loaded_network().run(150 * 1.0)
        assert first.transmissions == second.transmissions
        assert first.delivered_end_to_end == second.delivered_end_to_end

    def test_cannot_start_twice(self):
        network = loaded_network()
        network.start()
        with pytest.raises(RuntimeError):
            network.start()

    def test_traffic_origin_validated(self):
        network = loaded_network()
        with pytest.raises(ValueError):
            network.add_traffic(
                PoissonTraffic(
                    origin=999, rate=1.0, destinations=[0], size_bits=10.0,
                    rng=np.random.default_rng(0),
                )
            )


class TestConfigVariants:
    def test_fifo_queue_config(self):
        from repro.net.queueing import FifoQueue

        network = loaded_network(fifo_queues=True)
        assert isinstance(network.stations[0].queue, FifoQueue)

    def test_min_hop_routing_config(self):
        energy_net = loaded_network(min_hop_routing=False)
        hop_net = loaded_network(min_hop_routing=True)
        energy_costs = energy_net.tables[0].costs
        hop_costs = hop_net.tables[0].costs
        # Min-hop costs are integers (hop counts); energy costs are not.
        assert all(cost == int(cost) for cost in hop_costs.values())
        assert any(cost != int(cost) for cost in energy_costs.values())

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            NetworkConfig(receive_fraction=0.0)
        with pytest.raises(ValueError):
            NetworkConfig(safety_margin=0.5)
        with pytest.raises(ValueError):
            NetworkConfig(clock_offset_span_slots=1.0)

    @pytest.mark.parametrize(
        "field",
        [
            "bandwidth_hz",
            "beta",
            "safety_margin",
            "packet_size_bits",
            "packet_slot_fraction",
            "reach_factor",
            "receive_fraction",
            "schedule_key",
            "clock_offset_span_slots",
            "clock_rate_error_ppm",
            "rendezvous_jitter",
            "rendezvous_count",
            "despreader_channels",
            "target_delivered_w",
            "thermal_fraction",
            "rendezvous_refresh_slots",
            "arq_max_retries",
            "arq_timeout_slots",
            "arq_backoff_slots",
        ],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_values_rejected(self, field, value):
        # Each check is written so that NaN fails it.  A NaN bandwidth
        # used to end in a bare AssertionError from the calibration, and
        # an infinite despreader count built a network.
        with pytest.raises(ValueError):
            NetworkConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("rendezvous_jitter", -1.0),
            ("clock_rate_error_ppm", -1.0),
            ("guard_fraction", math.inf),
            ("guard_fraction", -math.inf),
            ("guard_fraction", -0.01),
        ],
    )
    def test_out_of_range_values_rejected(self, field, value):
        # A negative guard starts bursts outside the receiver's window,
        # and an infinite one leaves every packet unscheduled.
        with pytest.raises(ValueError):
            NetworkConfig(**{field: value})

    @pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
    def test_guard_fraction_must_be_finite(self):
        # A NaN guard used to be accepted, and the first window search
        # then never returned.
        with stall_alarm(30, "a network with a NaN guard hung"):
            with pytest.raises(ValueError, match="finite"):
                network = loaded_network(guard_fraction=math.nan)
                network.run(5 * network.budget.slot_time)

    def test_routing_neighbor_counts_small(self):
        network = loaded_network(count=40, seed=11)
        counts = network.routing_neighbor_counts()
        assert max(counts) <= 8  # the paper's observed bound


class TestMacSelection:
    def test_default_mac_is_the_paper_scheme(self):
        config = NetworkConfig(seed=5, guard_fraction=0.03)
        network = build_network(uniform_disk(8, radius=800.0, seed=5), config)
        guard = config.guard_fraction * network.budget.slot_time
        for station in network.stations:
            assert isinstance(station.mac, ShepardMac)
            assert station.mac.guard == guard
            assert station.bank.model is None

    def test_unknown_mac_name_lists_registered(self):
        placement = uniform_disk(4, radius=800.0, seed=5)
        with pytest.raises(ValueError, match="shepard"):
            build_network(placement, NetworkConfig(seed=5), mac="token_ring")

    def test_explicit_factory_builds_every_station(self):
        built = {}

        def factory(index, budget):
            built[index] = ShepardMac(guard=0.01 * budget.slot_time)
            return built[index]

        placement = uniform_disk(6, radius=800.0, seed=5)
        network = build_network(placement, NetworkConfig(seed=5), mac=factory)
        assert sorted(built) == list(range(6))
        for station in network.stations:
            assert station.mac is built[station.index]
            # Only a registered name brings a receiver model.
            assert station.bank.model is None

    def test_network_carries_clock_state_and_model(self):
        model = FreeSpace(near_field_clamp=1e-6)
        placement = uniform_disk(8, radius=800.0, seed=5)
        network = build_network(placement, NetworkConfig(seed=5), model=model)
        assert network.propagation_model is model
        for station in network.stations:
            assert station.schedule is network.schedule
            assert station.clock is network.clocks[station.index]
        assert network.clock_models
        for observer, neighbour in network.clock_models:
            assert observer != neighbour


class TestNetworkRunPinned:
    """One dense 120-station run pinned to its exact outcome and replay
    digest.  Online rendezvous refits every neighbour clock model in
    place every five slots, and a clock step with a model reset and
    refill lands mid-run, so the window search's reuse of derived
    windows is pinned across every kind of model change."""

    @pytest.fixture(scope="class")
    def pinned_run(self):
        with sanitized(True):
            network = standard_network(
                120,
                127,
                config=NetworkConfig(
                    rendezvous_jitter=0.01,
                    rendezvous_count=4,
                    rendezvous_refresh_slots=5.0,
                ),
                trace=False,
            )
            add_uniform_poisson(network, 0.5, 99)
            slot_time = network.budget.slot_time
            network.run(20 * slot_time)
            network.apply_clock_step(3, offset_slots=0.37, rate_error_delta_ppm=20.0)
            network.refit_clock_models(3, np.random.default_rng(5))
            result = network.run(20 * slot_time)
        return network, result

    def test_outcome(self, pinned_run):
        network, result = pinned_run
        assert network.env.events_processed == 33_042
        assert result.transmissions == 3_692
        assert result.hop_deliveries == 3_672
        assert result.losses_total == 20

    def test_digest(self, pinned_run):
        network, _ = pinned_run
        assert network.env.replay_digest() == "5bb64f0f85ea145447d47970312c8da5"


class TestNetworkReconvergePinned:
    """One dense 100-station run through mobility re-convergence,
    pinned to its exact outcome and replay digest.  Stations move,
    neighbour sets turn over, and each ``Network.reconverge`` fits
    models for new neighbours, rebuilds the courtesy sets and respawns
    the MACs; propagation delays are modelled, so every search leads
    its burst.  Each of these invalidates a planned window."""

    @pytest.fixture(scope="class")
    def pinned_run(self):
        from repro.mobility import ChannelSpec, RandomWaypoint, install_channel

        with sanitized(True):
            network = standard_network(
                100,
                131,
                config=NetworkConfig(model_propagation_delay=True),
                trace=False,
            )
            add_uniform_poisson(network, 0.5, 77)
            spec = ChannelSpec(
                mobility=RandomWaypoint(
                    speed=0.03 * network.placement.characteristic_length
                ),
                tick_slots=2.0,
                start_slot=5.0,
                end_slot=50.0,
                reacquire_every_slots=6.0,
                reacquire_delay_slots=2.0,
            )
            channel = install_channel(network, spec, seed=5)
            result = network.run(60 * network.budget.slot_time)
        return network, channel, result

    def test_reconverges(self, pinned_run):
        network, channel, _ = pinned_run
        assert len(channel.log.mobility_reroutes) == 6
        assert len(channel.log.turnovers) == 469
        assert network.stations[0].delay_for(
            network.stations[0].table.neighbors_in_use()[0]
        ) > 0.0

    def test_outcome(self, pinned_run):
        network, _, result = pinned_run
        assert network.env.events_processed == 49_513
        assert result.transmissions == 5_520
        assert result.hop_deliveries == 5_520
        assert result.losses_total == 0

    def test_digest(self, pinned_run):
        network, _, _ = pinned_run
        assert network.env.replay_digest() == "83d37f063a75d250450921b4380dcd10"
