"""Tests for the graph-coloured TDMA baseline."""

import numpy as np
import pytest

from repro.experiments.simsetup import add_uniform_poisson, standard_network
from repro.mac.tdma import TdmaMac, TdmaPlan, build_tdma_plan, greedy_coloring
from repro.net.network import NetworkConfig
from repro.obs.events import TxStart


class TestColoring:
    def test_neighbors_get_distinct_colors(self):
        rng = np.random.default_rng(0)
        adjacency = rng.random((20, 20)) < 0.3
        adjacency = adjacency | adjacency.T
        np.fill_diagonal(adjacency, False)
        colors = greedy_coloring(adjacency)
        rows, cols = np.nonzero(adjacency)
        for a, b in zip(rows.tolist(), cols.tolist()):
            assert colors[a] != colors[b]

    def test_color_count_bounded_by_degree(self):
        rng = np.random.default_rng(1)
        adjacency = rng.random((25, 25)) < 0.25
        adjacency = adjacency | adjacency.T
        np.fill_diagonal(adjacency, False)
        colors = greedy_coloring(adjacency)
        max_degree = int(adjacency.sum(axis=1).max())
        assert max(colors) + 1 <= max_degree + 1

    def test_empty_graph_one_color(self):
        adjacency = np.zeros((5, 5), dtype=bool)
        assert set(greedy_coloring(adjacency)) == {0}

    def test_complete_graph_needs_n_colors(self):
        adjacency = ~np.eye(4, dtype=bool)
        assert sorted(greedy_coloring(adjacency)) == [0, 1, 2, 3]


class TestPlan:
    def test_slot_start_is_periodic(self):
        plan = TdmaPlan(colors=[0, 1, 2], frame_slots=3, slot_duration=2.0)
        assert plan.slot_start(1, not_before=0.0) == 2.0
        assert plan.slot_start(1, not_before=2.5) == 8.0
        assert plan.slot_start(0, not_before=0.0) == 0.0

    def test_slot_start_not_in_past(self):
        plan = TdmaPlan(colors=[0, 1], frame_slots=2, slot_duration=1.0)
        for t in (0.0, 0.3, 1.7, 10.01, 123.456):
            for station in (0, 1):
                assert plan.slot_start(station, t) >= t - 1e-9

    def test_build_plan(self):
        adjacency = ~np.eye(3, dtype=bool)
        plan = build_tdma_plan(adjacency, packet_airtime=0.5)
        assert plan.frame_slots == 3
        assert plan.slot_duration == pytest.approx(0.525)


class TestTdmaInNetwork:
    @pytest.fixture(scope="class")
    def outcome(self):
        seed = 61
        config = NetworkConfig(seed=seed)
        probe = standard_network(20, seed, config, trace=False)
        usable = probe.matrix.usable_links(probe.budget.min_gain)
        plan = build_tdma_plan(usable, probe.budget.packet_airtime)
        network = standard_network(
            20, seed, config, mac=lambda i, b: TdmaMac(plan), trace=True
        )
        add_uniform_poisson(network, 0.1, seed + 1)
        result = network.run(300 * network.budget.slot_time)
        return network, plan, result

    @staticmethod
    def tx_starts(network):
        starts = [
            (event.time, event.source)
            for event in network.instrumentation.events()
            if isinstance(event, TxStart)
        ]
        # An empty trace would pass the checks below vacuously.
        assert starts
        return starts

    def test_loss_free(self, outcome):
        _network, _plan, result = outcome
        assert result.collision_free

    def test_transmissions_respect_slot_assignment(self, outcome):
        network, plan, _result = outcome
        frame = plan.frame_slots * plan.slot_duration
        for time, source in self.tx_starts(network):
            offset = (time % frame) / plan.slot_duration
            # A start exactly on a frame boundary can come back as
            # ~frame_slots through float modulo; wrap it.
            slot = int(offset + 1e-6) % plan.frame_slots
            assert slot == plan.colors[source]

    def test_neighbors_never_transmit_simultaneously(self, outcome):
        network, plan, _result = outcome
        usable = network.matrix.usable_links(network.budget.min_gain)
        starts = self.tx_starts(network)
        airtime = network.budget.packet_airtime
        for i, (t1, s1) in enumerate(starts):
            for t2, s2 in starts[i + 1:]:
                if t2 - t1 >= airtime:
                    break
                if s1 != s2 and usable[s1, s2]:
                    pytest.fail(
                        f"hearable stations {s1} and {s2} overlapped in time"
                    )

    def test_traffic_flows(self, outcome):
        _network, _plan, result = outcome
        assert result.delivered_end_to_end > 0
