"""Fault injection end to end: lifecycle, determinism, zero cost.

The load-bearing properties: an empty plan leaves the engine's replay
digest bit-identical to a network that never heard of faults, and any
non-empty plan produces the same digest on every run.
"""

import math

import pytest

from repro.experiments.simsetup import add_uniform_poisson, standard_network
from repro.faults import (
    ClockStep,
    FaultPlan,
    LinkFade,
    PacketCorruption,
    StationCrash,
    compile_plan,
    install_faults,
)
from repro.net.network import NetworkConfig

STATIONS = 12
SEED = 11


def make_network(load=0.05):
    network = standard_network(
        STATIONS, placement_seed=SEED, config=NetworkConfig(seed=SEED)
    )
    add_uniform_poisson(network, load, SEED + 1)
    return network


def run_with_plan(plan, slots=200.0):
    network = make_network()
    injector = install_faults(network, plan)
    result = network.run(slots * network.budget.slot_time)
    return network, result, injector


class TestEmptyPlanIsFree:
    def test_install_returns_none(self):
        network = make_network()
        assert install_faults(network, FaultPlan()) is None
        assert network.resilience is None

    def test_replay_digest_identical_to_no_faults(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        bare = make_network()
        bare.run(200.0 * bare.budget.slot_time)

        network, _result, injector = run_with_plan(FaultPlan())
        assert injector is None
        assert network.env.replay_digest() == bare.env.replay_digest()


class TestCrashLifecycle:
    PLAN_SPECS = [StationCrash(station=3, at_slot=50.0, recover_after_slots=60.0)]

    def plan(self):
        return compile_plan(self.PLAN_SPECS, seed=5, station_count=STATIONS)

    def test_crash_and_recovery_are_logged(self):
        _network, _result, injector = run_with_plan(self.plan())
        log = injector.log
        assert len(log.crashes) == 1
        assert len(log.recoveries) == 1
        assert len(log.reroutes) == 2
        assert not math.isnan(log.mean_time_to_reroute())

    def test_station_comes_back_alive(self):
        network, _result, _injector = run_with_plan(self.plan())
        assert network.stations[3].alive

    def test_dead_station_receives_nothing_while_down(self):
        network, result, _injector = run_with_plan(self.plan())
        losses = result.losses_by_reason
        # Receptions aimed at the dead station fail for a fault reason,
        # never for SIR.
        assert losses.get("receiver_down", 0) + losses.get(
            "source_down", 0
        ) + network.stations[3].stats.fault_drops > 0

    def test_deliveries_continue_after_recovery(self):
        network, result, _injector = run_with_plan(self.plan(), slots=300.0)
        assert result.delivered_end_to_end > 0
        # The network still routes through/to station 3 after revival.
        assert network.stations[3].alive

    def test_fault_runs_are_bit_deterministic(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        one, r1, i1 = run_with_plan(self.plan())
        two, r2, i2 = run_with_plan(self.plan())
        assert one.env.replay_digest() == two.env.replay_digest()
        assert r1.delivered_end_to_end == r2.delivered_end_to_end
        assert r1.losses_by_reason == r2.losses_by_reason
        assert r1.fault_drops == r2.fault_drops
        assert i1.log == i2.log

    def test_down_up_idempotent(self):
        network = make_network()
        network.start()
        assert network.station_down(3)
        assert not network.station_down(3)
        assert network.station_up(3)
        assert not network.station_up(3)


class TestLinkFade:
    def test_fade_scales_and_restores_gain(self):
        fade = LinkFade(
            receiver=0,
            source=1,
            at_slot=20.0,
            duration_slots=50.0,
            gain_factor=0.1,
            symmetric=False,
        )
        network = make_network()
        nominal = network.medium._field.gains[0, 1]
        plan = compile_plan([fade], seed=5, station_count=STATIONS)
        install_faults(network, plan)
        slot = network.budget.slot_time
        network.run(30.0 * slot)
        assert network.medium._field.gains[0, 1] == pytest.approx(0.1 * nominal)
        network.run(50.0 * slot)
        assert network.medium._field.gains[0, 1] == nominal

    def test_symmetric_fade_hits_both_directions(self):
        fade = LinkFade(
            receiver=0,
            source=1,
            at_slot=20.0,
            duration_slots=50.0,
            gain_factor=0.1,
        )
        network = make_network()
        forward = network.medium._field.gains[0, 1]
        reverse = network.medium._field.gains[1, 0]
        plan = compile_plan([fade], seed=5, station_count=STATIONS)
        install_faults(network, plan)
        network.run(30.0 * network.budget.slot_time)
        assert network.medium._field.gains[0, 1] == pytest.approx(0.1 * forward)
        assert network.medium._field.gains[1, 0] == pytest.approx(0.1 * reverse)


class TestClockStep:
    def test_step_moves_the_clock_and_mac_survives(self):
        step = ClockStep(station=2, at_slot=40.0, offset_slots=0.6)
        network = make_network()
        before = network.clocks[2].offset
        plan = compile_plan([step], seed=5, station_count=STATIONS)
        injector = install_faults(network, plan)
        result = network.run(250.0 * network.budget.slot_time)
        after = network.clocks[2].offset
        assert after == pytest.approx(
            before + 0.6 * network.budget.slot_time
        )
        assert network.stations[2].clock is network.clocks[2]
        assert len(injector.log.clock_steps) == 1
        assert len(injector.log.refits) == 1
        assert result.delivered_end_to_end > 0


class TestCorruption:
    def test_certain_corruption_kills_all_deliveries(self):
        corruption = PacketCorruption(
            at_slot=1.0, duration_slots=500.0, probability=1.0
        )
        plan = compile_plan([corruption], seed=5, station_count=STATIONS)
        _network, result, _injector = run_with_plan(plan, slots=200.0)
        assert result.delivered_end_to_end == 0
        assert result.losses_by_reason.get("corrupted", 0) > 0

    def test_corruption_window_closes(self):
        corruption = PacketCorruption(
            at_slot=1.0, duration_slots=50.0, probability=1.0
        )
        plan = compile_plan([corruption], seed=5, station_count=STATIONS)
        _network, result, _injector = run_with_plan(plan, slots=300.0)
        assert result.losses_by_reason.get("corrupted", 0) > 0
        assert result.delivered_end_to_end > 0
