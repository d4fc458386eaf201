"""Tests for SIC-ALOHA and the medium's receiver-model hook."""

from repro.experiments.simsetup import add_uniform_poisson, standard_network
from repro.mac.registry import get_mac
from repro.net.network import NetworkConfig
from repro.radio.receiver_model import SicReceiver
from repro.sim.sanitizer import sanitized


def sic_run(seed=31, count=12, load=0.25, duration_slots=80.0):
    with sanitized(True):
        network = standard_network(
            count,
            seed,
            NetworkConfig(seed=seed),
            mac="sic_aloha",
            trace=True,
        )
        add_uniform_poisson(network, load, seed + 1)
        result = network.run(duration_slots * network.budget.slot_time)
        digest = network.env.replay_digest()
    return network, result, digest


def cancellations(network):
    """The run's ``sic_cancel`` events: one per reception during which
    SIC cancelled at least one interferer."""
    return [
        event
        for event in network.instrumentation.events()
        if event.KIND == "sic_cancel"
    ]


class TestWiring:
    def test_registry_installs_sic_model_on_banks(self):
        network, _timelines, _digest = sic_run(duration_slots=5.0)
        # The descriptor's one frozen instance serves every bank.
        model = get_mac("sic_aloha").receiver_model
        assert model == SicReceiver()
        for station in network.stations:
            assert station.bank.model is model

    def test_default_macs_get_no_model(self):
        network = standard_network(8, 3, NetworkConfig(seed=3), mac="aloha")
        for station in network.stations:
            assert station.bank.model is None


class TestBehaviour:
    def test_cancellations_happen_under_contention(self):
        network, _result, _digest = sic_run()
        receptions = cancellations(network)
        assert receptions
        assert sum(event.cancelled for event in receptions) >= len(receptions)

    def test_sic_models_track_only_live_attempts(self):
        # Every cancelled-model entry must be popped by the end/fail/
        # abort lifecycle: a leak would cancel against stale attempts.
        # Transmissions still in flight when the run stops legitimately
        # keep their entry, so the invariant is subset-of-attempts.
        network, _result, _digest = sic_run()
        assert set(network.medium._sic_models) <= set(
            network.medium._attempts
        )

    def test_sic_recovers_deliveries_vs_plain_slotted_aloha(self):
        seed, count, load, duration = 31, 12, 0.25, 80.0
        _n, sic_result, _d = sic_run(seed, count, load, duration)
        with sanitized(True):
            network = standard_network(
                count, seed, NetworkConfig(seed=seed), mac="slotted_aloha"
            )
            add_uniform_poisson(network, load, seed + 1)
            plain = network.run(duration * network.budget.slot_time)
        assert sic_result.hop_deliveries >= plain.hop_deliveries


class TestDeterminism:
    def test_replay_digest_bit_identical(self):
        n1, r1, d1 = sic_run()
        n2, r2, d2 = sic_run()
        assert d1 == d2
        assert sum(event.cancelled for event in cancellations(n1)) == sum(
            event.cancelled for event in cancellations(n2)
        )
        assert r1.hop_deliveries == r2.hop_deliveries
