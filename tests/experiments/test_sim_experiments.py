"""Integration tests: the simulation-driven experiments reproduce the
paper's qualitative shapes (small parameterisations for test speed)."""

import pytest

from repro.experiments import get_experiment


class TestT2DutyCycleSweep:
    @pytest.fixture(scope="class")
    def report(self):
        return get_experiment("T2")(
            receive_fractions=(0.1, 0.3, 0.6),
            station_count=20,
            duration_slots=250,
            load_packets_per_slot=0.2,
        )

    def test_optimum_is_middle_of_range(self, report):
        assert report.claims["near-optimal receive duty cycle"][1] == 0.3

    def test_all_runs_loss_free(self, report):
        # The scheme stays collision-free at every p.
        throughputs = {row[0]: row[3] for row in report.rows}
        assert all(value > 0 for value in throughputs.values())


class TestT3HolBlocking:
    @pytest.fixture(scope="class")
    def report(self):
        return get_experiment("T3")(duration_slots=800)

    def test_duty_cycle_approaches_half(self, report):
        duty = report.claims["duty cycle without HOL blocking"][1]
        assert duty > 0.35

    def test_fifo_is_much_worse(self, report):
        assert report.claims["per-neighbour beats FIFO"][1] > 2.0

    def test_loss_free(self, report):
        assert report.claims["losses (both runs)"][1] == 0


class TestT4CollisionFree:
    @pytest.fixture(scope="class")
    def report(self):
        return get_experiment("T4")(
            station_counts=(60,),
            duration_slots=250,
            load_packets_per_slot=0.05,
            control_run=True,
        )

    def test_scheme_has_zero_losses(self, report):
        assert report.claims["zero losses at 60 stations"][1] == 0

    def test_control_mac_loses_packets(self, report):
        control_row = next(r for r in report.rows if "control" in r[1])
        assert control_row[4] > 0  # losses column

    def test_scheme_delivers_every_transmission(self, report):
        scheme_row = next(r for r in report.rows if r[1] == "shepard")
        assert scheme_row[2] == scheme_row[3]  # transmissions == deliveries


class TestT7Baselines:
    @pytest.fixture(scope="class")
    def report(self):
        return get_experiment("T7")(
            loads_packets_per_slot=(0.05,),
            station_count=20,
            duration_slots=250,
        )

    def test_whole_registry_ran(self, report):
        from repro.mac import mac_names

        macs = {row[0] for row in report.rows}
        assert macs == set(mac_names())
        assert {"shepard", "aloha", "slotted_aloha", "csma", "maca"} <= macs

    def test_scheme_lossless_baselines_not(self, report):
        assert report.claims["scheme losses across all loads"][1] == 0
        assert report.claims["baseline losses across all loads"][1] > 0

    def test_only_maca_pays_control_overhead(self, report):
        for row in report.rows:
            mac, control = row[0], row[4]
            if mac == "maca":
                assert control > 0
            else:
                assert control == 0

    def test_unknown_mac_raises_its_own_error(self):
        # A load point runs in-process, so its exception reaches the
        # caller as itself.
        with pytest.raises(ValueError, match="carrier-pigeon"):
            get_experiment("T7")(
                loads_packets_per_slot=(0.05,),
                station_count=8,
                duration_slots=20,
                macs=("carrier-pigeon",),
            )


class TestT10RoutingTradeoff:
    @pytest.fixture(scope="class")
    def report(self):
        return get_experiment("T10")(station_count=30, duration_slots=200)

    def test_min_energy_radiates_less(self, report):
        assert report.claims[
            "interference energy ratio (min-hop / min-energy)"
        ][1] > 1.0

    def test_min_energy_takes_more_hops(self, report):
        assert report.claims["hop-count ratio (min-energy / min-hop)"][1] > 1.0

    def test_sim_energy_ordering(self, report):
        energies = {row[0]: row[3] for row in report.rows}
        assert energies["min_energy"] < energies["min_hop"]
