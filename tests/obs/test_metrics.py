"""The event stream accounts for every counter a run reports.

``NetworkResult`` aggregates per-station counters the simulation keeps
inline, and every counter has a typed event emitted at the point where
it moves.  Rebuilding each counter from the raw stream and comparing it
with the result catches an emission site that is missing, doubled, or
placed at the wrong point in the hot path.  The windowed series of
:class:`MetricTimelines` are then checked against the same counters.
"""

import math
from collections import Counter

import pytest

from repro.experiments.simsetup import (
    add_uniform_poisson,
    run_loaded_network,
    standard_network,
)
from repro.experiments.t7_baselines import control_per_hop
from repro.faults import StationChurn, compile_plan, install_faults
from repro.faults.resilience import FAULT_LOSS_REASONS, split_losses
from repro.mac import MacaMac
from repro.net.network import NetworkConfig
from repro.obs import Instrumentation, MetricTimelines, use_instrumentation


STATIONS = 24
LOAD = 0.15
DURATION_SLOTS = 150.0


def of_kind(events, kind):
    return [event for event in events if event.KIND == kind]


def airtime_by_station(events):
    """Per-station ``TxStart`` -> ``TxEnd``/``TxAbort`` airtime, folded
    in event order with the float operations of ``Transmitter.end``."""
    keyed = {}
    airtime = {}
    for event in events:
        if event.KIND == "tx_start":
            assert event.source not in keyed, "burst started twice"
            keyed[event.source] = event.time
        elif event.KIND in ("tx_end", "tx_abort"):
            start = keyed.pop(event.source)
            airtime[event.source] = airtime.get(event.source, 0.0) + (
                event.time - start
            )
    return airtime


@pytest.fixture(scope="module")
def observed():
    network, result = run_loaded_network(
        STATIONS, LOAD, DURATION_SLOTS, trace=True
    )
    return network, result, network.instrumentation.events()


class TestCountersMatchNetworkResult:
    def test_traffic_counters(self, observed):
        # ARQ re-enqueues (the retry flag) are neither origins nor
        # forwards: the packet was counted on its first enqueue.
        _network, result, events = observed
        assert len(of_kind(events, "tx_outcome")) == result.transmissions
        enters = of_kind(events, "queue_enter")
        assert sum(event.origin for event in enters) == result.originated
        assert result.forwarded > 0
        assert sum(
            not (event.origin or event.control or event.retry)
            for event in enters
        ) == result.forwarded

    def test_delivery_counters(self, observed):
        _network, result, events = observed
        assert result.hop_deliveries > 0
        assert len(of_kind(events, "rx_ok")) == result.hop_deliveries
        assert len(of_kind(events, "delivered")) == result.delivered_end_to_end

    def test_loss_taxonomy(self, observed):
        _network, result, events = observed
        failures = of_kind(events, "rx_fail")
        assert len(failures) == result.losses_total
        assert dict(Counter(event.reason for event in failures)) == dict(
            result.losses_by_reason
        )
        assert len(of_kind(events, "unreachable")) == result.unreachable_drops
        assert len(of_kind(events, "drop_no_route")) == result.no_route_drops

    def test_per_station_delays(self, observed):
        network, _result, events = observed
        delays = {}
        for event in of_kind(events, "delivered"):
            delays.setdefault(event.station, []).append(event.delay)
        for station in network.stations:
            assert delays.get(station.index, []) == list(
                station.stats.delivery_delays
            )

    def test_per_station_airtime_matches_transmitters(self, observed):
        # Bursts still keyed at the horizon are uncounted on both sides.
        network, _result, events = observed
        airtime = airtime_by_station(events)
        for station in network.stations:
            assert airtime.get(station.index, 0.0) == (
                station.transmitter.time_transmitting
            )


class TestCountersMatchOtherRuns:
    """The equalities experiments rely on outside the plain network."""

    def test_maca_control_frames(self):
        network, result = run_loaded_network(
            STATIONS, LOAD, DURATION_SLOTS, mac="maca", trace=True
        )
        sent = Counter(
            event.frame
            for event in of_kind(network.instrumentation.events(), "control_sent")
        )
        macs = [station.mac for station in network.stations]
        assert all(isinstance(mac, MacaMac) for mac in macs)
        assert sent["rts"] == sum(mac.rts_sent for mac in macs) > 0
        assert sent["cts"] == sum(mac.cts_sent for mac in macs) > 0
        assert sum(sent.values()) == sent["rts"] + sent["cts"]
        assert control_per_hop(network, result) == (
            sum(sent.values()) / result.hop_deliveries
        )

    def test_station_churn_drops_and_crashes(self):
        network = standard_network(
            STATIONS, placement_seed=47, config=NetworkConfig(seed=47), trace=True
        )
        add_uniform_poisson(network, LOAD, 48)
        plan = compile_plan(
            [
                StationChurn(
                    rate_per_slot=0.05,
                    start_slot=30.0,
                    end_slot=120.0,
                    mean_downtime_slots=30.0,
                )
            ],
            seed=5,
            station_count=STATIONS,
        )
        injector = install_faults(network, plan)
        result = network.run(DURATION_SLOTS * network.budget.slot_time)
        events = network.instrumentation.events()
        flushed = sum(
            event.count
            for event in of_kind(events, "queue_flush")
            if event.reason == "station_down"
        )
        assert flushed > 0
        assert (
            len(of_kind(events, "drop_station_down")) + flushed
            == result.fault_drops
        )
        crashes = [
            event for event in of_kind(events, "fault_inject")
            if event.fault == "down"
        ]
        assert len(crashes) == len(injector.log.crashes) > 0
        fault_failures = [
            event for event in of_kind(events, "rx_fail")
            if event.reason in FAULT_LOSS_REASONS
        ]
        fault_losses, sir_losses = split_losses(result.losses_by_reason)
        assert fault_losses == len(fault_failures) > 0
        assert fault_losses + sir_losses == result.losses_total

    def test_arq_retries_and_giveups(self):
        network, result = run_loaded_network(
            STATIONS,
            0.3,
            DURATION_SLOTS,
            config=NetworkConfig(seed=7, arq_max_retries=1),
            mac="aloha",
            trace=True,
        )
        events = network.instrumentation.events()
        assert len(of_kind(events, "arq_retry")) == result.arq_retries > 0
        assert len(of_kind(events, "arq_give_up")) == result.arq_giveups > 0


class TestWindowedSeries:
    @pytest.fixture(scope="class")
    def windowed(self):
        timelines = MetricTimelines()
        with use_instrumentation(Instrumentation((timelines,))):
            network = standard_network(
                STATIONS, placement_seed=7, config=NetworkConfig()
            )
        # The window is only known once the link budget is calibrated;
        # it may be assigned until the first event is emitted.
        timelines.window = 10.0 * network.budget.slot_time
        add_uniform_poisson(network, LOAD, 99)
        result = network.run(DURATION_SLOTS * network.budget.slot_time)
        return network, result, timelines

    def test_series_need_a_window(self):
        with pytest.raises(ValueError, match="window"):
            MetricTimelines().duty_series(0)

    @pytest.mark.parametrize("window", [0.0, -1.0, math.nan, math.inf])
    def test_window_must_be_positive_and_finite(self, window):
        with pytest.raises(ValueError, match="positive and finite"):
            MetricTimelines(window=window)

    @pytest.mark.parametrize("window", [0.0, -1.0, math.nan, math.inf])
    def test_assigned_window_must_be_positive_and_finite(self, window):
        # repro report assigns the window after the build, once the
        # slot time is known, so the check cannot live in __init__ only.
        timelines = MetricTimelines(window=2.0)
        with pytest.raises(ValueError, match="positive and finite"):
            timelines.window = window
        assert timelines.window == 2.0
        timelines.window = None
        assert timelines.window is None

    def test_counts_every_kind(self, windowed):
        _network, result, timelines = windowed
        assert timelines.count("rx_ok") == result.hop_deliveries
        assert timelines.kinds()["tx_outcome"] == result.transmissions

    def test_duty_series_integrates_to_airtime(self, windowed):
        network, _result, timelines = windowed
        window = timelines.window
        for station in network.stations:
            integrated = sum(
                duty * window
                for _start, duty in timelines.duty_series(station.index)
            )
            assert integrated == pytest.approx(
                station.transmitter.time_transmitting, rel=1e-9, abs=1e-12
            )

    def test_loss_series_sums_to_losses_total(self, windowed):
        _network, result, timelines = windowed
        assert sum(
            count for _start, count in timelines.loss_series()
        ) == result.losses_total

    def test_sir_series_is_nan_in_silent_windows(self, windowed):
        _network, _result, timelines = windowed
        series = timelines.sir_series(0)
        assert len(series) == timelines.window_count
        assert any(
            math.isnan(value) or value > 0.0 for _start, value in series
        )

    def test_queue_series_carries_depth_forward(self, windowed):
        _network, _result, timelines = windowed
        series = timelines.queue_depth_series(0)
        assert len(series) == timelines.window_count
        assert all(depth >= 0 for _start, depth in series)
