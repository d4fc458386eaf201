"""Tests for the metro-scale projection and the simulated metro scene."""

import dataclasses
import math
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis.metro as metro
from repro.analysis.metro import (
    LEGACY_SCENE_DENSITY,
    MetroProjection,
    _first_joint_start,
    _offset_view,
    build_metro_scene,
    run_metro_scene,
)
from repro.core.schedule import Schedule
from repro.net.medium import Medium
from repro.net.network import PACKET_SIZE_BITS, NetworkConfig, build_network
from repro.net.traffic import TrafficSource
from repro.obs.events import RxOk, TxStart
from repro.sim.engine import Environment
from repro.sim.streams import RandomStreams


class TestAbstractClaim:
    def test_hundreds_of_megabits_at_a_million_stations(self):
        # The headline: 10^6 stations, 1 GHz, optimistic detection ->
        # raw per-station rate in the hundreds of Mb/s.
        projection = MetroProjection()
        assert 100e6 < projection.raw_rate_bps < 1e9

    def test_rate_survives_a_billion_stations(self):
        projection = MetroProjection(station_count=1e9)
        assert projection.raw_rate_bps > 50e6

    def test_conservative_case_still_useful(self):
        projection = MetroProjection(beta=3.0, reach_doublings=1.0)
        assert projection.raw_rate_bps > 10e6


class TestInternals:
    def test_snr_matches_eq15(self):
        projection = MetroProjection(station_count=1e6, duty_cycle=0.5)
        assert projection.snr == pytest.approx(1.0 / (0.5 * math.log(1e6)))

    def test_margins_reduce_design_snr(self):
        base = MetroProjection()
        margined = MetroProjection(beta=3.0, reach_doublings=1.0)
        assert margined.worst_case_snr == pytest.approx(base.worst_case_snr / 12.0)

    def test_sustained_rate_scales_with_duty(self):
        projection = MetroProjection()
        assert projection.sustained_rate_bps == pytest.approx(
            projection.raw_rate_bps * projection.duty_cycle
        )

    def test_aggregate_counts_every_station(self):
        projection = MetroProjection()
        assert projection.aggregate_rate_bps == pytest.approx(
            projection.sustained_rate_bps * 1e6
        )

    def test_processing_gain_positive_at_low_snr(self):
        projection = MetroProjection(beta=3.0, reach_doublings=1.0)
        assert projection.processing_gain_db > 10.0

    def test_thermal_noise_negligible(self):
        # Section 4's justification for dropping thermal noise.
        assert MetroProjection().thermal_noise_check() > 30.0

    def test_summary_keys(self):
        summary = MetroProjection().summary()
        assert {"raw_rate_mbps", "sustained_rate_mbps", "processing_gain_db"} <= set(
            summary
        )

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            MetroProjection(station_count=1.0)
        with pytest.raises(ValueError):
            MetroProjection(duty_cycle=0.0)

    @pytest.mark.parametrize(
        "field", ["station_count", "bandwidth_hz", "beta", "reach_doublings"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_parameters(self, field, value):
        with pytest.raises(ValueError):
            MetroProjection(**{field: value})


STATIONS = 400


@pytest.fixture(scope="module")
def scene():
    return build_metro_scene(STATIONS, seed=11)


class TestMetroScene:
    def test_density_fixes_the_radius(self, scene):
        expected = math.sqrt(STATIONS / (math.pi * LEGACY_SCENE_DENSITY))
        assert scene.placement.region_radius == pytest.approx(expected)

    def test_deterministic_rebuild(self, scene):
        again = build_metro_scene(STATIONS, seed=11)
        assert np.array_equal(scene.gain_field.vals, again.gain_field.vals)
        assert np.array_equal(scene.powers, again.powers)
        assert np.array_equal(scene.clock_offsets, again.clock_offsets)
        assert scene.budget.sir_threshold == again.budget.sir_threshold

    def test_nearest_is_strongest_stored_neighbour(self, scene):
        for station in range(STATIONS):
            rows, vals = scene.gain_field.column(station)
            assert scene.nearest[station] == rows[np.argmax(vals)]

    def test_threshold_survives_worst_case_interference(self, scene):
        # Calibration divides by the culling-inclusive bound, so even
        # the all-on worst case leaves the wanted SIR above threshold.
        bounds = scene.gain_field.interference_bound_w(scene.powers)
        delivered = scene.powers * np.array(
            [
                scene.gain_field.gain(int(scene.nearest[s]), s)
                for s in range(STATIONS)
            ]
        )
        worst = float(bounds.max()) + scene.budget.thermal_noise_w
        assert float(delivered.min()) / worst >= scene.budget.sir_threshold

    def test_summary_keys(self, scene):
        summary = scene.summary()
        assert {"nnz", "csr_memory_mb", "dense_memory_mb", "slot_time_s"} <= set(
            summary
        )

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            build_metro_scene(1)

    @pytest.mark.parametrize("field", ["density", "cull_fraction"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_parameters(self, field, value):
        # A NaN cull fraction kept every link.
        with pytest.raises(ValueError):
            build_metro_scene(10, **{field: value})

    def test_rejects_a_cull_that_empties_every_column(self):
        # No gain reaches 10^12 times the characteristic-length gain, so
        # every column is empty and the first station is named.
        with pytest.raises(ValueError, match="station 0 has no stored neighbours"):
            build_metro_scene(20, cull_fraction=1e12)


class TestMetroRun:
    def test_collision_free_and_accounted(self, scene):
        result = run_metro_scene(scene, load=0.05, duration_slots=10.0)
        assert result.transmitted > 0
        assert result.deliveries == result.transmitted
        assert result.collision_free
        assert result.losses_total == 0
        # Every arrival is either on the air or counted unschedulable.
        assert result.transmitted + result.unscheduled == result.offered_packets
        # The culling witness was live and stayed finite.
        assert 0.0 < result.max_field_error_bound_w < math.inf

    def test_same_seed_same_digest(self, scene):
        first = run_metro_scene(
            scene, duration_slots=5.0, env=Environment(sanitize=True)
        )
        second = run_metro_scene(
            scene, duration_slots=5.0, env=Environment(sanitize=True)
        )
        assert first.digest is not None
        assert first.digest == second.digest
        assert first.deliveries == second.deliveries

    @pytest.mark.parametrize("field", ["load", "duration_slots"])
    @pytest.mark.parametrize("value", [0.0, math.nan, math.inf])
    def test_rejects_bad_parameters(self, scene, field, value):
        # NaN and inf used to reach the Poisson draw, whose error did
        # not name the parameter.
        with pytest.raises(ValueError, match=f"^{field} must be"):
            run_metro_scene(scene, **{field: value})


class TestMetroRunPinned:
    """One 2,000-station scene pinned to its exact calibration, and one
    run on it to its exact outcome: events, deliveries, the culling
    witness's peak and the replay digest.  Any change to the link
    budget or to the sparse medium's hot path must leave all of them as
    they are."""

    @pytest.fixture(scope="class")
    def pinned_scene(self):
        return build_metro_scene(2000, 2029)

    def test_calibration(self, pinned_scene):
        # Bit for bit: the one Section 6 calibration, run on the
        # culling-inclusive bound with the weakest delivered power.
        budget = pinned_scene.budget
        assert budget.sir_threshold.hex() == "0x1.1ec35e77aebaep-6"
        assert budget.data_rate_bps.hex() == "0x1.06443ce6f7846p+13"
        assert budget.slot_time.hex() == "0x1.e80d96bff1ec5p-2"
        assert budget.packet_airtime.hex() == "0x1.e80d96bff1ec5p-4"
        assert budget.thermal_noise_w.hex() == "0x1.9f5cee4e33e86p-17"

    def test_outcome(self, pinned_scene):
        result = run_metro_scene(
            pinned_scene, load=0.05, duration_slots=20.0, traffic_seed=29
        )
        assert result.events == 4962
        assert result.transmitted == 1665
        assert result.deliveries == 1665
        assert result.losses_total == 0
        assert result.unscheduled == 350
        assert result.max_field_error_bound_w == pytest.approx(
            0.3018974855026905, rel=1e-12
        )

    def test_digest(self, pinned_scene):
        result = run_metro_scene(
            pinned_scene,
            load=0.05,
            duration_slots=20.0,
            traffic_seed=29,
            env=Environment(sanitize=True),
        )
        assert result.digest == "659074a04f02ca8fd4766a943bdcd568"


def reference_joint_start(
    schedule, sender_offset, receiver_offset, earliest, airtime, guard, deadline
):
    """The metro driver's former two-pointer sweep, kept as the
    reference for the shared search that replaced it.

    Walks the two stations' merged window streams in their own clock
    domains, converts each pair of windows to global time, insets the
    guard after the intersection and returns the first start that fits
    ``airtime``, or ``inf`` once a start would be at or past
    ``deadline``."""
    sender = schedule.windows(earliest + sender_offset, receive=False)
    receiver = schedule.windows(earliest + receiver_offset, receive=True)
    tx_a, tx_b = next(sender)
    rx_a, rx_b = next(receiver)
    while True:
        lo = max(tx_a - sender_offset, rx_a - receiver_offset) + guard
        hi = min(tx_b - sender_offset, rx_b - receiver_offset) - guard
        start = max(lo, earliest)
        if start >= deadline:
            return math.inf
        if hi - start >= airtime:
            return start
        if tx_b - sender_offset <= rx_b - receiver_offset:
            tx_a, tx_b = next(sender)
        else:
            rx_a, rx_b = next(receiver)


class TestJointStartMatchesSweep:
    """The metro driver's window search, ``find_transmit_window`` over
    pure-offset views, against the sweep it replaced: the same start
    bit for bit (``float.hex``, so the sign of zero counts), or ``inf``
    from both.  Each example asks one pair of views several questions,
    as the driver asks about a station's backlog, so the window tables
    are reused, outrun and rebuilt."""

    @settings(max_examples=300, deadline=None)
    @given(
        slot_time=st.sampled_from([1.0, 0.3, 2.5, 0.004]),
        sender_slots=st.floats(min_value=0.0, max_value=1000.0),
        # A receiver under a slot away shares the sender's designations
        # slot for slot (the Section 7.1 correlated case): its joint
        # windows are slivers at most |gap| slots long, and there are
        # none when the gap is shorter than the burst.
        gap_slots=st.one_of(
            st.floats(min_value=-0.99, max_value=0.99),
            st.floats(min_value=1.0, max_value=1000.0),
            st.floats(min_value=-1000.0, max_value=-1.0),
        ),
        guard_fraction=st.one_of(
            st.just(0.0), st.floats(min_value=0.0, max_value=0.1)
        ),
        airtime_fraction=st.floats(min_value=0.05, max_value=0.5),
        deadline_slots=st.floats(min_value=1.0, max_value=100.0),
        # Query instants: anywhere before the deadline, a few slots
        # before it (where the last part-slot decides), at it, or after
        # it; a fraction of the deadline or slots from it.
        queries=st.lists(
            st.one_of(
                st.tuples(
                    st.just("fraction"),
                    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
                ),
                st.tuples(
                    st.just("slots"),
                    st.floats(min_value=-5.0, max_value=0.0, exclude_max=True),
                ),
                st.tuples(st.just("slots"), st.just(0.0)),
                st.tuples(
                    st.just("slots"),
                    st.floats(min_value=0.0, max_value=2.0, exclude_min=True),
                ),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_same_start_as_the_sweep(
        self,
        slot_time,
        sender_slots,
        gap_slots,
        guard_fraction,
        airtime_fraction,
        deadline_slots,
        queries,
    ):
        schedule = Schedule(slot_time=slot_time, receive_fraction=0.3, key=1)
        sender_offset = sender_slots * slot_time
        receiver_offset = (sender_slots + gap_slots) * slot_time
        guard = guard_fraction * slot_time
        airtime = airtime_fraction * slot_time
        deadline = deadline_slots * slot_time
        sender = _offset_view(schedule, sender_offset)
        receiver = _offset_view(schedule, receiver_offset)
        for kind, value in queries:
            if kind == "fraction":
                earliest = value * deadline
            else:
                earliest = deadline + value * slot_time
            expected = reference_joint_start(
                schedule,
                sender_offset,
                receiver_offset,
                earliest,
                airtime,
                guard,
                deadline,
            )
            got = _first_joint_start(
                sender, receiver, earliest, airtime, guard, deadline
            )
            assert got.hex() == expected.hex()


def _metro_arrivals(scene, load, duration_slots, traffic_seed):
    """``run_metro_scene``'s arrival draw, replayed: each station's
    arrival times in the order the driver serialises them."""
    rng = RandomStreams(traffic_seed).stream("metro-traffic")
    count = scene.station_count
    per_station = rng.poisson(load * duration_slots, count)
    stations_of = np.repeat(np.arange(count, dtype=np.intp), per_station)
    horizon = duration_slots * scene.budget.slot_time
    times = rng.uniform(0.0, horizon, int(per_station.sum()))
    order = np.lexsort((times, stations_of))
    arrivals = defaultdict(list)
    for station, when in zip(stations_of[order].tolist(), times[order].tolist()):
        arrivals[station].append(when)
    return arrivals


class _Replay(TrafficSource):
    """Emits one packet to ``destination`` at each of ``times``."""

    def __init__(self, origin, destination, times, size_bits):
        super().__init__(origin, size_bits)
        self.destination = destination
        self.times = times

    def run(self, env, sink):
        for when in self.times:
            yield env.timeout(when - env.now)
            self._emit(env, sink, self.destination)


class TestDriversAgree:
    """The metro driver and a ``Network`` on one scene, with the same
    clocks, arrivals and guard, start every packet at the same instant.

    The network runs ``ShepardMac`` over the scene's placement with
    exact, rate-perfect clock models and no Section 7.3 courtesy; the
    metro driver gets the network's slot, airtime and clock offsets,
    reads the same receive fraction, schedule key and guard from the
    default ``NetworkConfig``, and keeps its own culling-inclusive SIR
    threshold.  Both sides are lossless.  Two differences are pinned:

    * *ulps*: the network reaches a neighbour's schedule through the
      exact clock model's fit (slope 1.0000000000000002) and lands its
      events at ``now + (t - now)``, so starts agree to 1e-9 slot, not
      bit for bit;
    * *re-plan on a wake*: the network re-plans a waiting head when the
      station wakes (on an arrival, or at the end of its previous
      burst) inside ``[start - guard, start)``.  The fresh search clips
      the sender's window at the wake and adds the guard, so the
      packet starts at wake + guard, later than the metro driver's
      one search per packet planned it.
    """

    LOAD = 0.05

    @pytest.mark.parametrize(
        "stations, scene_seed, traffic_seed, duration_slots, replans, failed",
        [(1000, 1029, 29, 20.0, 0, 2), (1500, 1529, 41, 30.0, 4, 3)],
    )
    def test_same_start_for_every_packet(
        self,
        monkeypatch,
        stations,
        scene_seed,
        traffic_seed,
        duration_slots,
        replans,
        failed,
    ):
        scene = build_metro_scene(stations, scene_seed)
        config = NetworkConfig(
            respect_neighbors=False,
            clock_rate_error_ppm=0.0,
            rendezvous_jitter=0.0,
            guard_fraction=0.01,
        )
        network = build_network(scene.placement, config, trace=True)
        budget = network.budget
        twin = dataclasses.replace(
            scene,
            clock_offsets=np.array([clock.offset for clock in network.clocks]),
            budget=dataclasses.replace(
                scene.budget,
                slot_time=budget.slot_time,
                packet_airtime=budget.packet_airtime,
            ),
        )
        slot = budget.slot_time
        guard = config.guard_fraction * slot
        horizon = duration_slots * slot
        tolerance = 1e-9 * slot

        metro_starts = defaultdict(list)

        class RecordingMedium(Medium):
            def transmit(self, source, destination, packet, power_w, duration):
                metro_starts[source].append(self.env.now)
                return super().transmit(
                    source, destination, packet, power_w, duration
                )

        monkeypatch.setattr(metro, "Medium", RecordingMedium)
        metro_result = run_metro_scene(
            twin,
            load=self.LOAD,
            duration_slots=duration_slots,
            traffic_seed=traffic_seed,
        )
        assert metro_result.transmitted > 0
        assert metro_result.deliveries == metro_result.transmitted
        assert metro_result.losses_total == 0

        arrivals = _metro_arrivals(twin, self.LOAD, duration_slots, traffic_seed)
        for station, times in arrivals.items():
            destination = int(scene.nearest[station])
            # The nearest neighbour is a direct route, so the network
            # sends each packet in one hop, as the metro driver does.
            assert network.tables[station].next_hop(destination) == destination
            network.add_traffic(
                _Replay(station, destination, times, PACKET_SIZE_BITS)
            )
        network_result = network.run(horizon + slot)
        assert network_result.losses_total == 0
        # A few pairs' clocks are closer than a burst is long (Section
        # 7.1), so no window ever fits; the metro driver leaves those
        # packets unscheduled, so the counts below still match.
        assert network_result.unreachable_drops == failed

        events = network.instrumentation.events()
        received = {event.packet for event in events if isinstance(event, RxOk)}
        network_starts = defaultdict(list)
        for event in events:
            if isinstance(event, TxStart) and event.time < horizon:
                assert event.packet in received
                network_starts[event.source].append(event.time)

        assert set(network_starts) == set(metro_starts)
        shifted = 0
        for station, starts in metro_starts.items():
            others = network_starts[station]
            assert len(others) == len(starts)
            for position, (start, other) in enumerate(zip(starts, others)):
                if abs(other - start) <= tolerance:
                    continue
                # A wake inside the guard band before the planned start:
                # an arrival, or the end of the previous burst.
                wakes = list(arrivals[station])
                if position:
                    wakes.append(others[position - 1] + budget.packet_airtime)
                assert other > start
                assert any(
                    start - guard <= wake < start
                    and abs(other - (wake + guard)) <= tolerance
                    for wake in wakes
                )
                shifted += 1
        assert shifted == replans
