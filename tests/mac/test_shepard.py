"""Tests for the paper's channel access scheme as station behaviour."""

import math
from unittest import mock

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import repro.mac.shepard as shepard
from repro.clock.clock import Clock
from repro.clock.sync import ClockSample
from repro.core.access import NoTransmitWindowError, find_transmit_window
from repro.core.schedule import Schedule
from repro.mac.shepard import ShepardMac
from repro.net.network import PACKET_SIZE_BITS, NetworkConfig, build_network
from repro.net.packet import Packet
from repro.net.queueing import NeighborQueues
from repro.net.station import Station
from repro.net.traffic import PoissonTraffic
from repro.obs.events import TxStart
from repro.propagation.geometry import uniform_disk
from repro.sim.engine import Environment
from repro.sim.streams import RandomStreams
from tests.core.test_access import _jittered_model, _samples, stall_alarm


def running_network(count=15, seed=13, load=0.08, duration_slots=250, **overrides):
    placement = uniform_disk(count, radius=600.0, seed=seed)
    config = NetworkConfig(seed=seed, **overrides)
    network = build_network(placement, config, trace=True)
    rng = RandomStreams(seed).stream("traffic")
    for origin in range(count):
        network.add_traffic(
            PoissonTraffic(
                origin=origin,
                rate=load / network.budget.slot_time,
                destinations=list(range(count)),
                size_bits=PACKET_SIZE_BITS,
                rng=rng,
            )
        )
    network.run(duration_slots * network.budget.slot_time)
    return network


def tx_starts(network):
    return [
        event
        for event in network.instrumentation.events()
        if isinstance(event, TxStart)
    ]


class TestSchemeInvariants:
    def test_zero_losses(self):
        network = running_network()
        assert network.medium.losses == []

    def test_no_transmission_during_own_receive_window(self):
        # The schedule is a commitment: a station must never transmit
        # inside its own published receive windows.
        network = running_network()
        for event in tx_starts(network):
            sender = network.stations[event.source]
            assert not sender.own_view.is_receiving_at(event.time), (
                f"station {sender.index} keyed up during its receive window"
            )

    def test_every_transmission_lands_in_receiver_window(self):
        network = running_network()
        for event in tx_starts(network):
            receiver = network.stations[event.destination]
            assert receiver.own_view.is_receiving_at(event.time)

    def test_listening_matches_schedule(self):
        network = running_network()
        station = network.stations[0]
        for t in (0.0, 3.7, 19.2, 55.0):
            assert station.mac.is_listening(t) == station.own_view.is_receiving_at(t)

    def test_avoided_neighbors_receive_windows_respected(self):
        # Section 7.3: when an avoid set exists, no transmission may
        # overlap a protected neighbour's receive window.
        network = running_network(count=25, seed=17, load=0.1)
        protected_pairs = [
            (station.index, hop, view)
            for station in network.stations
            for hop in station.table.neighbors_in_use()
            for view in station.avoid_views(hop)
        ]
        if not protected_pairs:
            pytest.skip("no avoid sets arose in this placement")
        # Re-check from the trace using exact schedule views.
        for event in tx_starts(network):
            sender = network.stations[event.source]
            for view in sender.avoid_views(event.destination):
                assert not view.is_receiving_at(event.time)

    def test_no_control_traffic(self):
        # "no per-packet transmissions other than the single
        # transmission used to convey the packet".
        network = running_network()
        data_hops = network.medium.deliveries
        # Every burst was a delivered data hop.
        assert len(tx_starts(network)) == data_hops


class TestQuarterSlotPacking:
    def test_airtime_is_quarter_slot(self):
        network = running_network(duration_slots=50)
        assert network.budget.packet_airtime == pytest.approx(
            network.budget.slot_time / 4.0
        )


class TestConstruction:
    @pytest.mark.parametrize("guard", [math.nan, math.inf])
    def test_rejects_a_guard_that_is_not_finite(self, guard):
        with pytest.raises(ValueError, match="finite"):
            ShepardMac(guard=guard)

    @pytest.mark.parametrize("search_slots", [0, -3, math.nan])
    def test_rejects_a_horizon_under_one_slot(self, search_slots):
        with pytest.raises(ValueError, match="horizon"):
            ShepardMac(search_slots=search_slots)


# -- plan reuse against the uncached search ----------------------------------

#: One bit per second: an airtime is its packet's size, exactly, so an
#: example can name an airtime to the ulp.
RATE_BPS = 1.0


class _Medium:
    """The one call a Station makes on its medium while it is built."""

    def on_delivery(self, index, callback):
        pass


def _station(schedule, clock, mac, delays):
    return Station(
        env=Environment(),
        index=0,
        position=(0.0, 0.0),
        clock=clock,
        schedule=schedule,
        medium=_Medium(),
        queue=NeighborQueues(),
        table=None,
        mac=mac,
        transmitter=None,
        bank=None,
        data_rate_bps=RATE_BPS,
        power_lookup=lambda hop: 1.0,
        delay_lookup=lambda hop: delays[hop],
    )


def _packet(hop, slot_time, fraction):
    return Packet(
        source=0,
        destination=hop,
        size_bits=fraction * slot_time * RATE_BPS,
        created_at=0.0,
    )


def _ulps(value, count):
    direction = math.inf if count > 0 else -math.inf
    for _ in range(abs(count)):
        value = math.nextafter(value, direction)
    return value


def _avoid_end(plan, count):
    """``count`` ulps past the end of the first receive window, at the
    plan's instant, of the plan's first avoid view (``None`` without
    one, or when the view maps no window): a query past it no longer
    subtracts that window."""
    if not plan.avoid:
        return None
    try:
        window = next(plan.avoid[0].receive_windows(plan.since))
    except (RuntimeError, ValueError):
        # The errors ``_check`` expects the MAC and the reference
        # search to raise alike.
        return None
    return _ulps(window[1], count)


#: Where an ``aim`` move puts the next query, relative to a plan: its
#: reuse bound, one ulp either side of it, the naive bound ``start -
#: guard`` and two ulps either side of that, and just past the end of
#: an avoid view's first receive window.
_AIMS = {
    "until": lambda plan, guard: plan.until,
    "until+1": lambda plan, guard: _ulps(plan.until, 1),
    "until-1": lambda plan, guard: _ulps(plan.until, -1),
    **{
        f"naive{count:+d}": (
            lambda plan, guard, count=count: _ulps(plan.start - guard, count)
        )
        for count in range(-2, 3)
    },
    "avoid-end": lambda plan, guard: _avoid_end(plan, 0),
    "avoid-end+1": lambda plan, guard: _avoid_end(plan, 1),
}

_plan_clocks = st.builds(
    Clock,
    offset=st.one_of(
        st.floats(min_value=-1e3, max_value=1e5),
        st.floats(min_value=1e5, max_value=1e7),
    ),
    rate_error=st.floats(min_value=-5e-5, max_value=5e-5),
)
_neighbor = st.integers(min_value=1, max_value=6)
_hop = st.integers(min_value=0, max_value=3)
_plan_moves = st.one_of(
    st.tuples(st.just("aim"), _hop, st.sampled_from(sorted(_AIMS))),
    st.tuples(st.just("step"), st.floats(min_value=0.0, max_value=3.0)),
    st.tuples(st.just("step"), st.floats(min_value=20.0, max_value=500.0)),
    st.tuples(st.just("sample"), _neighbor, st.floats(-0.02, 0.02)),
    st.tuples(st.just("refit"), _neighbor, _samples),
    st.tuples(st.just("learn"), _neighbor, _samples),
    st.tuples(
        st.just("clock"),
        st.floats(min_value=-0.5, max_value=0.5),
        st.floats(min_value=-2e-5, max_value=2e-5),
    ),
    st.tuples(st.just("avoid"), _hop, st.lists(_neighbor, max_size=3, unique=True)),
    st.tuples(
        st.just("delay"),
        _hop,
        st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=0.5)),
    ),
    st.tuples(st.just("packet"), _hop, st.floats(min_value=0.05, max_value=1.0)),
)


class TestPlanReuseMatchesSearch:
    """``ShepardMac`` reuses a queue head's planned start only when the
    uncached search would return it: bit for bit, over query sequences
    aimed at the reuse bound and at the naive bound ``start - guard``,
    across refits, view swaps, avoid-set and delay changes."""

    # Without Phase.explain: its line tracer makes shrinking a failure
    # of this long-running test take minutes and a gigabyte.
    @settings(
        max_examples=150,
        deadline=None,
        phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink],
    )
    @given(
        slot_time=st.one_of(
            st.sampled_from([0.05, 1.0, 20.0]),
            st.floats(min_value=0.05, max_value=20.0),
        ),
        own_clock=_plan_clocks,
        neighbor_clocks=st.lists(_plan_clocks, min_size=6, max_size=6),
        neighbor_samples=st.lists(_samples, min_size=6, max_size=6),
        hop_count=st.integers(min_value=1, max_value=4),
        avoid_sets=st.lists(
            st.lists(_neighbor, max_size=3, unique=True), min_size=4, max_size=4
        ),
        fractions=st.lists(
            st.floats(min_value=0.05, max_value=1.0), min_size=4, max_size=4
        ),
        guard_slots=st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=0.2)),
        search_slots=st.integers(min_value=1, max_value=40),
        start=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=5e3)),
        moves=st.lists(_plan_moves, min_size=20, max_size=40),
    )
    # The hole of neighbour 2's first receive window ends just before a
    # piece one ulp too short for the packet, and the step lands where
    # the query's round trip through neighbour 2 is past that window's
    # end but its round trip through the sender is not.  The search
    # then no longer subtracts the window, and the freed stretch of the
    # hole lets the packet fit 20 slots earlier: only the avoid cap
    # stops the plan at this query.
    @example(
        slot_time=1.0,
        own_clock=Clock(offset=6768842.914444639),
        neighbor_clocks=[
            Clock(offset=9964570.484498722),
            Clock(offset=9934210.234640434),
            *(Clock(offset=1e6 * k) for k in range(1, 5)),
        ],
        neighbor_samples=[[(-1.0, 0.0), (0.0, 0.0)]] * 6,
        hop_count=1,
        avoid_sets=[[2], [], [], []],
        fractions=[0.5001417119055988, 0.5, 0.5, 0.5],
        guard_slots=0.125,
        search_slots=40,
        start=330.0,
        moves=[("step", 0.7653595642186701)],
    )
    # The clock step and the sample after it fit neighbour 1 a slope
    # of zero.  The model refuses it for the latest sample's offset, so
    # hop 3's plan has an avoid view mapped through that fallback, and
    # the aim lands just past its first receive window.
    @example(
        slot_time=0.05,
        own_clock=Clock(),
        neighbor_clocks=[
            Clock(),
            Clock(),
            Clock(offset=1.0),
            *(Clock() for _ in range(3)),
        ],
        neighbor_samples=[[(0.0, 0.0)]] * 6,
        hop_count=3,
        avoid_sets=[[], [], [1], []],
        fractions=[1.0, 1.0, 1.0, 1.0],
        guard_slots=0.0,
        search_slots=2,
        start=0.0,
        moves=[("clock", 0.5, 0.0), ("sample", 1, 0.0), ("aim", 2, "avoid-end")],
    )
    @stall_alarm(60, "a window search in this query sequence did not end")
    def test_query_sequence(
        self,
        slot_time,
        own_clock,
        neighbor_clocks,
        neighbor_samples,
        hop_count,
        avoid_sets,
        fractions,
        guard_slots,
        search_slots,
        start,
        moves,
    ):
        schedule = Schedule(slot_time=slot_time, receive_fraction=0.3, key=99)
        clocks = dict(enumerate(neighbor_clocks, start=1))
        models = {}
        delays = {hop: 0.0 for hop in range(1, 5)}
        mac = ShepardMac(guard=guard_slots * slot_time, search_slots=search_slots)
        station = _station(schedule, own_clock, mac, delays)

        def learn(neighbor, samples):
            model = _jittered_model(station.clock, clocks[neighbor], samples)
            models[neighbor] = model
            station.learn_neighbor_clock(neighbor, schedule, model)

        for neighbor, samples in zip(clocks, neighbor_samples):
            learn(neighbor, samples)
        hops = list(range(1, hop_count + 1))
        for hop, fraction, avoid in zip(hops, fractions, avoid_sets):
            station.queue.enqueue(hop, _packet(hop, slot_time, fraction))
            station.set_avoid_neighbors(hop, [other for other in avoid if other != hop])
        now = start
        for kind, *value in [("step", 0.0), *moves]:
            if kind in ("aim", "avoid", "delay", "packet"):
                hop = hops[value[0] % len(hops)]
            if kind == "step":
                now += value[0] * slot_time
            elif kind == "aim":
                plan = mac._plans.get(hop)
                target = None if plan is None else _AIMS[value[1]](plan, mac.guard)
                if target is not None:
                    now = max(now, target)
            elif kind == "learn":
                learn(*value)
            elif kind == "sample":
                # A rolling refit in place (the online rendezvous).
                neighbor, jitter = value
                models[neighbor].add_sample(
                    ClockSample(
                        station.clock.reading(now),
                        clocks[neighbor].reading(now) + jitter,
                    )
                )
            elif kind == "refit":
                # A fault recovery: reset, then refill.
                neighbor, samples = value
                models[neighbor].reset()
                for offset, jitter in samples:
                    models[neighbor].add_sample(
                        ClockSample(
                            station.clock.reading(now + offset),
                            clocks[neighbor].reading(now + offset) + jitter,
                        )
                    )
            elif kind == "clock":
                step, rate_delta = value
                clock = station.clock
                station.replace_clock(
                    Clock(
                        offset=clock.offset + step * slot_time,
                        rate_error=clock.rate_error + rate_delta,
                    )
                )
            elif kind == "avoid":
                station.set_avoid_neighbors(
                    hop, [other for other in value[1] if other != hop]
                )
            elif kind == "delay":
                delays[hop] = value[1]
            else:
                station.queue.pop(hop)
                station.queue.enqueue(hop, _packet(hop, slot_time, value[1]))
            self._check(station, mac, now)

    @staticmethod
    def _check(station, mac, now):
        heads = station.queue.heads()
        wanted = []
        for hop, packet in heads:
            try:
                window = find_transmit_window(
                    station.own_view,
                    station.neighbor_view(hop),
                    packet.airtime(RATE_BPS),
                    earliest=now,
                    guard=mac.guard,
                    avoid=station.avoid_views(hop),
                    search_slots=mac.search_slots,
                    propagation_delay=station.delay_for(hop),
                )
            except NoTransmitWindowError:
                window = None
            except (RuntimeError, ValueError) as error:
                # An input the search refuses is refused in the MAC
                # alike.
                with pytest.raises(type(error)):
                    mac._best_candidate(now)
                return
            wanted.append(window)
        failures = station.stats.unreachable_drops
        best = mac._best_candidate(now)
        # A failed search is never planned: each one is searched and
        # counted again.
        assert station.stats.unreachable_drops - failures == wanted.count(None)
        expected = None
        for (hop, packet), window in zip(heads, wanted):
            plan = mac._plans.get(hop)
            if plan is not None and plan.holds(
                now,
                station.own_view,
                station.neighbor_view(hop),
                station.avoid_views(hop),
                packet.airtime(RATE_BPS),
                station.delay_for(hop),
                mac.guard,
                mac.search_slots,
            ):
                # The MAC took this head's start from the plan.
                assert window is not None, (hop, now)
                assert plan.start.hex() == window[0].hex(), (hop, now)
            if window is not None and (expected is None or window[0] < expected[0]):
                expected = (window[0], hop, packet)
        if expected is None:
            assert best is None
        else:
            assert best[0].hex() == expected[0].hex()
            assert best[1:] == expected[1:]

    def test_a_running_network_reuses_plans(self):
        searches = []
        heads = []
        best_candidate = ShepardMac._best_candidate

        def counted(*args, **kwargs):
            searches.append(kwargs["earliest"])
            return find_transmit_window(*args, **kwargs)

        def planned(mac, now):
            heads.append(len(mac.station.queue.heads()))
            return best_candidate(mac, now)

        with mock.patch.object(shepard, "find_transmit_window", counted), (
            mock.patch.object(ShepardMac, "_best_candidate", planned)
        ):
            network = running_network(count=15, seed=13, load=0.3, duration_slots=80)
        assert network.medium.losses == []
        assert 0 < len(searches) < sum(heads)
