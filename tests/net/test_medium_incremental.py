"""Property tests for the incremental interference field.

The medium maintains the Eq. 2 received-power field ``gains @ powers``
incrementally (one axpy per transmission begin/end).  These tests pin
the invariant that makes that safe: after *any* sequence of begins and
ends, the incremental field matches the exact matrix-vector recompute
to floating-point accumulation tolerance, and snaps back to exactly
zero when the channel drains.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.medium import Medium, Transmission
from repro.net.packet import Packet
from repro.propagation.sparse import SparseGainField
from repro.radio.spreadspectrum import DespreaderBank
from repro.sim.engine import Environment
from repro.sim.sanitizer import SanitizerError

STATIONS = 6


class World:
    def __init__(self, count, channels=2):
        self.banks = [DespreaderBank(capacity=channels) for _ in range(count)]

    def listen(self, station, now):
        return True

    def bank(self, station):
        return self.banks[station]


def make_gains(seed=0):
    rng = np.random.default_rng(seed)
    gains = rng.uniform(1e-8, 1e-3, (STATIONS, STATIONS))
    gains = (gains + gains.T) / 2.0
    np.fill_diagonal(gains, 0.0)
    return gains


def build_medium(seed=0, resync_events=4096, sanitize=False, cull_gain=None):
    """A test medium; ``cull_gain=None`` is dense, a float selects the
    sparse CSR representation at that significance threshold."""
    gains = make_gains(seed)
    if cull_gain is not None:
        gains = SparseGainField.from_dense(gains, cull_gain=cull_gain)
    env = Environment(sanitize=sanitize)
    world = World(STATIONS)
    medium = Medium(
        env=env,
        gains=gains,
        thermal_noise_w=1e-12,
        sir_thresholds=np.full(STATIONS, 0.05),
        listen_query=world.listen,
        channel_query=world.bank,
        resync_events=resync_events,
    )
    return env, medium


def packet(source, destination):
    return Packet(
        source=source, destination=destination, size_bits=100.0, created_at=0.0
    )


def apply_ops(medium, ops):
    """Drive an arbitrary begin/end interleaving through the medium.

    ``ops`` is a list of (station, power, end_index) actions: begin a
    burst from ``station`` (skipped while it is already transmitting),
    then end one active transmission chosen by ``end_index`` (no-op
    when negative).  Returns the exact-field error bound check count.
    """
    seq = 0
    active = []
    checks = 0
    peak_scale = 0.0
    for station, power, end_index in ops:
        if not medium.is_station_transmitting(station):
            destination = (station + 1) % STATIONS
            tx = Transmission(
                seq=seq,
                source=station,
                destination=destination,
                packet=packet(station, destination),
                power_w=power,
                start=medium.env.now,
                duration=1.0,
            )
            seq += 1
            medium._begin(tx)
            active.append(tx)
            checks, peak_scale = _checked(medium, checks, peak_scale)
        if active and end_index >= 0:
            tx = active.pop(end_index % len(active))
            medium._end(tx)
            checks, peak_scale = _checked(medium, checks, peak_scale)
    for tx in active:
        medium._end(tx)
        checks, peak_scale = _checked(medium, checks, peak_scale)
    return checks


def _checked(medium, checks, peak_scale):
    peak_scale = assert_field_matches(medium, peak_scale)
    return checks + 1, peak_scale


def assert_field_matches(medium, peak_scale=0.0):
    """Check the incremental field against the exact recompute.

    The absolute tolerance scales with the *peak* field magnitude seen
    so far, not the current one: each begin/end is one axpy, so the
    residual it can leave behind is a few ulps of the field at that
    moment, and ending a dominant transmission shrinks the field but
    not the residual.  Returns the updated peak for chained checks.
    """
    exact = medium._exact_field()
    scale = float(np.max(exact)) if exact.size else 0.0
    peak_scale = max(peak_scale, scale)
    assert np.allclose(
        medium._interference,
        exact,
        rtol=1e-9,
        atol=1e-12 * (peak_scale + 1e-30),
    ), "incremental field diverged from gains @ powers"
    return peak_scale


op_fields = (
    st.integers(min_value=0, max_value=STATIONS - 1),
    st.floats(min_value=1e-3, max_value=100.0),
    st.integers(min_value=-1, max_value=8),
)
ops_strategy = st.lists(st.tuples(*op_fields), min_size=1, max_size=30)


class TestIncrementalField:
    @settings(max_examples=60, deadline=None)
    @given(ops=ops_strategy, seed=st.integers(min_value=0, max_value=7))
    def test_matches_exact_recompute(self, ops, seed):
        env, medium = build_medium(seed=seed)
        checks = apply_ops(medium, ops)
        assert checks > 0

    @settings(max_examples=30, deadline=None)
    @given(ops=ops_strategy)
    def test_idle_field_is_exactly_zero(self, ops):
        env, medium = build_medium()
        apply_ops(medium, ops)
        # Everything ended: powers snapped to zero, field pinned to the
        # exact-zero idle state (not merely close to it).
        assert not medium.active_transmissions
        assert np.all(medium._powers == 0.0)
        assert np.all(medium._interference == 0.0)

    @settings(max_examples=30, deadline=None)
    @given(ops=ops_strategy)
    def test_aggressive_resync_is_transparent(self, ops):
        # Resyncing after every field change must agree with the lazy
        # cadence on every intermediate state.
        env, medium = build_medium(resync_events=1)
        apply_ops(medium, ops)
        assert np.all(medium._interference == 0.0)

    @settings(max_examples=20, deadline=None)
    @given(ops=ops_strategy)
    def test_sanitizer_resync_accepts_honest_field(self, ops):
        # Under the sanitizer every resync asserts closeness; a correct
        # incremental update must never trip it.
        env, medium = build_medium(resync_events=2, sanitize=True)
        apply_ops(medium, ops)

    def test_sanitizer_resync_detects_corruption(self):
        env, medium = build_medium(resync_events=1, sanitize=True)
        tx = Transmission(
            seq=0,
            source=0,
            destination=1,
            packet=packet(0, 1),
            power_w=1.0,
            start=0.0,
            duration=1.0,
        )
        medium._begin(tx)
        # Corrupt the field behind the incremental bookkeeping's back.
        medium._interference[2] += 1.0
        with pytest.raises(SanitizerError, match="drifted"):
            medium._end(tx)

    @pytest.mark.parametrize(
        "corruption, message", [("term", "differs"), ("missing", "do not match")]
    )
    def test_sanitizer_resync_detects_corrupt_bound_term(self, corruption, message):
        gains = make_gains(0)
        cull = float(np.median(gains[gains > 0]))
        env, medium = build_medium(resync_events=1, sanitize=True, cull_gain=cull)
        first, second = (
            Transmission(
                seq=k,
                source=2 * k,
                destination=2 * k + 1,
                packet=packet(2 * k, 2 * k + 1),
                power_w=1.0,
                start=0.0,
                duration=1.0,
            )
            for k in range(2)
        )
        medium._begin(first)
        # Corrupt the cached culling-bound terms behind the medium's back;
        # the next resync must notice before the witness is trusted.
        if corruption == "term":
            medium._bound_terms[first.seq] += 1.0
        else:
            del medium._bound_terms[first.seq]
        with pytest.raises(SanitizerError, match=message):
            medium._begin(second)

    def test_transmit_counter_tracks_activity(self):
        env, medium = build_medium()
        tx = Transmission(
            seq=0,
            source=3,
            destination=4,
            packet=packet(3, 4),
            power_w=2.0,
            start=0.0,
            duration=1.0,
        )
        assert not medium.is_station_transmitting(3)
        medium._begin(tx)
        assert medium.is_station_transmitting(3)
        assert not medium.is_station_transmitting(4)
        medium._end(tx)
        assert not medium.is_station_transmitting(3)

    def test_rejects_bad_resync_cadence(self):
        with pytest.raises(ValueError):
            build_medium(resync_events=0)


drive_ops_strategy = st.lists(
    st.tuples(*op_fields, st.booleans()), min_size=1, max_size=30
)


def drive_pair(dense, sparse, ops, check):
    """Replay one begin/end/abort interleaving through two mediums in
    lockstep, invoking ``check(dense, sparse)`` after every step.

    ``ops`` is a list of (station, power, end_index, abort) actions, as
    for :func:`apply_ops` plus a final flag: when set, every burst
    ``station`` has in flight is cut short through
    ``abort_transmissions_from`` (the fault path's removal route).

    Both mediums keep the default 4096-change resync cadence and the
    op sequences stay far below it, so the incremental paths — whose
    equivalence these tests pin — are what is exercised (the resync
    recompute intentionally uses a different summation order in each
    mode, which would cloud a bit-identity comparison).
    """
    seq = 0
    active = []
    for station, power, end_index, abort in ops:
        if not dense.is_station_transmitting(station):
            destination = (station + 1) % STATIONS
            template = Transmission(
                seq=seq,
                source=station,
                destination=destination,
                packet=packet(station, destination),
                power_w=power,
                start=0.0,
                duration=1.0,
            )
            seq += 1
            dense._begin(template)
            sparse._begin(template)
            active.append(template)
            check(dense, sparse)
        if active and end_index >= 0:
            template = active.pop(end_index % len(active))
            dense._end(template)
            sparse._end(template)
            check(dense, sparse)
        if abort:
            dense.abort_transmissions_from(station)
            sparse.abort_transmissions_from(station)
            active = [tx for tx in active if tx.source != station]
            check(dense, sparse)
    for template in active:
        dense._end(template)
        sparse._end(template)
        check(dense, sparse)


class TestSparseEquivalence:
    """Dense vs CSR medium: bit-identical at cull 0, provably bounded
    under-reporting with significance culling on."""

    @settings(max_examples=40, deadline=None)
    @given(ops=drive_ops_strategy, seed=st.integers(min_value=0, max_value=7))
    def test_cull_nothing_is_bit_identical(self, ops, seed):
        _, dense = build_medium(seed=seed)
        _, sparse = build_medium(seed=seed, cull_gain=0.0)

        def check(d, s):
            assert np.array_equal(d._interference, s._interference)
            assert np.array_equal(d._powers, s._powers)
            assert s.field_error_bound_w() == 0.0

        drive_pair(dense, sparse, ops, check)
        assert np.all(sparse._interference == 0.0)

    @settings(max_examples=40, deadline=None)
    @given(ops=drive_ops_strategy, seed=st.integers(min_value=0, max_value=7))
    def test_culled_error_stays_within_bound(self, ops, seed):
        gains = make_gains(seed)
        cull = float(np.median(gains[gains > 0]))
        _, dense = build_medium(seed=seed)
        _, sparse = build_medium(seed=seed, cull_gain=cull)

        def check(d, s):
            # The sparse field only ever under-reports, and never by
            # more than the medium's own live witness claims.
            shortfall = d._interference - s._interference
            bound = s.field_error_bound_w()
            scale = float(np.max(d._interference)) + 1e-30
            assert np.all(shortfall >= -1e-9 * scale)
            assert np.all(shortfall <= bound * (1.0 + 1e-9) + 1e-12 * scale)
            # The witness is exact: the from-scratch active-set sum, to
            # the last bit, through begins, ends and aborts alike.
            field = s.sparse
            assert bound == sum(
                tx.power_w * float(field.culled_out_max[tx.source])
                for tx in s.active_transmissions
            )

        drive_pair(dense, sparse, ops, check)
        assert sparse.field_error_bound_w() == 0.0  # idle again

    @settings(max_examples=20, deadline=None)
    @given(ops=ops_strategy)
    def test_sparse_sanitizer_resync_accepts_honest_field(self, ops):
        env, medium = build_medium(resync_events=2, sanitize=True, cull_gain=0.0)
        apply_ops(medium, ops)

    def test_dense_mode_reports_zero_bound(self):
        _, medium = build_medium()
        assert medium.field_error_bound_w() == 0.0

    def test_sparse_scale_link_rejects_culled_links(self):
        gains = make_gains(3)
        cull = float(gains.max()) * 2.0  # cull everything
        _, medium = build_medium(seed=3, cull_gain=cull)
        with pytest.raises(ValueError, match="culled"):
            medium.scale_link(0, 1, 0.5)
