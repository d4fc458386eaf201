"""Property tests for the incremental interference field.

The medium maintains the Eq. 2 received-power field ``gains @ powers``
incrementally (one axpy per transmission begin/end).  These tests pin
the invariant that makes that safe: after *any* sequence of begins and
ends, the incremental field matches the exact matrix-vector recompute
to floating-point accumulation tolerance, and snaps back to exactly
zero when the channel drains.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net.medium import Medium, Transmission
from repro.net.packet import Packet
from repro.propagation.sparse import SparseGainField
from repro.radio.receiver_model import SicReceiver
from repro.radio.spreadspectrum import DespreaderBank
from repro.sim.engine import Environment
from repro.sim.sanitizer import SanitizerError

STATIONS = 6


class World:
    def __init__(self, count, channels=2, sic_stations=()):
        self.banks = [
            DespreaderBank(
                capacity=channels,
                model=SicReceiver() if station in sic_stations else None,
            )
            for station in range(count)
        ]

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


def build_medium(
    seed=0,
    resync_events=4096,
    sanitize=False,
    cull_gain=None,
    sir_threshold=0.05,
    sic_stations=(),
    gains=None,
    medium_class=Medium,
):
    """A test medium; ``cull_gain=None`` is dense, a float selects the
    sparse CSR representation at that significance threshold.  The
    banks at ``sic_stations`` cancel interference; ``gains`` replaces
    the seeded random matrix."""
    if gains is None:
        gains = make_gains(seed)
    count = len(gains)
    if cull_gain is not None:
        gains = SparseGainField.from_dense(gains, cull_gain=cull_gain)
    env = Environment(sanitize=sanitize)
    world = World(count, sic_stations=sic_stations)
    medium = medium_class(
        env=env,
        gains=gains,
        thermal_noise_w=1e-12,
        sir_thresholds=np.full(count, sir_threshold),
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
    exact = medium._field.exact(medium._powers)
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

    The dense-vs-CSR tests keep the default 4096-change resync cadence
    and the op sequences stay far below it, so the incremental paths —
    whose equivalence those tests pin — are what is exercised (the
    resync recompute intentionally uses a different summation order in
    each mode, which would cloud a bit-identity comparison).
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


def overheard(medium):
    """Register an overhearer on every station; returns the log of
    ``(station, seq)`` pairs they hear, in order."""
    log = []
    for station in range(STATIONS):
        medium.on_overheard(
            station, lambda tx, station=station: log.append((station, tx.seq))
        )
    return log


def receptions(medium):
    """Each locked reception's criterion state, to the last bit."""
    batch = medium._trackers
    return {
        seq: (batch.ok(seq), float.hex(batch.min_sir(seq)))
        for seq in medium._attempts
    }


def outcomes(medium):
    """Every reception outcome, to the last bit of each worst SIR."""
    losses = [
        (record.transmission.seq, record.reason, float.hex(record.min_sir))
        for record in medium.losses
    ]
    return losses, medium.deliveries


class TestSparseEquivalence:
    """Dense vs CSR medium: bit-identical at cull 0, provably bounded
    under-reporting with significance culling on."""

    @settings(max_examples=40, deadline=None)
    @given(ops=drive_ops_strategy, seed=st.integers(min_value=0, max_value=7))
    def test_cull_nothing_is_bit_identical(self, ops, seed):
        # A threshold of 2.0 makes some receptions fail, so the outcomes
        # compared below hold SIR losses as well as deliveries.
        _, dense = build_medium(seed=seed, sir_threshold=2.0)
        _, sparse = build_medium(seed=seed, cull_gain=0.0, sir_threshold=2.0)
        heard = overheard(dense), overheard(sparse)

        def check(d, s):
            assert np.array_equal(d._interference, s._interference)
            assert np.array_equal(d._powers, s._powers)
            assert s.field_error_bound_w() == 0.0
            assert receptions(d) == receptions(s)
            for tx in d.active_transmissions:
                for receiver in range(STATIONS):
                    assert d.interference_at(receiver, tx.seq) == (
                        s.interference_at(receiver, tx.seq)
                    )

        drive_pair(dense, sparse, ops, check)
        assert np.all(sparse._interference == 0.0)
        assert heard[0] == heard[1]
        assert outcomes(dense) == outcomes(sparse)

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
            field = s._field.gains
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

    def test_sparse_medium_refuses_link_writes(self):
        _, medium = build_medium(cull_gain=0.0)
        with pytest.raises(ValueError, match="read-only"):
            medium.scale_link(0, 1, 0.5)
        with pytest.raises(ValueError, match="read-only"):
            medium.update_links(np.array([0]), np.array([1]), np.array([1e-4]))
        assert medium.channel_drift_from_nominal() == 0.0


class AlwaysFold(Medium):
    """The reference: every retirement folds the trackers, as if no
    pass were ever skipped.  The extra pass is idempotent, so it leaves
    a retirement that already folded as it was."""

    def _end(self, tx):
        outcome = super()._end(tx)
        self._update_attempts(tx)
        return outcome

    def abort_transmissions_from(self, station, reason="source_down"):
        aborting = self.is_station_transmitting(station)
        super().abort_transmissions_from(station, reason)
        if aborting:
            self._update_attempts()


def burst(seq, source, destination, power_w):
    return Transmission(
        seq=seq,
        source=source,
        destination=destination,
        packet=packet(source, destination),
        power_w=power_w,
        start=0.0,
        duration=1.0,
    )


class TestRetirementFold:
    """A retirement folds only the rows a resync raised, or runs the
    whole pass while a cancelling receiver is tracked; every outcome
    must match a medium that always folds, to the last bit of each
    worst SIR."""

    @staticmethod
    def assert_matches_always_fold(ops, **options):
        _, medium = build_medium(**options)
        _, reference = build_medium(medium_class=AlwaysFold, **options)
        heard = overheard(medium), overheard(reference)

        def check(m, r):
            assert receptions(m) == receptions(r)

        drive_pair(medium, reference, ops, check)
        assert heard[0] == heard[1]
        assert outcomes(medium) == outcomes(reference)

    @settings(max_examples=80, deadline=None)
    @given(
        ops=drive_ops_strategy,
        seed=st.integers(min_value=0, max_value=7),
        field=st.sampled_from(["dense", "cull0", "median"]),
        resync_events=st.integers(min_value=1, max_value=8),
        sic_stations=st.frozensets(st.integers(min_value=0, max_value=STATIONS - 1)),
        sir_threshold=st.sampled_from([0.05, 2.0]),
    )
    def test_matches_always_fold(
        self, ops, seed, field, resync_events, sic_stations, sir_threshold
    ):
        gains = make_gains(seed)
        cull_gain = {
            "dense": None,
            "cull0": 0.0,
            "median": float(np.median(gains[gains > 0])),
        }[field]
        self.assert_matches_always_fold(
            ops,
            seed=seed,
            cull_gain=cull_gain,
            resync_events=resync_events,
            sic_stations=sic_stations,
            sir_threshold=sir_threshold,
        )

    @settings(max_examples=80, deadline=None)
    @given(
        ops=drive_ops_strategy,
        seed=st.integers(min_value=0, max_value=7),
        sir_threshold=st.sampled_from([0.05, 2.0]),
    )
    # When 2 -> 3 ends, station 1's field keeps a rounding residue of the
    # interferer its SIC receiver had cancelled, above the level it saw.
    @example(ops=[(2, 3.0, -1, False), (0, 1.0, 0, False)], seed=2, sir_threshold=0.05)
    def test_sic_receivers_match_always_fold(self, ops, seed, sir_threshold):
        # Every bank cancels, and no resync ever forces a pass, so only
        # the cancelling-receiver condition keeps a retirement folding.
        self.assert_matches_always_fold(
            ops,
            seed=seed,
            sic_stations=frozenset(range(STATIONS)),
            sir_threshold=sir_threshold,
        )

    def test_resync_refolds_a_retirement(self):
        # A 1e16 W burst cancels station 0's incremental field to 0
        # while the exact field holds 1 W: the resync at X's end lifts
        # W's interference from ~1e-3 W to 1 W, which only a pass at
        # that retirement can fold in.
        gains = np.full((5, 5), 1e-9)
        np.fill_diagonal(gains, 0.0)
        gains[0, 1] = gains[0, 2] = gains[0, 3] = 1.0
        gains[0, 4] = 1e-3
        # The planted drift exceeds the sanitizer's tolerance by design.
        _, medium = build_medium(gains=gains, resync_events=6)
        a = burst(0, 1, 2, 1e16)
        b = burst(1, 2, 1, 1.0)
        w = burst(2, 3, 0, 1.0)
        x = burst(3, 4, 3, 1.0)
        medium._begin(a)
        medium._begin(b)
        medium._end(a)
        assert medium._interference[0] == 0.0
        assert medium._field.exact(medium._powers)[0] == 1.0
        medium._begin(w)
        medium._begin(x)
        assert medium._trackers.min_sir(w.seq) > 999.0
        medium._end(x)  # the sixth field change: the resync
        assert medium._field_changes == 0
        assert float.hex(medium._trackers.min_sir(w.seq)) == "0x1.fffffffffdcd0p-1"

    @staticmethod
    def csr_resync_scene():
        """A CSR medium whose resync raises the row of W's receiver,
        station 0, at the begin of Y, whose column misses station 0, so
        no pass folds the raise.  As in the dense case, a 1e16 W burst
        leaves station 0's incremental field 1 W below the exact one.
        The ends of C and B both reach station 0.  Returns the medium,
        W, B and C."""
        gains = np.full((8, 8), 1e-9)
        np.fill_diagonal(gains, 0.0)
        gains[0, 1] = gains[0, 2] = gains[0, 3] = 1.0
        gains[0, 4] = 0.0
        gains[0, 5] = 1e-3
        # The planted drift exceeds the sanitizer's tolerance by design.
        _, medium = build_medium(gains=gains, cull_gain=0.0, resync_events=6)
        a = burst(0, 1, 2, 1e16)
        b = burst(1, 2, 1, 1.0)
        c = burst(2, 5, 6, 1.0)
        w = burst(3, 3, 0, 1.0)
        y = burst(4, 4, 7, 1.0)
        medium._begin(a)
        medium._begin(b)
        medium._end(a)
        medium._begin(c)
        medium._begin(w)
        medium._begin(y)  # the sixth field change: the resync
        assert medium._field_changes == 0
        assert medium._trackers.min_sir(w.seq) > 999.0
        return medium, w, b, c

    def test_csr_resync_refolds_a_retirement(self):
        # The resync lifts W's interference from ~1e-3 W to ~1 W and no
        # pass sees it; C's end takes only C's 1e-3 W away, so it must
        # fold in the rest.
        medium, w, _, c = self.csr_resync_scene()
        medium._end(c)
        assert float.hex(medium._trackers.min_sir(w.seq)) == "0x1.fffffffffdcd0p-1"

    @pytest.mark.parametrize("refold", ["retirement", "begin"])
    def test_csr_retirement_skips_once_refolded(self, monkeypatch, refold):
        medium, _, b, c = self.csr_resync_scene()
        calls = []
        update_where = medium._trackers.update_where
        monkeypatch.setattr(
            medium._trackers,
            "update_where",
            lambda now, levels, positions: calls.append(now)
            or update_where(now, levels, positions),
        )
        if refold == "retirement":
            medium._end(c)
        else:
            medium._begin(burst(5, 7, 6, 1.0))  # its column reaches station 0
        assert len(calls) == 1
        # Station 0's raise is folded in, so B's end, which reaches it
        # too, has nothing left to fold.
        medium._end(b)
        assert len(calls) == 1

    def test_csr_scoped_pass_folds_sic_rows(self, monkeypatch):
        # A begin on a CSR field folds the rows its column reaches one
        # at a time, re-applying each cancelling model to its own row.
        # At least one such pass must fold a reception that a SIC bank
        # tracks, and every outcome must match the always-folding
        # reference.
        options = dict(
            seed=3, cull_gain=0.0, sic_stations=frozenset(range(STATIONS))
        )
        _, medium = build_medium(**options)
        _, reference = build_medium(medium_class=AlwaysFold, **options)
        sic_rows = []
        batch = medium._trackers
        update_where = batch.update_where

        def spy(now, levels, positions):
            tags = batch.tags
            sic_rows.extend(
                tags[p] for p in positions if tags[p] in medium._sic_models
            )
            return update_where(now, levels, positions)

        monkeypatch.setattr(batch, "update_where", spy)
        ops = [
            (0, 1.0, -1, False),
            (2, 40.0, -1, False),
            (4, 0.5, 0, False),
            (1, 3.0, -1, False),
        ]

        def check(m, r):
            assert receptions(m) == receptions(r)

        drive_pair(medium, reference, ops, check)
        assert sic_rows
        assert outcomes(medium) == outcomes(reference)

    def test_retirement_skips_the_pass(self, monkeypatch):
        _, medium = build_medium()
        calls = []
        update = medium._trackers.update
        monkeypatch.setattr(
            medium._trackers,
            "update",
            lambda now, levels: calls.append(now) or update(now, levels),
        )
        first, second = burst(0, 0, 1, 1.0), burst(1, 2, 3, 1.0)
        medium._begin(first)
        medium._begin(second)
        assert len(calls) == 2
        medium._end(first)
        medium.abort_transmissions_from(second.source)
        assert len(calls) == 2

    @pytest.mark.parametrize("gain", [-1e-6, np.nan, np.inf])
    def test_refuses_negative_or_non_finite_gains(self, gain):
        # The skip is exact only while a retirement subtracts products
        # that are finite and >= 0.
        gains = make_gains(0)
        gains[1, 2] = gain
        with pytest.raises(ValueError, match="non-negative and finite"):
            build_medium(gains=gains)


EDGE_LEVELS = (0.0, -0.0, 5e-324, 1e308, math.inf, math.nan)


class TestScopedPass:
    """A pass over given rows folds them one at a time in Python floats,
    a pass over all rows in one numpy pass; both must leave every
    reception in the same state, to the last bit, whatever the field
    holds at its receiver."""

    @staticmethod
    def scene(level, sic):
        """A CSR medium tracking two receptions, at stations 1 and 3,
        with ``level`` planted in station 1's field."""
        _, medium = build_medium(
            cull_gain=0.0,
            sir_threshold=0.05,
            sic_stations=frozenset(range(STATIONS)) if sic else frozenset(),
        )
        medium._begin(burst(0, 0, 1, 1.0))
        medium._begin(burst(1, 2, 3, 1.0))
        medium._interference[1] = level
        return medium

    @pytest.mark.parametrize("sic", [False, True])
    @pytest.mark.parametrize("level", EDGE_LEVELS)
    def test_matches_the_pass_over_all_rows(self, level, sic):
        rows, whole = self.scene(level, sic), self.scene(level, sic)
        rows._fold(list(range(rows._trackers.count)))
        whole._fold(None)
        assert receptions(rows) == receptions(whole)
        assert [a.failure_sources for a in rows._attempts.values()] == [
            a.failure_sources for a in whole._attempts.values()
        ]
        assert [a.sic_max_cancelled for a in rows._attempts.values()] == [
            a.sic_max_cancelled for a in whole._attempts.values()
        ]

    def test_nan_level_fails_the_reception(self):
        # A NaN field must not be clamped away as "no interference".
        medium = self.scene(math.nan, sic=False)
        medium._fold([medium._trackers.position(0)])
        assert not medium._trackers.ok(0)
        assert math.isnan(medium._trackers.min_sir(0))
        assert medium._trackers.ok(1)
