"""Tests for the Shannon-bound reception model."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.reception import (
    ReceptionTracker,
    TrackerBatch,
    max_rate,
    required_sir,
    shannon_capacity,
    sir,
)


class TestRequiredSir:
    def test_exact_form(self):
        # C/W = 1 bit/s/Hz needs SNR 1 (i.e. 2^1 - 1), times beta.
        assert required_sir(1e6, 1e6, beta=3.0) == pytest.approx(3.0)

    def test_paper_printed_form(self):
        assert required_sir(1e6, 1e6, beta=3.0, exact=False) == pytest.approx(6.0)

    def test_low_rate_limit_linear(self):
        # At C/W << 1 the threshold is ~ beta * ln2 * C/W.
        threshold = required_sir(1e3, 1e6, beta=1.0)
        assert threshold == pytest.approx(math.log(2.0) * 1e-3, rel=1e-3)

    def test_forms_agree_at_low_rate(self):
        exact = required_sir(1e3, 1e6, beta=3.0)
        printed = required_sir(1e3, 1e6, beta=3.0, exact=False)
        # The printed form differs by ~beta at low C/W; both tiny.
        assert printed > exact
        assert exact < 0.01

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            required_sir(1.0, 1.0, beta=0.9)


class TestSir:
    def test_basic_ratio(self):
        assert sir(3.0, 1.0, 0.5) == pytest.approx(2.0)

    def test_infinite_when_clean(self):
        assert sir(1.0, 0.0, 0.0) == math.inf

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            sir(-1.0, 1.0)


class TestShannon:
    def test_snr_one_gives_one_bit(self):
        assert shannon_capacity(1e6, 1.0) == pytest.approx(1e6)

    def test_paper_low_snr_example(self):
        # SNR 0.01 -> C/W = log2(1.01) ~= 0.0144.
        assert shannon_capacity(1e3, 0.01) == pytest.approx(14.355, abs=0.01)

    def test_max_rate_inverts_required_sir(self):
        rate = max_rate(1e6, snr=0.05, beta=3.0)
        assert required_sir(rate, 1e6, beta=3.0) == pytest.approx(0.05)

    @given(st.floats(min_value=1e-4, max_value=10.0))
    def test_max_rate_monotone(self, snr):
        assert max_rate(1e6, snr * 2.0) > max_rate(1e6, snr)


class TestReceptionTracker:
    def test_clean_reception_succeeds(self):
        tracker = ReceptionTracker(threshold=0.1, signal_power_w=1.0)
        tracker.update(0.0, 2.0)
        tracker.update(1.0, 5.0)
        assert tracker.ok
        assert tracker.min_sir == pytest.approx(0.2)

    def test_transient_violation_is_fatal(self):
        # "the signal-to-noise ratio be greater than the required
        # minimum for the duration of its reception" — a dip anywhere
        # kills the packet, even if conditions recover.
        tracker = ReceptionTracker(threshold=0.1, signal_power_w=1.0)
        tracker.update(0.0, 1.0)
        tracker.update(1.0, 100.0)  # dip
        tracker.update(2.0, 1.0)    # recovery
        assert not tracker.ok
        assert tracker.failed_at == 1.0

    def test_min_sir_tracks_worst(self):
        tracker = ReceptionTracker(threshold=0.01, signal_power_w=1.0)
        for interference in (1.0, 10.0, 2.0):
            tracker.update(0.0, interference)
        assert tracker.min_sir == pytest.approx(0.1)

    def test_thermal_noise_counts(self):
        tracker = ReceptionTracker(
            threshold=1.0, signal_power_w=1.0, noise_power_w=2.0
        )
        tracker.update(0.0, 0.0)
        assert not tracker.ok

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            ReceptionTracker(threshold=0.0, signal_power_w=1.0)

    @pytest.mark.parametrize(
        "field", ["threshold", "signal_power_w", "noise_power_w"]
    )
    def test_rejects_nan_parameters(self, field):
        arguments = dict(threshold=0.1, signal_power_w=1.0, noise_power_w=0.0)
        arguments[field] = math.nan
        with pytest.raises(ValueError):
            ReceptionTracker(**arguments)

    def test_nan_interference_fails(self):
        tracker = ReceptionTracker(threshold=0.5, signal_power_w=1e-3)
        tracker.update(1.0, 0.0)
        assert not tracker.update(2.0, math.nan)
        assert tracker.failed_at == 2.0
        assert math.isnan(tracker.min_sir)


class TestTrackerBatch:
    def _batch(self):
        from repro.core.reception import TrackerBatch

        return TrackerBatch(capacity=2)

    def test_matches_scalar_trackers(self):
        # The batch must report bit-identical min_sir/failed_at to a set
        # of scalar trackers fed the same interference history, NaN
        # levels included, whether it updates every tracker or a subset.
        import numpy as np

        from repro.core.reception import TrackerBatch

        rng = np.random.default_rng(7)
        batch = TrackerBatch(capacity=1)  # force growth
        scalars = {}
        for tag in range(9):
            threshold = float(rng.uniform(0.01, 0.5))
            signal = float(rng.uniform(0.0, 2.0))
            noise = float(rng.uniform(0.0, 1e-3))
            batch.add(
                tag=tag,
                receiver=tag % 4,
                threshold=threshold,
                signal_power_w=signal,
                noise_power_w=noise,
            )
            scalars[tag] = ReceptionTracker(
                threshold=threshold, signal_power_w=signal, noise_power_w=noise
            )
        nan_seen = 0
        for step in range(20):
            interference = rng.uniform(0.0, 5.0, batch.count)
            interference[rng.random(batch.count) < 0.05] = math.nan
            nan_seen += int(np.isnan(interference).sum())
            now = float(step)
            if step % 2:
                positions = np.flatnonzero(rng.random(batch.count) < 0.5)
                interference = interference[positions]
                failed = set(batch.update_where(now, interference, positions))
            else:
                positions = np.arange(batch.count)
                failed = set(batch.update(now, interference))
            newly_scalar = set()
            for level, position in zip(interference, positions):
                tracker = scalars[batch.tags[position]]
                was_ok = tracker.ok
                tracker.update(now, float(level))
                if was_ok and not tracker.ok:
                    newly_scalar.add(batch.tags[position])
            assert failed == newly_scalar
            if step == 9:  # mid-history removal exercises swap-remove
                self._assert_same(batch.remove(4), scalars.pop(4))
        for tag, scalar in scalars.items():
            self._assert_same(batch.remove(tag), scalar)
        assert batch.count == 0
        assert nan_seen > 0

    @staticmethod
    def _assert_same(record, scalar):
        assert record.ok == scalar.ok
        assert record.min_sir.hex() == scalar.min_sir.hex()
        assert record.failed_at == scalar.failed_at

    @pytest.mark.parametrize("subset", [False, True])
    def test_nan_interference_fails(self, subset):
        import numpy as np

        batch = self._batch()
        batch.add(tag=1, receiver=0, threshold=0.5, signal_power_w=1e-3)
        batch.add(tag=2, receiver=1, threshold=0.5, signal_power_w=1e-3)
        levels = np.array([0.0, math.nan])
        if subset:
            failed = batch.update_where(3.0, levels[1:], np.array([1]))
        else:
            failed = batch.update(3.0, levels)
        assert failed == (2,)
        assert batch.ok(1) and not batch.ok(2)
        assert math.isnan(batch.min_sir(2))
        assert batch.remove(2).failed_at == 3.0

    @pytest.mark.parametrize("subset", [False, True])
    def test_zero_denominator_gives_infinite_sir(self, subset):
        batch = self._batch()
        batch.add(tag=1, receiver=0, threshold=0.5, signal_power_w=1.0)
        if subset:
            batch.update_where(0.0, [0.0], [0])
        else:
            batch.update(0.0, np.zeros(1))
        assert batch.ok(1)
        assert batch.min_sir(1) == math.inf

    def test_swap_remove_keeps_dense_order_consistent(self):
        import numpy as np

        batch = self._batch()
        for tag in (10, 11, 12):
            batch.add(
                tag=tag,
                receiver=tag - 10,
                threshold=0.1,
                signal_power_w=float(tag),
            )
        batch.remove(10)  # last entry (12) swaps into slot 0
        assert set(batch.tags) == {11, 12}
        position = batch.tags.index(12)
        assert batch.signals[position] == 12.0
        assert batch.receivers[position] == 2
        assert 10 not in batch

    def test_rejects_duplicate_tag(self):
        batch = self._batch()
        batch.add(tag=5, receiver=0, threshold=0.1, signal_power_w=1.0)
        with pytest.raises(ValueError):
            batch.add(tag=5, receiver=1, threshold=0.1, signal_power_w=1.0)

    def test_rejects_bad_parameters(self):
        batch = self._batch()
        with pytest.raises(ValueError):
            batch.add(tag=1, receiver=0, threshold=0.0, signal_power_w=1.0)
        with pytest.raises(ValueError):
            batch.add(tag=2, receiver=0, threshold=0.1, signal_power_w=-1.0)
        with pytest.raises(ValueError):
            batch.add(
                tag=3, receiver=0, threshold=0.1, signal_power_w=1.0,
                noise_power_w=-1.0,
            )
        for field in ("threshold", "signal_power_w", "noise_power_w"):
            arguments = dict(threshold=0.1, signal_power_w=1.0, noise_power_w=0.0)
            arguments[field] = math.nan
            with pytest.raises(ValueError):
                batch.add(tag=4, receiver=0, **arguments)
        assert batch.count == 0


#: Interference levels at the edges of IEEE-754 arithmetic: both zeros,
#: the smallest subnormal, a level whose ratio underflows, and the two
#: non-finite values.
EDGE_LEVELS = (0.0, -0.0, 5e-324, 1e308, math.inf, math.nan)


class TestScopedPassEdges:
    """:meth:`TrackerBatch.update_where` folds row by row in Python
    floats and :meth:`TrackerBatch.update` in one numpy pass; both must
    match the scalar :class:`ReceptionTracker` bit for bit, at zero
    noise, where a zero level is a zero denominator and an ``inf``
    SIR."""

    @pytest.mark.parametrize("scoped", [False, True])
    @pytest.mark.parametrize("threshold", [0.5, 2.0])
    @pytest.mark.parametrize("signal", [0.0, 5e-324, 1.0, 1e308])
    def test_edge_levels_match_scalar_trackers(self, scoped, threshold, signal):
        # Every two-step history of edge levels, one reception each.
        histories = list(itertools.product(EDGE_LEVELS, repeat=2))
        batch = TrackerBatch()
        scalars = []
        for tag in range(len(histories)):
            batch.add(tag=tag, receiver=tag, threshold=threshold, signal_power_w=signal)
            scalars.append(ReceptionTracker(threshold=threshold, signal_power_w=signal))
        for step in range(2):
            now = float(step + 1)
            levels = [history[step] for history in histories]
            if scoped:
                failed = batch.update_where(now, levels, list(range(len(levels))))
            else:
                # A tiny level overflows the ratio to inf, as it should.
                with np.errstate(over="ignore"):
                    failed = batch.update(now, np.array(levels))
            newly = []
            for tag, (scalar, level) in enumerate(zip(scalars, levels)):
                was_ok = scalar.ok
                scalar.update(now, level)
                if was_ok and not scalar.ok:
                    newly.append(tag)
            assert failed == tuple(newly)
        for tag, scalar in enumerate(scalars):
            record = batch.remove(tag)
            assert record.min_sir.hex() == scalar.min_sir.hex(), histories[tag]
            assert record.failed_at == scalar.failed_at, histories[tag]

    def test_rejects_mismatched_levels(self):
        batch = TrackerBatch()
        batch.add(tag=7, receiver=0, threshold=0.5, signal_power_w=1.0)
        with pytest.raises(ValueError, match="expected 1 interference powers"):
            batch.update_where(1.0, [0.0, 1.0], [0])
