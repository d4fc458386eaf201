"""Tests for the successive-interference-cancellation receiver model.

The SIC arithmetic is the load-bearing piece: cancellation must be
deterministic (power-sorted, seq tie-break), exact (the residual is
the original interference minus precisely the cancelled powers), and
bounded (depth, never below zero).  Hypothesis drives random
contribution sets through the model and re-derives the greedy chain
independently.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.radio.receiver_model import SicReceiver


class TestConstruction:
    def test_sic_depth_validated(self):
        with pytest.raises(ValueError):
            SicReceiver(depth=0)

    def test_frozen_value_object(self):
        # One instance is shared by every bank, so it must not change.
        model = SicReceiver()
        assert model == SicReceiver(depth=4)
        assert hash(model) == hash(SicReceiver())
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.depth = 2
        # The tag is a class constant, not a per-instance field.
        assert [field.name for field in dataclasses.fields(model)] == ["depth"]
        assert model.name == "sic"


def greedy_chain(wanted, interference, thermal, threshold, contributions, depth):
    """Independent re-derivation of the SIC chain the model must follow."""
    ordered = sorted(contributions, key=lambda entry: (-entry[0], entry[1]))
    residual_total = wanted + interference
    cancelled_power = 0.0
    cancelled = 0
    for power, _seq in ordered:
        if cancelled >= depth:
            break
        others = residual_total - power
        if power < threshold * (others + thermal):
            break
        residual_total -= power
        cancelled_power += power
        cancelled += 1
    if cancelled == 0:
        return interference, 0
    return max(interference - cancelled_power, 0.0), cancelled


class TestSicReceiver:
    def test_nothing_to_cancel_is_identity(self):
        model = SicReceiver()
        assert model.resolve_interference(1.0, 0.5, 1e-9, 0.05, []) == (0.5, 0)
        assert model.resolve_interference(
            1.0, 0.0, 1e-9, 0.05, [(0.3, 1)]
        ) == (0.0, 0)

    def test_cancels_dominant_interferer(self):
        # One interferer 100x the rest: trivially decodable, removed.
        model = SicReceiver(depth=4)
        reduced, cancelled = model.resolve_interference(
            1.0, 10.01, 1e-9, 0.05, [(10.0, 7), (0.01, 8)]
        )
        assert cancelled == 1
        assert reduced == pytest.approx(0.01)

    def test_stops_at_first_undecodable(self):
        # Two comparable interferers jam each other: neither clears the
        # threshold against the other plus the wanted signal.
        model = SicReceiver(depth=4)
        reduced, cancelled = model.resolve_interference(
            1.0, 2.0, 1e-9, 0.9, [(1.0, 1), (1.0, 2)]
        )
        assert cancelled == 0
        assert reduced == 2.0

    def test_depth_bounds_cancellation(self):
        contributions = [(10.0 ** (3 - k), k) for k in range(4)]
        total = sum(p for p, _ in contributions)
        shallow = SicReceiver(depth=1)
        _reduced, cancelled = shallow.resolve_interference(
            1e-3, total, 1e-12, 0.05, contributions
        )
        assert cancelled == 1
        deep = SicReceiver(depth=4)
        _reduced, cancelled = deep.resolve_interference(
            1e-3, total, 1e-12, 0.05, contributions
        )
        assert cancelled > 1

    def test_order_independent_of_input_order(self):
        model = SicReceiver(depth=4)
        contributions = [(4.0, 2), (0.5, 9), (4.0, 1), (2.0, 5)]
        expected = model.resolve_interference(
            1.0, 10.5, 1e-9, 0.05, contributions
        )
        shuffled = [contributions[i] for i in (2, 0, 3, 1)]
        assert (
            model.resolve_interference(1.0, 10.5, 1e-9, 0.05, shuffled)
            == expected
        )

    @settings(max_examples=200, deadline=None)
    @given(
        powers=st.lists(
            st.floats(min_value=1e-6, max_value=1e3), min_size=0, max_size=8
        ),
        wanted=st.floats(min_value=1e-6, max_value=1e3),
        threshold=st.floats(min_value=1e-3, max_value=2.0),
        depth=st.integers(min_value=1, max_value=6),
    )
    def test_matches_independent_greedy_chain(
        self, powers, wanted, threshold, depth
    ):
        thermal = 1e-9
        contributions = [(p, seq) for seq, p in enumerate(powers)]
        interference = float(np.sum(powers)) if powers else 0.0
        model = SicReceiver(depth=depth)
        reduced, cancelled = model.resolve_interference(
            wanted, interference, thermal, threshold, contributions
        )
        exp_reduced, exp_cancelled = greedy_chain(
            wanted, interference, thermal, threshold, contributions, depth
        )
        assert cancelled == exp_cancelled
        assert reduced == exp_reduced
        # Invariants: bounded depth, never negative, never amplifies.
        assert 0 <= cancelled <= depth
        assert 0.0 <= reduced <= interference

    @settings(max_examples=100, deadline=None)
    @given(
        powers=st.lists(
            st.floats(min_value=1e-6, max_value=1e3), min_size=1, max_size=8
        ),
        wanted=st.floats(min_value=1e-6, max_value=1e3),
        threshold=st.floats(min_value=1e-3, max_value=2.0),
    )
    def test_cancellation_is_exact_restore(self, powers, wanted, threshold):
        """The residual equals the original interference minus exactly
        the cancelled contributions — nothing else is touched."""
        thermal = 1e-9
        contributions = [(p, seq) for seq, p in enumerate(powers)]
        interference = float(np.sum(powers))
        model = SicReceiver(depth=8)
        reduced, cancelled = model.resolve_interference(
            wanted, interference, thermal, threshold, contributions
        )
        ordered = sorted(contributions, key=lambda entry: (-entry[0], entry[1]))
        cancelled_sum = sum(p for p, _ in ordered[:cancelled])
        assert reduced == max(interference - cancelled_sum, 0.0)
