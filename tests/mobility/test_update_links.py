"""Property tests for incremental channel updates against the field.

`Medium.update_links` is the channel process's write path: an
absolute-valued bulk gain update that patches the incremental
interference field by delta.  These tests pin the invariants that make
continuous channels safe: after any interleaving of gain updates and
transmission begins/ends, the incremental field matches the exact
recompute, and writing the original values back restores the medium to
nominal *bit-exactly*.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.medium import Transmission
from tests.net.test_medium_incremental import (
    STATIONS,
    apply_ops,
    assert_field_matches,
    build_medium,
    packet,
)

links_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=STATIONS - 1),
        st.integers(min_value=0, max_value=STATIONS - 1),
        st.floats(min_value=1e-9, max_value=1e-2),
    ),
    min_size=1,
    max_size=12,
)

ops_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=STATIONS - 1),
        st.floats(min_value=1e-3, max_value=100.0),
        st.integers(min_value=-1, max_value=8),
    ),
    max_size=12,
)


def _update(medium, links):
    receivers = np.array([r for r, s, _ in links if r != s], dtype=np.intp)
    sources = np.array([s for r, s, _ in links if r != s], dtype=np.intp)
    values = np.array([v for r, s, v in links if r != s], dtype=float)
    if receivers.size:
        medium.update_links(receivers, sources, values)


class TestIncrementalMatchesExact:
    @settings(max_examples=40, deadline=None)
    @given(links=links_strategy, ops=ops_strategy)
    def test_updates_between_bursts(self, links, ops):
        _env, medium = build_medium()
        _update(medium, links)
        assert_field_matches(medium)
        apply_ops(medium, ops)
        _update(medium, links)
        assert_field_matches(medium)

    @settings(max_examples=40, deadline=None)
    @given(
        links=links_strategy,
        before=ops_strategy,
        after=ops_strategy,
    )
    def test_updates_under_active_transmissions(self, links, before, after):
        """Gain updates while bursts are on the air patch the live
        field by delta; begins/ends before and after stay consistent."""
        _env, medium = build_medium()
        # Leave transmissions active: begin without ending.
        for station, power, _end in before:
            if not medium.is_station_transmitting(station):
                apply_ops(medium, [(station, power, -1)])
        _update(medium, links)
        assert_field_matches(medium)
        apply_ops(medium, after)
        assert_field_matches(medium)


class TestExactRestore:
    @settings(max_examples=25, deadline=None)
    @given(links=links_strategy)
    def test_writing_nominal_back_restores_bit_exactly(self, links):
        _env, medium = build_medium()
        receivers = np.array(
            [r for r, s, _ in links if r != s], dtype=np.intp
        )
        sources = np.array([s for r, s, _ in links if r != s], dtype=np.intp)
        if not receivers.size:
            return
        nominal = medium._field.gains[receivers, sources].copy()
        perturbed = np.array([v for r, s, v in links if r != s], dtype=float)
        perturbed = perturbed[: receivers.size]
        receivers = receivers[: perturbed.size]
        sources = sources[: perturbed.size]
        medium.update_links(receivers, sources, perturbed)
        assert medium.channel_drift_from_nominal() >= 0.0
        medium.update_links(receivers, sources, nominal)
        assert medium.channel_drift_from_nominal() == 0.0


class TestNonFiniteGains:
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_update_links_refuses_a_non_finite_gain(self, value):
        # NaN passed the ``<= 0.0`` check and reached the field.
        _env, medium = build_medium()
        with pytest.raises(ValueError, match="finite"):
            medium.update_links(np.array([0]), np.array([1]), np.array([value]))
        assert medium.channel_drift_from_nominal() == 0.0

    @pytest.mark.parametrize("factor", [math.nan, math.inf])
    def test_scale_link_refuses_a_non_finite_factor(self, factor):
        # Accepted, a NaN factor turned the field at station 0 into NaN
        # while station 1 was silent (0 W x NaN); restoring the link left
        # the NaN there, and the drift witness still read 0.0.
        _env, medium = build_medium()
        # A burst on the air keeps the idle snap-to-zero from hiding it.
        medium._begin(
            Transmission(
                seq=0,
                source=2,
                destination=3,
                packet=packet(2, 3),
                power_w=1.0,
                start=0.0,
                duration=1.0,
            )
        )
        with pytest.raises(ValueError, match="finite"):
            medium.scale_link(0, 1, factor)
        medium.scale_link(0, 1, 1.0)
        assert np.all(np.isfinite(medium._interference))
        assert medium.channel_drift_from_nominal() == 0.0

    def test_nan_cannot_pass_for_a_perfect_link(self):
        # A NaN interference level made the tracker's SIR inf, so every
        # reception at that receiver passed: here a 1 mW burst swamped by
        # a 100 W interferer was delivered once a NaN fade into its
        # receiver had reached the field.
        _env, medium = build_medium(sir_threshold=2.0)
        wanted, jammer = (
            Transmission(
                seq=seq,
                source=source,
                destination=destination,
                packet=packet(source, destination),
                power_w=power,
                start=0.0,
                duration=1.0,
            )
            for seq, (source, destination, power) in enumerate(
                [(2, 0, 1e-3), (3, 4, 100.0)]
            )
        )
        medium._begin(wanted)
        with pytest.raises(ValueError, match="finite"):
            medium.scale_link(0, 1, math.nan)
        medium._begin(jammer)
        medium._end(wanted)
        medium._end(jammer)
        assert medium.deliveries == 1
        assert [(r.transmission.seq, r.reason) for r in medium.losses] == [(0, "sir")]
