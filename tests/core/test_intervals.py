"""Tests for interval-stream algebra."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.intervals import (
    clip,
    first_fitting,
    intersect,
    subtract,
    total_length,
)


def stream_strategy():
    """Random ordered disjoint interval streams."""
    return st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0),
            st.floats(min_value=0.01, max_value=5.0),
        ),
        max_size=15,
    ).map(_to_stream)


def _to_stream(pairs):
    intervals = []
    cursor = 0.0
    for gap, length in sorted(pairs):
        start = cursor + gap / 10.0 + 0.01
        intervals.append((start, start + length))
        cursor = start + length
    return intervals


class TestIntersect:
    def test_basic_overlap(self):
        a = [(0.0, 10.0)]
        b = [(5.0, 15.0)]
        assert list(intersect(a, b)) == [(5.0, 10.0)]

    def test_disjoint_is_empty(self):
        assert list(intersect([(0, 1)], [(2, 3)])) == []

    def test_multiple_fragments(self):
        a = [(0.0, 10.0)]
        b = [(1.0, 2.0), (3.0, 4.0), (9.0, 12.0)]
        assert list(intersect(a, b)) == [(1.0, 2.0), (3.0, 4.0), (9.0, 10.0)]

    def test_touching_edges_do_not_intersect(self):
        assert list(intersect([(0, 1)], [(1, 2)])) == []

    @given(stream_strategy(), stream_strategy())
    def test_result_within_both(self, a, b):
        for lo, hi in intersect(a, b):
            assert any(s <= lo and hi <= e for s, e in a)
            assert any(s <= lo and hi <= e for s, e in b)

    @given(stream_strategy(), stream_strategy())
    def test_commutative_total_length(self, a, b):
        assert total_length(intersect(a, b)) == pytest.approx(
            total_length(intersect(b, a))
        )


class TestSubtract:
    def test_hole_in_middle(self):
        assert list(subtract([(0.0, 10.0)], [(4.0, 6.0)])) == [
            (0.0, 4.0),
            (6.0, 10.0),
        ]

    def test_hole_covering_all(self):
        assert list(subtract([(2.0, 3.0)], [(0.0, 5.0)])) == []

    def test_hole_at_edges(self):
        assert list(subtract([(0.0, 10.0)], [(0.0, 2.0), (8.0, 10.0)])) == [
            (2.0, 8.0)
        ]

    def test_no_holes(self):
        assert list(subtract([(1.0, 2.0)], [])) == [(1.0, 2.0)]

    def test_multiple_base_intervals(self):
        base = [(0.0, 3.0), (5.0, 8.0)]
        holes = [(2.0, 6.0)]
        assert list(subtract(base, holes)) == [(0.0, 2.0), (6.0, 8.0)]

    @given(stream_strategy(), stream_strategy())
    def test_result_disjoint_from_removed(self, base, removed):
        for lo, hi in subtract(base, removed):
            for s, e in removed:
                assert hi <= s or lo >= e

    @given(stream_strategy(), stream_strategy())
    def test_lengths_partition(self, base, removed):
        kept = total_length(subtract(base, removed))
        cut = total_length(intersect(base, removed))
        assert kept + cut == pytest.approx(total_length(base), abs=1e-9)


class TestClip:
    def test_clip_trims(self):
        assert list(clip([(0.0, 10.0)], 3.0, 7.0)) == [(3.0, 7.0)]

    def test_clip_stops_lazily(self):
        def infinite():
            t = 0.0
            while True:
                yield (t, t + 0.5)
                t += 1.0

        assert list(clip(infinite(), 0.0, 2.0)) == [(0.0, 0.5), (1.0, 1.5)]

    def test_clip_rejects_empty_window(self):
        with pytest.raises(ValueError):
            list(clip([(0.0, 1.0)], 5.0, 5.0))


class TestFirstFitting:
    def test_finds_earliest(self):
        windows = [(0.0, 0.3), (1.0, 3.0)]
        assert first_fitting(windows, 1.0) == (1.0, 2.0)

    def test_respects_not_before(self):
        windows = [(0.0, 10.0)]
        assert first_fitting(windows, 2.0, not_before=4.0) == (4.0, 6.0)

    def test_none_when_nothing_fits(self):
        assert first_fitting([(0.0, 0.5)], 1.0) is None

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            first_fitting([(0.0, 1.0)], 0.0)


class TestTotalLength:
    def test_sum(self):
        assert total_length([(0.0, 1.0), (2.0, 4.5)]) == pytest.approx(3.5)

    def test_empty(self):
        assert total_length([]) == 0.0
