"""Tests for streaming statistics."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.stats import Welford


class TestWelford:
    def test_empty_is_nan(self):
        acc = Welford()
        assert math.isnan(acc.mean)
        assert math.isnan(acc.variance)

    def test_single_value(self):
        acc = Welford()
        acc.add(7.0)
        assert acc.mean == 7.0
        assert math.isnan(acc.variance)

    def test_min_max(self):
        acc = Welford()
        acc.extend([3.0, -1.0, 9.0])
        assert acc.minimum == -1.0
        assert acc.maximum == 9.0

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=50))
    def test_matches_numpy(self, values):
        acc = Welford()
        acc.extend(values)
        assert acc.mean == pytest.approx(float(np.mean(values)), rel=1e-9, abs=1e-6)
        assert acc.variance == pytest.approx(
            float(np.var(values, ddof=1)), rel=1e-6, abs=1e-6
        )
