"""Tests for the propagation matrix H."""

import numpy as np
import pytest

from repro.propagation.geometry import uniform_disk
from repro.propagation.matrix import PropagationMatrix
from repro.propagation.models import FreeSpace


def make_matrix(count=10, seed=0):
    placement = uniform_disk(count, radius=100.0, seed=seed)
    return PropagationMatrix.from_placement(placement, FreeSpace(near_field_clamp=1e-6))


class TestConstruction:
    def test_symmetric(self):
        matrix = make_matrix()
        assert np.allclose(matrix.gains, matrix.gains.T)

    def test_zero_diagonal_required(self):
        with pytest.raises(ValueError):
            PropagationMatrix(np.ones((2, 2)))

    def test_rejects_negative_gains(self):
        gains = np.zeros((2, 2))
        gains[0, 1] = -1.0
        with pytest.raises(ValueError):
            PropagationMatrix(gains)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            PropagationMatrix(np.zeros((2, 3)))


class TestQueries:
    def test_gain_lookup(self):
        matrix = make_matrix()
        assert matrix.gain(1, 2) == matrix.gains[1, 2]

    def test_self_gain_is_an_error(self):
        with pytest.raises(ValueError):
            make_matrix().gain(3, 3)

    def test_amplitude_is_sqrt_of_gain(self):
        matrix = make_matrix()
        assert matrix.amplitude(0, 1) == pytest.approx(np.sqrt(matrix.gain(0, 1)))

    def test_received_powers_eq2(self):
        # Eq. 2 in the power domain: y_i = sum_j g_ij P_j.
        matrix = make_matrix(count=4)
        powers = np.array([1.0, 2.0, 0.0, 0.5])
        received = matrix.received_powers(powers)
        manual = np.array(
            [
                sum(matrix.gains[i, j] * powers[j] for j in range(4))
                for i in range(4)
            ]
        )
        assert np.allclose(received, manual)

    def test_received_powers_excludes_self(self):
        matrix = make_matrix(count=3)
        powers = np.array([5.0, 0.0, 0.0])
        assert matrix.received_powers(powers)[0] == 0.0

    def test_received_powers_shape_check(self):
        with pytest.raises(ValueError):
            make_matrix(count=3).received_powers(np.ones(4))

    def test_neighbors_above_threshold(self):
        matrix = make_matrix(count=20, seed=3)
        threshold = float(np.median(matrix.gains[matrix.gains > 0]))
        neighbors = matrix.neighbors(0, threshold)
        for n in neighbors:
            assert matrix.gain(0, int(n)) >= threshold
        assert 0 not in neighbors


class TestObserved:
    def test_censoring_removes_weak_links(self):
        matrix = make_matrix(count=15, seed=4)
        threshold = float(np.median(matrix.gains[matrix.gains > 0]))
        observed = matrix.observed(min_gain=threshold)
        weak = (matrix.gains > 0) & (matrix.gains < threshold)
        assert np.all(observed.gains[weak] == 0.0)

    def test_noise_free_observation_is_identity(self):
        matrix = make_matrix(count=6, seed=6)
        assert np.array_equal(matrix.observed().gains, matrix.gains)
