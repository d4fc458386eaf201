"""Tests for the horizon-culled CSR gain field."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.metro import build_metro_scene
from repro.propagation.geometry import uniform_disk
from repro.propagation.matrix import PropagationMatrix
from repro.propagation.models import (
    AttenuatedFreeSpace,
    FreeSpace,
    PathLossExponent,
)
from repro.propagation.sparse import SparseGainField

#: The five arrays that make up a built field, in hashing order.
FIELD_ARRAYS = ("indptr", "rows", "vals", "culled_in_sum", "culled_out_max")

MODELS = {
    "free-space": FreeSpace(near_field_clamp=1e-6),
    "exponent-3": PathLossExponent(exponent=3.0, near_field_clamp=1e-6),
    "attenuated": AttenuatedFreeSpace(epsilon=0.01, near_field_clamp=1e-6),
}


def make_matrix(count=12, seed=0, radius=100.0):
    placement = uniform_disk(count, radius=radius, seed=seed)
    model = FreeSpace(near_field_clamp=1e-6)
    return placement, model, PropagationMatrix.from_placement(placement, model)


def field_bytes(field):
    """Each array's dtype and raw bytes: equality here is byte identity."""
    return [
        (getattr(field, name).dtype.str, getattr(field, name).tobytes())
        for name in FIELD_ARRAYS
    ]


def chunk_grouped_reference(gains, distances, cull, horizon, chunk):
    """``from_dense`` with ``culled_in_sum`` grouped as the builder
    groups it: one row-slice sum per chunk of transmitters, added in
    chunk order."""
    field = SparseGainField.from_dense(
        gains,
        cull_gain=cull,
        horizon_m=horizon,
        distances=None if horizon is None else distances,
    )
    if horizon is not None:
        gains = np.where(distances > horizon, 0.0, gains)
    culled = np.where((gains > 0.0) & (gains < cull), gains, 0.0)
    grouped = np.zeros(len(gains))
    for begin in range(0, len(gains), chunk):
        grouped += culled[:, begin : begin + chunk].sum(axis=1)
    return dataclasses.replace(field, culled_in_sum=grouped)


class TestFromDense:
    def test_cull_nothing_round_trips(self):
        _, _, matrix = make_matrix()
        field = SparseGainField.from_dense(matrix.gains)
        assert np.array_equal(field.to_dense(), matrix.gains)
        assert field.nnz == int(np.count_nonzero(matrix.gains))
        assert np.all(field.culled_in_sum == 0.0)
        assert np.all(field.culled_out_max == 0.0)

    def test_culling_accounts_for_every_dropped_gain(self):
        _, _, matrix = make_matrix(count=20, seed=3)
        cull = float(np.median(matrix.gains[matrix.gains > 0]))
        field = SparseGainField.from_dense(matrix.gains, cull_gain=cull)
        dense = field.to_dense()
        dropped = matrix.gains - dense
        assert np.all(dense[dense > 0] >= cull)
        # Per-receiver sums and per-transmitter maxima of what was cut.
        assert np.allclose(field.culled_in_sum, dropped.sum(axis=1))
        assert np.allclose(field.culled_out_max, dropped.max(axis=0))

    def test_horizon_culling_is_exact_not_accounted(self):
        placement, _, matrix = make_matrix(count=15, seed=4, radius=5000.0)
        distances = placement.distances()
        horizon = float(np.median(distances[distances > 0]))
        field = SparseGainField.from_dense(
            matrix.gains, horizon_m=horizon, distances=distances
        )
        dense = field.to_dense()
        over = distances > horizon
        assert np.all(dense[over] == 0.0)
        # Over-horizon zeros are physics, not approximation error.
        assert np.all(field.culled_in_sum == 0.0)
        assert np.all(field.culled_out_max == 0.0)

    def test_rejects_negative_cull(self):
        _, _, matrix = make_matrix()
        with pytest.raises(ValueError):
            SparseGainField.from_dense(matrix.gains, cull_gain=-1.0)

    def test_horizon_requires_distances(self):
        _, _, matrix = make_matrix()
        with pytest.raises(ValueError):
            SparseGainField.from_dense(matrix.gains, horizon_m=100.0)


class TestFromPlacement:
    def test_matches_from_dense(self):
        placement, model, matrix = make_matrix(count=30, seed=7)
        cull = float(np.median(matrix.gains[matrix.gains > 0]))
        via_dense = SparseGainField.from_dense(matrix.gains, cull_gain=cull)
        via_placement = SparseGainField.from_placement(
            placement, model, cull_gain=cull
        )
        assert np.array_equal(via_dense.indptr, via_placement.indptr)
        assert np.array_equal(via_dense.rows, via_placement.rows)
        assert np.array_equal(via_dense.vals, via_placement.vals)
        assert np.array_equal(
            via_dense.culled_in_sum, via_placement.culled_in_sum
        )
        assert np.array_equal(
            via_dense.culled_out_max, via_placement.culled_out_max
        )

    def test_chunk_size_is_bit_invariant(self):
        placement, model, matrix = make_matrix(count=25, seed=9)
        cull = float(np.median(matrix.gains[matrix.gains > 0]))
        fields = [
            SparseGainField.from_placement(
                placement, model, cull_gain=cull, chunk_columns=chunk
            )
            for chunk in (1, 7, 25, 128)
        ]
        for other in fields[1:]:
            # Stored entries and the column-local out-max are bit-equal;
            # the culled-in sums accumulate across chunks, so only their
            # grouping (last few ulps) can move with the chunk size.
            assert np.array_equal(fields[0].rows, other.rows)
            assert np.array_equal(fields[0].vals, other.vals)
            assert np.array_equal(
                fields[0].culled_out_max, other.culled_out_max
            )
            assert np.allclose(
                fields[0].culled_in_sum, other.culled_in_sum, rtol=1e-12
            )

    @settings(max_examples=30, deadline=None)
    @given(
        count=st.integers(min_value=2, max_value=300),
        seed=st.integers(min_value=0, max_value=2**16),
        chunk=st.sampled_from([1, 7, 128]),
        model_name=st.sampled_from(sorted(MODELS)),
        culled=st.booleans(),
        horizon=st.sampled_from([None, "short", "wide"]),
    )
    def test_matches_chunk_grouped_dense_bytes(
        self, count, seed, chunk, model_name, culled, horizon
    ):
        # Many chunks per scene: cross-chunk accumulation order, the
        # mirrored direction and ragged last chunks are all exercised.
        placement = uniform_disk(count, radius=5000.0, seed=seed)
        model = MODELS[model_name]
        distances = placement.distances()
        gains = PropagationMatrix.from_placement(placement, model).gains
        cull = float(np.median(gains[gains > 0])) if culled else 0.0
        # "short" masks pairs; "wide" exceeds the bounding-box diagonal.
        horizon_m = {
            None: None,
            "short": 0.5 * float(distances.max()),
            "wide": 3.0 * float(distances.max()),
        }[horizon]
        built = SparseGainField.from_placement(
            placement,
            model,
            cull_gain=cull,
            horizon_m=horizon_m,
            chunk_columns=chunk,
        )
        reference = chunk_grouped_reference(
            gains, distances, cull, horizon_m, chunk
        )
        assert field_bytes(built) == field_bytes(reference)

    def test_metro_field_digest_is_pinned(self):
        # Pinned from an independent (slab-by-slab) build of the same
        # scene; any change to gains, entry order or summation grouping
        # moves it.
        field = build_metro_scene(2000, 2029).gain_field
        digest = hashlib.md5()
        for _, raw in field_bytes(field):
            digest.update(raw)
        assert digest.hexdigest() == "80cf753dbd3c8f3db84564dc8bdd5bbe"

    def test_horizon_matches_dense_path(self):
        placement, model, matrix = make_matrix(count=20, seed=2, radius=8000.0)
        distances = placement.distances()
        horizon = float(np.median(distances[distances > 0]))
        via_dense = SparseGainField.from_dense(
            matrix.gains, horizon_m=horizon, distances=distances
        )
        via_placement = SparseGainField.from_placement(
            placement, model, horizon_m=horizon
        )
        assert np.array_equal(via_dense.rows, via_placement.rows)
        assert np.array_equal(via_dense.vals, via_placement.vals)


class TestQueries:
    def setup_method(self):
        _, _, self.matrix = make_matrix(count=16, seed=5)
        self.field = SparseGainField.from_dense(self.matrix.gains)

    def test_gain_matches_dense(self):
        assert self.field.gain(3, 7) == self.matrix.gains[3, 7]

    def test_self_gain_is_an_error(self):
        with pytest.raises(ValueError):
            self.field.gain(3, 3)

    def test_gather_matches_dense_row(self):
        receivers = np.array([0, 2, 5, 9, 15])
        gathered = self.field.gather(4, receivers)
        assert np.array_equal(gathered, self.matrix.gains[receivers, 4])

    def test_neighbors_match_matrix(self):
        cull = float(np.median(self.matrix.gains[self.matrix.gains > 0]))
        assert np.array_equal(
            self.field.neighbors(0, cull), self.matrix.neighbors(0, cull)
        )

    def test_received_powers_matches_eq2(self):
        powers = np.linspace(0.0, 2.0, 16)
        assert np.allclose(
            self.field.received_powers(powers),
            self.matrix.gains @ powers,
        )

    def test_interference_bound_covers_culled_power(self):
        cull = float(np.median(self.matrix.gains[self.matrix.gains > 0]))
        culled = SparseGainField.from_dense(self.matrix.gains, cull_gain=cull)
        peak = np.full(16, 2.0)
        bound = culled.interference_bound_w(peak)
        exact = self.matrix.gains @ peak
        assert np.all(bound >= exact - 1e-12 * np.abs(exact))

    def test_column_sizes_sum_to_nnz(self):
        sizes = self.field.column_sizes()
        assert int(sizes.sum()) == self.field.nnz

    def test_memory_accounting(self):
        expected = (
            self.field.indptr.nbytes
            + self.field.rows.nbytes
            + self.field.vals.nbytes
            + self.field.culled_in_sum.nbytes
            + self.field.culled_out_max.nbytes
        )
        assert self.field.memory_bytes == expected


class TestMatrixBridge:
    def test_to_sparse_delegates(self):
        _, _, matrix = make_matrix(count=10, seed=1)
        field = matrix.to_sparse()
        assert np.array_equal(field.to_dense(), matrix.gains)

    def test_neighbor_lists_cached_and_correct(self):
        _, _, matrix = make_matrix(count=18, seed=6)
        cull = float(np.median(matrix.gains[matrix.gains > 0]))
        lists = matrix.neighbor_lists(cull)
        assert matrix.neighbor_lists(cull) is lists  # cached per threshold
        for station, neighbors in enumerate(lists):
            expected = np.nonzero(matrix.gains[station] >= cull)[0]
            expected = expected[expected != station]
            assert np.array_equal(neighbors, expected)

    def test_neighbors_rejects_out_of_range(self):
        _, _, matrix = make_matrix(count=5)
        with pytest.raises(ValueError):
            matrix.neighbors(5, 1e-9)
