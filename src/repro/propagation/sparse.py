"""Horizon-culled sparse gain field: the metro-scale form of H.

Section 4 escapes the divergent-interference paradox with the radio
horizon: "only stations that are not hidden over the horizon can
contribute to the interference at a receiver".  At metro scale that
observation is also the key to a *computable* medium: a dense ``(M, M)``
gain matrix is 80 GB at 10^5 stations, but each transmitter's over-the-
horizon links are physically zero and its sub-significance links are
negligible, so per-transmitter columns of (receiver, gain) pairs — a
CSR-by-transmitter layout — hold everything the interference field
needs in O(M x neighbourhood) memory.

Two distinct mechanisms shrink a column, with different standing:

* **Horizon culling** (``horizon_m``): links longer than the mutual
  radio horizon are set to *exactly zero*.  This is model physics, not
  an approximation — the paper's Section 4 argument — so it carries no
  error accounting.
* **Significance culling** (``cull_gain``): links weaker than a gain
  threshold are dropped from the stored structure but **accounted**:
  every culled gain is summed per receiver (``culled_in_sum``) and
  maxed per transmitter (``culled_out_max``) during the build.  The
  interference the simulator then under-reports at receiver ``i`` is
  provably at most ``sum_{j active} P_j * g_ij^culled``, which both
  ``culled_in_sum[i] * max_power`` (static, per receiver) and
  ``sum_{j active} P_j * culled_out_max[j]`` (dynamic, maintained by
  the medium) bound from above.  With ``cull_gain == 0`` nothing is
  culled, both accounts are identically zero, and the sparse field is
  *bit-identical* to the dense one: exact zeros are the only dropped
  entries, and adding ``0.0`` to a non-negative float is the identity.

The builder (:meth:`SparseGainField.from_placement`) never materialises
an O(M^2) array: it walks the station pairs in cache-sized tiles,
computing each pair's gain once for both directions, and holds O(nnz)
output plus O(chunk x tile) transient memory.  Because ``culled_in_sum``
is exact, it still does Theta(M^2) pair work while the horizon covers
the placement; ``chunk_columns`` fixes that sum's grouping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.propagation.geometry import Placement
from repro.propagation.models import PropagationModel

__all__ = ["SparseGainField", "DEFAULT_CHUNK_COLUMNS"]

#: Default number of stations per build chunk.  It fixes the grouping
#: of ``culled_in_sum`` (one partial per transmitter chunk), so changing
#: it moves that sum's last few ulps.
DEFAULT_CHUNK_COLUMNS = 128

#: Transmitter chunks per build tile.  At the default chunk a tile is
#: ``(128, 512)`` floats (512 KiB): it stays in cache across the tile's
#: passes and amortises numpy dispatch.
_TILE_CHUNKS = 4


@dataclass(frozen=True)
class SparseGainField:
    """Power gains stored as per-transmitter CSR columns.

    ``column(j)`` yields the receivers that hear transmitter ``j`` and
    the gains into them — exactly the axpy vector of the medium's
    incremental interference field.  Receiver indices are strictly
    ascending within each column, which makes single-gain lookups a
    binary search and scattered field updates cache-friendly.

    Attributes:
        count: number of stations M.
        indptr: ``(M + 1,)`` int64 column boundaries into ``rows``/``vals``.
        rows: ``(nnz,)`` int32 receiver indices, sorted per column.
        vals: ``(nnz,)`` float64 power gains.
        cull_gain: significance threshold; stored entries satisfy
            ``gain >= cull_gain`` (and ``gain > 0``).
        culled_in_sum: ``(M,)`` per-receiver sum of significance-culled
            gains (the static error account).
        culled_out_max: ``(M,)`` per-transmitter maximum culled gain
            (the dynamic error account).
        horizon_m: mutual radio horizon applied at build time, if any
            (informational; horizon-zeroed links are physics, not error).
        symmetric: whether the underlying matrix is reciprocal
            (``g_ij == g_ji``); required by :meth:`neighbors`.
    """

    count: int
    indptr: np.ndarray
    rows: np.ndarray
    vals: np.ndarray
    cull_gain: float
    culled_in_sum: np.ndarray
    culled_out_max: np.ndarray
    horizon_m: Optional[float] = None
    symmetric: bool = True

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("need at least one station")
        if self.indptr.shape != (self.count + 1,):
            raise ValueError("indptr must have M + 1 entries")
        if self.rows.shape != self.vals.shape:
            raise ValueError("rows and vals must be parallel arrays")
        if int(self.indptr[-1]) != self.rows.size:
            raise ValueError("indptr must end at nnz")
        if self.cull_gain < 0.0:
            raise ValueError("cull gain must be non-negative")
        if self.culled_in_sum.shape != (self.count,):
            raise ValueError("need one culled-in sum per receiver")
        if self.culled_out_max.shape != (self.count,):
            raise ValueError("need one culled-out max per transmitter")

    # -- structure ------------------------------------------------------

    @property
    def nnz(self) -> int:
        """Stored (receiver, transmitter) pairs."""
        return int(self.rows.size)

    @property
    def density(self) -> float:
        """Stored fraction of the off-diagonal dense matrix."""
        off_diagonal = self.count * (self.count - 1)
        if off_diagonal == 0:
            return 0.0
        return self.nnz / off_diagonal

    @property
    def memory_bytes(self) -> int:
        """Bytes held by the CSR arrays (the dense matrix needs 8 M^2)."""
        return int(
            self.indptr.nbytes
            + self.rows.nbytes
            + self.vals.nbytes
            + self.culled_in_sum.nbytes
            + self.culled_out_max.nbytes
        )

    def column_sizes(self) -> np.ndarray:
        """Stored receivers per transmitter (the interferer-set sizes)."""
        return np.diff(self.indptr)

    def column(self, transmitter: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(receivers, gains)`` views for one transmitter's column."""
        if not 0 <= transmitter < self.count:
            raise ValueError("transmitter index out of range")
        lo = int(self.indptr[transmitter])
        hi = int(self.indptr[transmitter + 1])
        return self.rows[lo:hi], self.vals[lo:hi]

    # -- gain queries ---------------------------------------------------

    def gain(self, receiver: int, transmitter: int) -> float:
        """Stored power gain from ``transmitter`` to ``receiver``.

        Culled and over-horizon links read as 0.0, exactly as the
        medium's field arithmetic treats them.
        """
        if receiver == transmitter:
            raise ValueError("self-gain is undefined; Type 3 is handled locally")
        rows, vals = self.column(transmitter)
        position = int(np.searchsorted(rows, receiver))
        if position < rows.size and int(rows[position]) == receiver:
            return float(vals[position])
        return 0.0

    def gather(self, transmitter: int, receivers: np.ndarray) -> np.ndarray:
        """Gains from ``transmitter`` into an array of receivers.

        The sparse analogue of a dense ``gains[receivers, transmitter]``;
        absent entries gather as 0.0.
        """
        rows, vals = self.column(transmitter)
        receivers = np.asarray(receivers)
        positions = np.searchsorted(rows, receivers)
        clipped = np.minimum(positions, max(rows.size - 1, 0))
        if rows.size == 0:
            return np.zeros(receivers.shape)
        found = rows[clipped] == receivers
        out = np.where(found, vals[clipped], 0.0)
        return np.asarray(out, dtype=float)

    def neighbors(self, station: int, min_gain: float) -> np.ndarray:
        """Stations with a stored link to ``station`` of at least
        ``min_gain`` — the CSR form of
        :meth:`repro.propagation.matrix.PropagationMatrix.neighbors`,
        computed from one column without densifying anything.

        Requires a reciprocal matrix (``symmetric=True``): the stations
        ``station`` hears are exactly the stations that hear it.
        """
        if min_gain <= 0.0:
            raise ValueError("minimum gain must be positive")
        if not self.symmetric:
            raise ValueError(
                "neighbor queries need a reciprocal (symmetric) gain field"
            )
        rows, vals = self.column(station)
        return rows[vals >= min_gain].astype(np.intp)

    def received_powers(self, transmit_powers: np.ndarray) -> np.ndarray:
        """Eq. 2 over the sparse structure: ``sum_j g_ij P_j`` per
        receiver, in one pass over the stored entries."""
        powers = np.asarray(transmit_powers, dtype=float)
        if powers.shape != (self.count,):
            raise ValueError(f"expected {self.count} transmit powers")
        if np.any(powers < 0.0):
            raise ValueError("transmit powers must be non-negative")
        per_entry = np.repeat(powers, np.diff(self.indptr))
        return np.bincount(
            self.rows, weights=self.vals * per_entry, minlength=self.count
        )

    def interference_bound_w(self, peak_powers: np.ndarray) -> np.ndarray:
        """Worst-case aggregate interference per receiver, *including*
        the culled mass: the stored Eq. 2 sum at peak powers plus
        ``culled_in_sum * max(peak_powers)``.

        Folding the culled account into the bound is what keeps a
        design calibrated on the sparse field sound: the true dense
        interference can exceed the simulated one by at most the culled
        term, which this bound already charges for.
        """
        peak = np.asarray(peak_powers, dtype=float)
        stored = self.received_powers(peak)
        top = float(peak.max()) if peak.size else 0.0
        return stored + self.culled_in_sum * top

    # -- construction ---------------------------------------------------

    @classmethod
    def from_dense(
        cls,
        gains: np.ndarray,
        cull_gain: float = 0.0,
        horizon_m: Optional[float] = None,
        distances: Optional[np.ndarray] = None,
    ) -> "SparseGainField":
        """Convert a dense gain matrix, culling below ``cull_gain``.

        Args:
            gains: ``(M, M)`` power-gain matrix, zero diagonal.
            cull_gain: significance threshold (0.0 keeps every nonzero
                entry — the bit-identical configuration).
            horizon_m: with ``distances`` given, zero links longer than
                this before culling (physics, not accounted error).
            distances: pairwise distances matching ``gains``.
        """
        gains = np.asarray(gains, dtype=float)
        if gains.ndim != 2 or gains.shape[0] != gains.shape[1]:
            raise ValueError("gain matrix must be square")
        if np.any(gains < 0.0):
            raise ValueError("power gains must be non-negative")
        if cull_gain < 0.0:
            raise ValueError("cull gain must be non-negative")
        if horizon_m is not None:
            if distances is None:
                raise ValueError("horizon culling needs the distance matrix")
            gains = np.where(distances > horizon_m, 0.0, gains)
        count = gains.shape[0]
        positive = gains > 0.0
        np.fill_diagonal(positive, False)
        kept = positive & (gains >= cull_gain)
        culled = positive & ~kept
        culled_gains = np.where(culled, gains, 0.0)
        culled_in_sum = culled_gains.sum(axis=1)
        culled_out_max = culled_gains.max(axis=0)
        # Column-major walk: transpose so nonzero() yields entries
        # grouped by transmitter with ascending receiver index.
        cols, receivers = np.nonzero(kept.T)
        indptr = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(np.bincount(cols, minlength=count), out=indptr[1:])
        symmetric = bool(np.array_equal(gains, gains.T))
        return cls(
            count=count,
            indptr=indptr,
            rows=receivers.astype(np.int32),
            vals=gains.T[cols, receivers].astype(float),
            cull_gain=float(cull_gain),
            culled_in_sum=culled_in_sum,
            culled_out_max=culled_out_max,
            horizon_m=horizon_m,
            symmetric=symmetric,
        )

    @classmethod
    def from_placement(
        cls,
        placement: Placement,
        model: PropagationModel,
        cull_gain: float = 0.0,
        horizon_m: Optional[float] = None,
        chunk_columns: int = DEFAULT_CHUNK_COLUMNS,
    ) -> "SparseGainField":
        """Tiled build straight from geometry, one gain per station pair.

        Gains depend on distance alone and ``(a - b)**2 == (b - a)**2``
        exactly, so each unordered pair is mapped through the
        propagation model once and serves both directions.  Stations
        are cut into chunks of ``chunk_columns``.  A tile pairs one
        receiver chunk with a few transmitter chunks at or after it,
        small enough to stay in cache; tiles are visited receiver chunk
        outer, transmitter chunk inner, both ascending.  One sort on the
        (transmitter, receiver) key then assembles the CSR.

        ``culled_in_sum`` is exact, so every pair inside the horizon is
        visited: the build does Theta(M^2) pair work while the horizon
        covers the placement, and holds O(nnz) output plus
        O(chunk x tile) transient memory.  The stored entries and
        ``culled_out_max`` do not depend on ``chunk_columns``.
        ``culled_in_sum`` does, in its last few ulps: the chunk size
        fixes its grouping, one partial per transmitter chunk added in
        chunk order, each partial a contiguous row sum.  It is an error
        *bound* account, not simulated state, so replay determinism
        holds as long as one chunk size is used per scene build (the
        default is fixed at :data:`DEFAULT_CHUNK_COLUMNS`).
        """
        if cull_gain < 0.0:
            raise ValueError("cull gain must be non-negative")
        if chunk_columns < 1:
            raise ValueError("need at least one column per chunk")
        count = placement.count
        x = np.ascontiguousarray(placement.positions[:, 0])
        y = np.ascontiguousarray(placement.positions[:, 1])
        mask_horizon = False
        if horizon_m is not None:
            # Rounding is monotone, so no pair distance computed below
            # exceeds the bounding-box diagonal computed the same way.
            span_x = x.max() - x.min()
            span_y = y.max() - y.min()
            diagonal = np.sqrt(span_x * span_x + span_y * span_y)
            mask_horizon = bool(diagonal > horizon_m)
        culled_in_sum = np.zeros(count)
        culled_out_max = np.zeros(count)
        key_pieces = []
        val_pieces = []
        tile_width = chunk_columns * _TILE_CHUNKS
        for begin in range(0, count, chunk_columns):
            end = min(begin + chunk_columns, count)
            for left in range(begin, count, tile_width):
                right = min(left + tile_width, count)
                dx = np.subtract.outer(x[begin:end], x[left:right])
                dy = np.subtract.outer(y[begin:end], y[left:right])
                dx *= dx
                dy *= dy
                dx += dy
                distance = np.sqrt(dx, out=dx)
                gains = np.asarray(model.power_gain(distance), dtype=float)
                # Each pair from column ``mirror`` on also yields the
                # reverse link; the diagonal block before it already
                # holds both directions.
                mirror = left
                if left == begin:
                    # Zero the self-gains (Type 3 is handled locally).
                    own = np.arange(end - begin)
                    gains[own, own] = 0.0
                    mirror = end
                if mask_horizon:
                    gains[distance > horizon_m] = 0.0
                if cull_gain > 0.0:
                    kept = gains >= cull_gain
                    culled = np.where(kept, 0.0, gains)
                    # Row stations add one partial per transmitter chunk,
                    # stations from ``mirror`` on one for the row chunk;
                    # the tile order keeps each receiver's partials in
                    # chunk order.
                    for lo in range(0, right - left, chunk_columns):
                        part = culled[:, lo : lo + chunk_columns]
                        culled_in_sum[begin:end] += part.sum(axis=1)
                    # A contiguous copy makes the mirrored partials row
                    # sums too, in the same summation order.
                    mirrored = culled[:, mirror - left :].T.copy()
                    culled_in_sum[mirror:right] += mirrored.sum(axis=1)
                    outgoing = culled_out_max[left:right]
                    np.maximum(outgoing, culled.max(axis=0), out=outgoing)
                    outgoing = culled_out_max[begin:end]
                    np.maximum(outgoing, culled.max(axis=1), out=outgoing)
                else:
                    kept = gains > 0.0
                flat = np.flatnonzero(kept)
                vals = gains.ravel()[flat]
                receiver, transmitter = np.divmod(flat, right - left)
                receiver += begin
                transmitter += left
                reverse = transmitter >= mirror
                key_pieces.append(transmitter * count + receiver)
                key_pieces.append(receiver[reverse] * count + transmitter[reverse])
                val_pieces.append(vals)
                val_pieces.append(vals[reverse])
        # Drop each input as soon as it is copied: the peak stays at a
        # few nnz-long arrays.
        keys = np.concatenate(key_pieces)
        vals = np.concatenate(val_pieces)
        del key_pieces, val_pieces
        order = np.argsort(keys)
        keys = keys[order]
        vals = vals[order]
        del order
        # Column j starts at the first key at or above j * M.
        indptr = np.searchsorted(keys, np.arange(count + 1) * count)
        return cls(
            count=count,
            indptr=indptr.astype(np.int64),
            rows=np.remainder(keys, count, out=keys).astype(np.int32),
            vals=vals,
            cull_gain=float(cull_gain),
            culled_in_sum=culled_in_sum,
            culled_out_max=culled_out_max,
            horizon_m=horizon_m,
            symmetric=True,
        )

    def to_dense(self) -> np.ndarray:
        """Dense ``(M, M)`` reconstruction (tests and small scenes only)."""
        dense = np.zeros((self.count, self.count))
        for transmitter in range(self.count):
            rows, vals = self.column(transmitter)
            dense[rows, transmitter] = vals
        return dense
