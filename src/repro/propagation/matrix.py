"""The propagation matrix H (power-gain form) and its estimation.

Section 3.2 collects all pairwise propagation into the matrix ``H`` of
amplitude gains ``h_ij``; after the Section 3.3 simplification these are
scalars and the power-domain quantity ``g_ij = h_ij^2`` is what both the
reception criterion (Eq. 6) and minimum-energy routing (Section 6.2)
consume.  This module builds the power-gain matrix from a placement and
a propagation model, and models the paper's observation that "stations
may observe the actual propagation between stations that are capable of
direct communication": :meth:`PropagationMatrix.observed` returns a
noisy, threshold-censored estimate such as real stations would have.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.propagation.geometry import Placement
from repro.propagation.models import PropagationModel

__all__ = ["PropagationMatrix"]


@dataclass(frozen=True)
class PropagationMatrix:
    """Symmetric matrix of pairwise power gains, zero diagonal.

    Attributes:
        gains: ``(M, M)`` array, ``gains[i, j]`` = power gain from
            station j's transmitter to station i's receiver.
    """

    gains: np.ndarray
    #: Lazily built transposed contiguous copy backing :meth:`column`;
    #: pure cache, excluded from equality.
    _columns: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Per-threshold cache of per-station neighbor arrays backing
    #: :meth:`neighbors`/:meth:`neighbor_lists`; pure cache, excluded
    #: from equality.
    _neighbor_cache: Dict[float, List[np.ndarray]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        gains = np.asarray(self.gains, dtype=float)
        if gains.ndim != 2 or gains.shape[0] != gains.shape[1]:
            raise ValueError("gain matrix must be square")
        if np.any(gains < 0.0):
            raise ValueError("power gains must be non-negative")
        if np.any(np.diagonal(gains) != 0.0):
            raise ValueError("diagonal (self-gain) must be zero")
        object.__setattr__(self, "gains", gains)

    @classmethod
    def from_placement(
        cls, placement: Placement, model: PropagationModel
    ) -> "PropagationMatrix":
        """Build the matrix for a placement under a propagation model."""
        return cls(model.gain_matrix(placement.distances()))

    @property
    def count(self) -> int:
        """Number of stations M."""
        return int(self.gains.shape[0])

    def gain(self, receiver: int, transmitter: int) -> float:
        """Power gain from ``transmitter`` to ``receiver``."""
        if receiver == transmitter:
            raise ValueError("self-gain is undefined; Type 3 is handled locally")
        return float(self.gains[receiver, transmitter])

    def amplitude(self, receiver: int, transmitter: int) -> float:
        """The paper's ``h_ij`` (amplitude gain)."""
        return float(np.sqrt(self.gain(receiver, transmitter)))

    def received_powers(self, transmit_powers: np.ndarray) -> np.ndarray:
        """Received power at every station given all transmit powers.

        Implements Eq. 2 in the power domain: station i receives
        ``sum_j g_ij P_j`` (self term excluded by the zero diagonal).
        """
        powers = np.asarray(transmit_powers, dtype=float)
        if powers.shape != (self.count,):
            raise ValueError(f"expected {self.count} transmit powers")
        if np.any(powers < 0.0):
            raise ValueError("transmit powers must be non-negative")
        return self.gains @ powers

    def column(self, transmitter: int) -> np.ndarray:
        """Gain from ``transmitter`` into every receiver: ``gains[:, j]``.

        This is the axpy vector of the incremental interference field
        (one transmission's contribution to every receiver).  Columns
        of a C-contiguous matrix stride across rows, so the first call
        caches a transposed contiguous copy and returns its rows —
        contiguous views, no per-call allocation.
        """
        if not 0 <= transmitter < self.count:
            raise ValueError("transmitter index out of range")
        if self._columns is None:
            object.__setattr__(
                self, "_columns", np.ascontiguousarray(self.gains.T)
            )
        assert self._columns is not None
        return self._columns[transmitter]

    def usable_links(self, min_gain: float) -> np.ndarray:
        """Boolean adjacency of links with gain at least ``min_gain``.

        "Stations may observe the actual propagation between stations
        that are capable of direct communication" — links below the
        usability threshold are simply not part of a station's world.
        """
        if min_gain <= 0.0:
            raise ValueError("minimum gain must be positive")
        usable = self.gains >= min_gain
        np.fill_diagonal(usable, False)
        return usable

    def neighbors(self, station: int, min_gain: float) -> np.ndarray:
        """Stations with a usable link to ``station``.

        Reads one cached per-station array (built lazily per threshold
        by :meth:`neighbor_lists`) instead of re-deriving the full
        M x M adjacency on every call, which routing's repeated
        column slicing used to pay for.
        """
        if not 0 <= station < self.count:
            raise ValueError("station index out of range")
        return self.neighbor_lists(min_gain)[station]

    def neighbor_lists(self, min_gain: float) -> List[np.ndarray]:
        """Per-station neighbor arrays at a usability threshold, cached.

        One O(M^2) pass builds every station's sorted neighbor array;
        subsequent queries at the same threshold are O(1) lookups.  The
        returned arrays are shared cache state — treat them as
        read-only.
        """
        if min_gain <= 0.0:
            raise ValueError("minimum gain must be positive")
        key = float(min_gain)
        cached = self._neighbor_cache.get(key)
        if cached is None:
            cached = []
            for station in range(self.count):
                row = self.gains[station] >= key
                row[station] = False
                cached.append(np.nonzero(row)[0])
            self._neighbor_cache[key] = cached
        return cached

    def observed(
        self,
        measurement_sigma_db: float = 0.0,
        min_gain: float = 0.0,
        seed: Optional[int] = None,
    ) -> "PropagationMatrix":
        """A station's-eye view of the matrix: noisy and censored.

        Args:
            measurement_sigma_db: log-normal measurement error applied
                symmetrically (a link is measured once, both ends agree).
            min_gain: gains below this are unobservable and reported as
                zero (the stations cannot hear each other to measure).
            seed: RNG seed for reproducible noise.
        """
        if measurement_sigma_db < 0.0:
            raise ValueError("measurement spread must be non-negative")
        if min_gain < 0.0:
            raise ValueError("minimum gain must be non-negative")
        gains = self.gains.copy()
        if measurement_sigma_db > 0.0:
            rng = np.random.default_rng(seed)
            error_db = rng.normal(0.0, measurement_sigma_db, gains.shape)
            error_db = np.triu(error_db, k=1)
            error_db = error_db + error_db.T
            gains = gains * 10.0 ** (error_db / 10.0)
        if min_gain > 0.0:
            gains[gains < min_gain] = 0.0
        np.fill_diagonal(gains, 0.0)
        return PropagationMatrix(gains)
