"""Streaming statistics used by the simulation harness.

Simulations run for many events; :class:`Welford` collects a mean,
variance and range in O(1) memory.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["Welford"]


class Welford:
    """Numerically stable streaming mean/variance (Welford's algorithm)."""

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def add(self, value: float) -> None:
        """Fold one observation into the accumulator."""
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)
        self._min = min(self._min, value)
        self._max = max(self._max, value)

    def extend(self, values: Sequence[float]) -> None:
        """Fold many observations into the accumulator."""
        for value in values:
            self.add(value)

    @property
    def count(self) -> int:
        """Number of observations."""
        return self._count

    @property
    def mean(self) -> float:
        """Sample mean; NaN when empty."""
        return self._mean if self._count else math.nan

    @property
    def variance(self) -> float:
        """Unbiased sample variance; NaN with fewer than two samples."""
        if self._count < 2:
            return math.nan
        return self._m2 / (self._count - 1)

    @property
    def stddev(self) -> float:
        """Unbiased sample standard deviation."""
        variance = self.variance
        return math.sqrt(variance) if not math.isnan(variance) else math.nan

    @property
    def minimum(self) -> float:
        """Smallest observation; NaN when empty."""
        return self._min if self._count else math.nan

    @property
    def maximum(self) -> float:
        """Largest observation; NaN when empty."""
        return self._max if self._count else math.nan
