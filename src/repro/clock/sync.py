"""Relating one station's clock to another's (Section 7).

"This ability can be accomplished if stations occasionally rendezvous
and exchange clock readings.  Differences between clocks and small
differences in clock rates can be mutually modeled, and the resulting
models ... can be used by neighbors to predict when a station will be
transmitting."

A :class:`NeighborClockModel` is an affine fit
``neighbor_reading ~= intercept + slope * own_reading`` built from
rendezvous samples, possibly noisy.  With two or more samples the slope
captures the relative rate; with one sample, or a fitted rate no
oscillator has, the model assumes equal rates (slope 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.clock.clock import Clock

__all__ = ["ClockSample", "NeighborClockModel", "exchange_readings", "exact_model"]

#: The widest ``|slope - 1|`` a least-squares fit may claim.  Oscillators
#: are good to ~1 ppm, and the worst fit in the quick suite (the
#: rendezvous-jitter ablation) is ~2e-3; a wider slope is refused in
#: favour of the latest sample's equal-rate offset.
_RATE_BAND = 1e-2


@dataclass(frozen=True)
class ClockSample:
    """One rendezvous observation: simultaneous readings of both clocks.

    Attributes:
        own_reading: the observer's clock at the exchange instant.
        neighbor_reading: the neighbour's clock at the same instant
            (possibly corrupted by measurement jitter).
    """

    own_reading: float
    neighbor_reading: float


class NeighborClockModel:
    """Affine model of a neighbour's clock in terms of one's own.

    The model refits lazily on each prediction after new samples; with
    many samples it performs a least-squares line fit, which averages
    out exchange jitter exactly as the paper's reference to oscillator
    modelling ([25]) envisions.
    """

    def __init__(self, max_samples: int = 64) -> None:
        if max_samples < 1:
            raise ValueError("must retain at least one sample")
        self._max_samples = max_samples
        self._samples: List[ClockSample] = []
        self._fit: Optional[Tuple[float, float]] = None  # (intercept, slope)

    @property
    def sample_count(self) -> int:
        """Number of retained rendezvous samples."""
        return len(self._samples)

    def add_sample(self, sample: ClockSample) -> None:
        """Fold in a rendezvous observation (oldest dropped when full)."""
        self._samples.append(sample)
        if len(self._samples) > self._max_samples:
            self._samples.pop(0)
        self._fit = None

    def reset(self) -> None:
        """Discard every sample and the fit.

        Used after a clock fault: samples taken of the pre-fault clock
        describe an affine relation that no longer holds, so the next
        rendezvous must start the fit from scratch rather than average
        stale history in.
        """
        self._samples.clear()
        self._fit = None

    def _fitted(self) -> Tuple[float, float]:
        if self._fit is None:
            self._fit = self._refit()
        return self._fit

    def _refit(self) -> Tuple[float, float]:
        """A fresh ``(intercept, slope)`` tuple: plans that map through
        the fit compare it by identity to see whether it changed."""
        if not self._samples:
            raise RuntimeError("no rendezvous samples yet")
        latest = self._samples[-1]
        equal_rates = (latest.neighbor_reading - latest.own_reading, 1.0)
        if len(self._samples) == 1:
            return equal_rates
        own = np.array([s.own_reading for s in self._samples])
        neighbor = np.array([s.neighbor_reading for s in self._samples])
        if np.ptp(own) == 0.0:
            # Degenerate: repeated exchanges at one instant.
            return (float(neighbor.mean() - own.mean()), 1.0)
        # Centre the data before fitting: own readings can be ~1e6
        # while the slope differs from 1 by ~1e-5, and an uncentred
        # normal-equation fit loses that signal to rounding.
        own_center = own.mean()
        neighbor_center = neighbor.mean()
        slope = float(
            np.dot(own - own_center, neighbor - neighbor_center)
            / np.dot(own - own_center, own - own_center)
        )
        if not abs(slope - 1.0) <= _RATE_BAND:
            # No oscillator drifts this far: the samples straddle a
            # clock step or carry gross jitter.  Mapping windows through
            # such a rate can stall a window search, so trust only the
            # latest sample's offset.
            return equal_rates
        return (float(neighbor_center - slope * own_center), slope)

    def predict_neighbor_reading(self, own_reading: float) -> float:
        """Predicted neighbour clock reading when ours shows ``own_reading``."""
        intercept, slope = self._fitted()
        return intercept + slope * own_reading

    def own_reading_for(self, neighbor_reading: float) -> float:
        """Our reading when the neighbour's clock shows ``neighbor_reading``."""
        intercept, slope = self._fitted()
        return (neighbor_reading - intercept) / slope

    @property
    def relative_rate(self) -> float:
        """Fitted neighbour-seconds per own-second."""
        return self._fitted()[1]

    @property
    def reading_offset(self) -> float:
        """Fitted intercept of the neighbour's clock."""
        return self._fitted()[0]


def exchange_readings(
    own: Clock,
    neighbor: Clock,
    true_time: float,
    jitter: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> ClockSample:
    """Simulate one rendezvous: both clocks read at the same instant.

    Args:
        own: the observer's clock.
        neighbor: the neighbour's clock.
        true_time: the instant of the exchange.
        jitter: standard deviation of Gaussian measurement error applied
            to the neighbour's reading (propagation delay, turnaround
            asymmetry).  Requires ``rng`` when nonzero.
    """
    neighbor_reading = neighbor.reading(true_time)
    if jitter > 0.0:
        if rng is None:
            raise ValueError("jitter requires an rng")
        neighbor_reading += float(rng.normal(0.0, jitter))
    elif jitter < 0.0:
        raise ValueError("jitter must be non-negative")
    return ClockSample(own.reading(true_time), neighbor_reading)


def exact_model(own: Clock, neighbor: Clock) -> NeighborClockModel:
    """The ideal model an omniscient observer would hold.

    Used by tests and by simulations that isolate scheduling behaviour
    from clock-model estimation error.
    """
    model = NeighborClockModel()
    # Two exact samples determine the affine relation completely.
    for true_time in (0.0, 1.0):
        model.add_sample(exchange_readings(own, neighbor, true_time))
    return model
