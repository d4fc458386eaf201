"""The design strategy calculations (Section 6).

Section 6 assembles the link budget that fixes the system's processing
gain: starting from the Section 4 noise floor at the characteristic
hop distance, add the detection margin ("around 5 dB"), add the reach
margin for neighbours out to twice the characteristic distance
("another 6 dB"), and conclude that "the proper amount of processing
gain is determined to lie in the range of 20 to 25 dB".

:class:`DesignPoint` reproduces that budget for any scale, and the
connectivity helpers reproduce the expected-neighbour-count reasoning
(pi expected stations within ``1/sqrt(rho)``, ``4 pi`` within twice
that).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.noise import snr_nearest_neighbor
from repro.radio.signal import linear_to_db

__all__ = [
    "expected_neighbors",
    "RANGE_DOUBLING_LOSS_DB",
    "reach_for_expected_neighbors",
    "range_doubling_cost_db",
    "DesignPoint",
]

#: Free-space loss increase for each doubling of distance: a factor of
#: four in power, "6 db" in the paper's words.
RANGE_DOUBLING_LOSS_DB = 20.0 * math.log10(2.0)


def expected_neighbors(reach_factor: float) -> float:
    """Expected stations within ``reach_factor / sqrt(rho)`` of a station.

    Uniform density makes this ``rho * pi * (reach_factor/sqrt(rho))^2 =
    pi * reach_factor^2`` — the paper's "expected number is only [pi]"
    at reach factor 1, and ``4 pi`` after doubling (Section 6).
    """
    if reach_factor <= 0.0:
        raise ValueError("reach factor must be positive")
    return math.pi * reach_factor**2


def reach_for_expected_neighbors(neighbor_count: float) -> float:
    """Reach factor (in units of ``1/sqrt(rho)``) for an expected count."""
    if neighbor_count <= 0.0:
        raise ValueError("neighbour count must be positive")
    return math.sqrt(neighbor_count / math.pi)


def range_doubling_cost_db(doublings: float) -> float:
    """SNR cost of extending reach by a number of distance doublings.

    "Free-space radio propagation falls off by a factor of four, or
    6 db, for each doubling in distance" (Section 4); the same factor
    reappears as throughput cost, since "achievable throughput depends
    linearly on signal-to-noise ratio in a noisy system".
    """
    if doublings < 0.0:
        raise ValueError("doublings must be non-negative")
    return RANGE_DOUBLING_LOSS_DB * doublings


@dataclass(frozen=True)
class DesignPoint:
    """A complete Section 6 link budget.

    Attributes:
        station_count: system scale M.
        duty_cycle: average transmit duty cycle eta.
        detection_margin_db: headroom for practical detection above the
            Shannon bound (the paper budgets "around 5 db").
        reach_doublings: how many distance doublings beyond the
            characteristic length the design must serve (the paper
            takes 1: neighbours out to ``2/sqrt(rho)``).
    """

    station_count: float
    duty_cycle: float
    detection_margin_db: float = 5.0
    reach_doublings: float = 1.0

    def __post_init__(self) -> None:
        # Each check is written so that NaN fails it.
        if not math.e < self.station_count < math.inf:
            raise ValueError("the design analysis needs a finite M > e")
        if not 0.0 < self.duty_cycle <= 1.0:
            raise ValueError("duty cycle must be in (0, 1]")
        if not 0.0 <= self.detection_margin_db < math.inf:
            raise ValueError("detection margin must be non-negative and finite")
        if not 0.0 <= self.reach_doublings < math.inf:
            raise ValueError("reach doublings must be non-negative and finite")

    @property
    def characteristic_snr_db(self) -> float:
        """Section 4 SNR at the characteristic distance, in dB."""
        return linear_to_db(
            snr_nearest_neighbor(self.station_count, self.duty_cycle)
        )

    @property
    def reach_margin_db(self) -> float:
        """Extra SNR consumed by serving the farthest design neighbour."""
        return range_doubling_cost_db(self.reach_doublings)

    @property
    def processing_gain_db(self) -> float:
        """Required processing gain: the inverse of the worst-case SNR
        budget, i.e. how far below the noise the receiver must detect.

        ``PG = -SNR(characteristic) + detection margin + reach margin``.
        At metro scale (M = 10^6..10^9, eta = 0.25..1) this lands in the
        paper's 20-25 dB range.
        """
        return (
            -self.characteristic_snr_db
            + self.detection_margin_db
            + self.reach_margin_db
        )

    @property
    def expected_neighbors_at_reach(self) -> float:
        """Expected direct neighbours within the design reach."""
        return expected_neighbors(2.0**self.reach_doublings)

    def summary(self) -> dict:
        """All budget lines as a dict (for the benches and examples)."""
        return {
            "station_count": self.station_count,
            "duty_cycle": self.duty_cycle,
            "characteristic_snr_db": self.characteristic_snr_db,
            "detection_margin_db": self.detection_margin_db,
            "reach_margin_db": self.reach_margin_db,
            "processing_gain_db": self.processing_gain_db,
            "expected_neighbors": self.expected_neighbors_at_reach,
        }
