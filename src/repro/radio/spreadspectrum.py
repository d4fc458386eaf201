"""Spread-spectrum abstractions: processing gain and despreader banks.

The paper leans on two properties of direct-sequence spread spectrum:

* interference can be treated as thermal-like noise, with the ratio of
  spread bandwidth to data rate (the *processing gain*) setting how much
  interference a link tolerates (Sections 2, 3.4, 6); and
* a receiver with multiple despreading channels can track several
  incoming transmissions at once, eliminating Type 2 collisions
  (Section 5) — "GPS receivers often have six or twelve despreading
  channels".

We do not simulate chips.  The :class:`ProcessingGain` value object
carries the bandwidth/rate ratio into the reception criterion, and the
:class:`DespreaderBank` manages the finite set of simultaneous-tracking
channels at a receiver; a bank may carry a
:class:`~repro.radio.receiver_model.SicReceiver` that cancels
interference while it tracks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Optional

from repro.radio.receiver_model import SicReceiver
from repro.radio.signal import db_to_linear, linear_to_db

__all__ = ["ProcessingGain", "DespreaderBank", "DespreaderBusyError"]


@dataclass(frozen=True)
class ProcessingGain:
    """Ratio of spread bandwidth ``W`` to data rate ``C``.

    Section 6 concludes that "the proper amount of processing gain is
    determined to lie in the range of 20 to 25 dB".

    Attributes:
        linear: W / C as a linear ratio (dimensionless, >= 1).
    """

    linear: float

    def __post_init__(self) -> None:
        if self.linear < 1.0:
            raise ValueError("processing gain must be at least 1 (0 dB)")

    @classmethod
    def from_db(cls, gain_db: float) -> "ProcessingGain":
        """Build from a decibel value (e.g. 23 for the paper's midpoint)."""
        return cls(db_to_linear(gain_db))

    @classmethod
    def from_rates(cls, bandwidth_hz: float, data_rate_bps: float) -> "ProcessingGain":
        """Build from the spread bandwidth and the attempted data rate."""
        if bandwidth_hz <= 0.0 or data_rate_bps <= 0.0:
            raise ValueError("bandwidth and data rate must be positive")
        return cls(bandwidth_hz / data_rate_bps)

    @property
    def db(self) -> float:
        """Processing gain in dB."""
        return linear_to_db(self.linear)

    def data_rate(self, bandwidth_hz: float) -> float:
        """The data rate that this gain implies for a given bandwidth."""
        if bandwidth_hz <= 0.0:
            raise ValueError("bandwidth must be positive")
        return bandwidth_hz / self.linear

    def bandwidth(self, data_rate_bps: float) -> float:
        """The spread bandwidth that this gain implies for a given rate."""
        if data_rate_bps <= 0.0:
            raise ValueError("data rate must be positive")
        return data_rate_bps * self.linear


class DespreaderBusyError(RuntimeError):
    """Raised when acquiring a channel on a fully busy despreader bank."""


@dataclass
class DespreaderBank:
    """A finite pool of despreading (tracking) channels at one receiver.

    Each concurrently tracked transmission occupies one channel for its
    duration.  When all channels are busy, an additional simultaneous
    arrival cannot be tracked — in the simulator this surfaces as a
    Type 2 collision, which the paper's design avoids by provisioning at
    least as many channels as routing neighbours (never more than eight
    in the paper's simulations).

    Attributes:
        capacity: number of despreading channels.
        model: the :class:`~repro.radio.receiver_model.SicReceiver`
            that cancels interference while tracking, or ``None`` for
            the plain receiver (the medium then skips its cancellation
            hook entirely).
    """

    capacity: int = 8
    model: Optional[SicReceiver] = None
    _busy: Dict[Hashable, int] = field(default_factory=dict, repr=False)
    _peak_busy: int = field(default=0, repr=False)
    _rejections: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("a receiver needs at least one despreading channel")

    @property
    def busy_count(self) -> int:
        """Number of channels currently tracking a transmission."""
        return len(self._busy)

    @property
    def free_count(self) -> int:
        """Number of idle channels."""
        return self.capacity - len(self._busy)

    @property
    def peak_busy(self) -> int:
        """Maximum number of simultaneously busy channels observed."""
        return self._peak_busy

    @property
    def rejections(self) -> int:
        """Number of acquisition attempts refused because the bank was full."""
        return self._rejections

    def try_acquire(self, token: Hashable) -> Optional[int]:
        """Acquire a free channel for ``token``; return its index or None.

        ``token`` identifies the tracked transmission and must be unique
        among concurrently tracked transmissions.
        """
        if token in self._busy:
            raise ValueError(f"token {token!r} already holds a channel")
        if len(self._busy) >= self.capacity:
            self._rejections += 1
            return None
        in_use = set(self._busy.values())
        channel = next(i for i in range(self.capacity) if i not in in_use)
        self._busy[token] = channel
        self._peak_busy = max(self._peak_busy, len(self._busy))
        return channel

    def acquire(self, token: Hashable) -> int:
        """Acquire a free channel for ``token`` or raise DespreaderBusyError."""
        channel = self.try_acquire(token)
        if channel is None:
            raise DespreaderBusyError(
                f"all {self.capacity} despreading channels are busy"
            )
        return channel

    def release(self, token: Hashable) -> None:
        """Release the channel held by ``token``."""
        try:
            del self._busy[token]
        except KeyError:
            raise KeyError(f"token {token!r} holds no channel") from None

    def holds(self, token: Hashable) -> bool:
        """Whether ``token`` currently holds a channel."""
        return token in self._busy

    def reset_stats(self) -> None:
        """Clear the peak-usage and rejection counters."""
        self._peak_busy = len(self._busy)
        self._rejections = 0
