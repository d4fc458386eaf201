"""The Shannon-bound reception model (Section 3.4).

A packet from station k is successfully received at station i iff,
*for the whole duration of the reception*, the signal-to-noise ratio

    S / N  >=  beta * (2^(C/W) - 1)

holds, where ``S`` is the received power of the wanted signal,
``N`` the total power of interference plus thermal noise, ``C`` the
design data rate, ``W`` the spread bandwidth, and ``beta`` (~3, i.e.
~5 dB) the margin by which practical modems miss the Shannon bound.

The paper prints the threshold as ``beta * 2^(C/W)`` (its Eq. 4); the
exact Shannon inversion carries the ``-1``.  At the paper's design
point ``C/W`` is around 0.003-0.01, where ``2^(C/W) - 1 ~= ln 2 * C/W``,
and the ``-1`` form reproduces the paper's own numerical examples
(e.g. "C/W = 0.014 at S/N = 0.01"), so the exact form is the default;
``exact=False`` gives the literal printed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "required_sir",
    "sir",
    "shannon_capacity",
    "max_rate",
    "ReceptionTracker",
    "TrackerBatch",
    "TrackerRecord",
]


def required_sir(
    data_rate_bps: float,
    bandwidth_hz: float,
    beta: float = 3.0,
    exact: bool = True,
) -> float:
    """Minimum signal-to-noise ratio for reliable reception (Eq. 4).

    Args:
        data_rate_bps: the fixed design rate ``C``.
        bandwidth_hz: spread bandwidth ``W``.
        beta: detection margin above the Shannon bound (linear, >= 1).
        exact: use the exact Shannon inversion ``beta * (2^(C/W) - 1)``;
            ``False`` uses the paper's printed ``beta * 2^(C/W)``.
    """
    if data_rate_bps <= 0.0 or bandwidth_hz <= 0.0:
        raise ValueError("rate and bandwidth must be positive")
    if beta < 1.0:
        raise ValueError("beta is a margin and must be >= 1")
    spectral_efficiency = data_rate_bps / bandwidth_hz
    if exact:
        return beta * (2.0**spectral_efficiency - 1.0)
    return beta * 2.0**spectral_efficiency


def sir(
    signal_power_w: float,
    interference_power_w: float,
    noise_power_w: float = 0.0,
) -> float:
    """Signal-to-interference-plus-noise ratio (Eq. 6, power domain).

    Returns ``inf`` when there is neither interference nor noise.
    """
    if signal_power_w < 0.0:
        raise ValueError("signal power must be non-negative")
    if interference_power_w < 0.0 or noise_power_w < 0.0:
        raise ValueError("interference and noise powers must be non-negative")
    denominator = interference_power_w + noise_power_w
    if denominator == 0.0:
        return math.inf
    return signal_power_w / denominator


def shannon_capacity(bandwidth_hz: float, snr: float) -> float:
    """Shannon capacity ``C = W log2(1 + S/N)`` in bits per second (Eq. 3)."""
    if bandwidth_hz <= 0.0:
        raise ValueError("bandwidth must be positive")
    if snr < 0.0:
        raise ValueError("SNR must be non-negative")
    return bandwidth_hz * math.log2(1.0 + snr)


def max_rate(bandwidth_hz: float, snr: float, beta: float = 3.0) -> float:
    """Highest design rate supportable at a given SNR with margin beta.

    Inverts :func:`required_sir` (exact form): the rate ``C`` such that
    ``snr == beta * (2^(C/W) - 1)``.
    """
    if beta < 1.0:
        raise ValueError("beta is a margin and must be >= 1")
    if snr < 0.0:
        raise ValueError("SNR must be non-negative")
    return shannon_capacity(bandwidth_hz, snr / beta)


@dataclass
class ReceptionTracker:
    """Tracks one in-progress reception against the continuous criterion.

    "The criterion for successful reception of a packet is then that the
    signal-to-noise ratio be greater than the required minimum for the
    duration of its reception."  The simulator calls :meth:`update`
    whenever the interference environment changes (a transmission starts
    or ends); the tracker records the worst SIR seen.

    Attributes:
        threshold: required SIR for this reception.
        signal_power_w: received power of the wanted signal (constant
            over the reception; the sender holds its power).
        noise_power_w: thermal noise at the receiver.
    """

    threshold: float
    signal_power_w: float
    noise_power_w: float = 0.0
    _min_sir: float = field(default=math.inf, repr=False)
    _failed_at: Optional[float] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.threshold <= 0.0:
            raise ValueError("threshold must be positive")
        if self.signal_power_w < 0.0:
            raise ValueError("signal power must be non-negative")
        if self.noise_power_w < 0.0:
            raise ValueError("noise power must be non-negative")

    @property
    def min_sir(self) -> float:
        """Worst SIR observed so far."""
        return self._min_sir

    @property
    def ok(self) -> bool:
        """Whether the criterion has held at every update so far."""
        return self._failed_at is None

    @property
    def failed_at(self) -> Optional[float]:
        """Time of the first threshold violation, if any."""
        return self._failed_at

    def update(self, now: float, interference_power_w: float) -> bool:
        """Fold in the current interference level; returns current ok-ness."""
        current = sir(self.signal_power_w, interference_power_w, self.noise_power_w)
        if current < self._min_sir:
            self._min_sir = current
        if current < self.threshold and self._failed_at is None:
            self._failed_at = now
        return self.ok


@dataclass(frozen=True)
class TrackerRecord:
    """Final state of one tracked reception, returned on removal from a
    :class:`TrackerBatch`.

    Attributes:
        min_sir: worst SIR observed over the reception.
        failed_at: time of the first threshold violation, or ``None``.
    """

    min_sir: float
    failed_at: Optional[float]

    @property
    def ok(self) -> bool:
        """Whether the criterion held at every update."""
        return self.failed_at is None


class TrackerBatch:
    """A vectorised bank of in-progress receptions (batch form of
    :class:`ReceptionTracker`).

    The medium updates *every* in-progress reception whenever the
    interference environment changes, which makes the per-reception
    tracker update the simulator's hot path.  This class keeps the
    tracker state (threshold, wanted-signal power, noise, worst SIR,
    failure time) in dense parallel arrays so one :meth:`update` call
    folds the new interference level into all receptions with a handful
    of numpy operations instead of a Python loop.

    Entries are keyed by an opaque integer ``tag`` (the medium uses the
    transmission sequence number) and stored densely: removal swaps the
    last entry into the vacated slot, so arrays never fragment.  Dense
    order therefore changes on removal; callers must index through
    :attr:`tags` / the accessors rather than assume insertion order.

    The arithmetic per entry is identical to the scalar tracker's
    (same Eq. 6 division, same ``inf`` convention for a zero
    denominator), so a batch and a set of scalar trackers fed the same
    interference history report identical ``min_sir``/``failed_at``.
    """

    def __init__(self, capacity: int = 16) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self._count = 0
        self._tags: List[int] = []
        self._position: Dict[int, int] = {}
        self._receiver = np.zeros(capacity, dtype=np.intp)
        self._threshold = np.zeros(capacity)
        self._signal = np.zeros(capacity)
        self._noise = np.zeros(capacity)
        self._min_sir = np.zeros(capacity)
        self._failed_at = np.zeros(capacity)
        # Scratch buffers reused by :meth:`update` and
        # :meth:`update_where` (contents meaningless between calls) so
        # neither hot-path update allocates its working arrays.
        self._scratch_sir = np.zeros(capacity)
        self._scratch_denominator = np.zeros(capacity)
        self._scratch_mask = np.zeros(capacity, dtype=bool)
        self._scratch_newly = np.zeros(capacity, dtype=bool)

    def __len__(self) -> int:
        return self._count

    @property
    def count(self) -> int:
        """Number of receptions currently tracked."""
        return self._count

    @property
    def tags(self) -> Tuple[int, ...]:
        """Tags of the tracked receptions, in dense storage order."""
        return tuple(self._tags)

    @property
    def receivers(self) -> np.ndarray:
        """Receiver indices in dense order (read-only view)."""
        return self._receiver[: self._count]

    @property
    def signals(self) -> np.ndarray:
        """Wanted-signal powers in dense order (read-only view)."""
        return self._signal[: self._count]

    def __contains__(self, tag: int) -> bool:
        return tag in self._position

    def _grow(self) -> None:
        capacity = max(2 * len(self._receiver), 1)
        for name in (
            "_receiver",
            "_threshold",
            "_signal",
            "_noise",
            "_min_sir",
            "_failed_at",
            "_scratch_sir",
            "_scratch_denominator",
            "_scratch_mask",
            "_scratch_newly",
        ):
            old = getattr(self, name)
            new = np.zeros(capacity, dtype=old.dtype)
            new[: self._count] = old[: self._count]
            setattr(self, name, new)

    def add(
        self,
        tag: int,
        receiver: int,
        threshold: float,
        signal_power_w: float,
        noise_power_w: float = 0.0,
    ) -> None:
        """Start tracking a reception (same validation as the scalar
        tracker; ``min_sir`` starts at ``inf`` and nothing has failed)."""
        if tag in self._position:
            raise ValueError(f"tag {tag} is already tracked")
        if threshold <= 0.0:
            raise ValueError("threshold must be positive")
        if signal_power_w < 0.0:
            raise ValueError("signal power must be non-negative")
        if noise_power_w < 0.0:
            raise ValueError("noise power must be non-negative")
        if self._count == len(self._receiver):
            self._grow()
        position = self._count
        self._receiver[position] = receiver
        self._threshold[position] = threshold
        self._signal[position] = signal_power_w
        self._noise[position] = noise_power_w
        self._min_sir[position] = math.inf
        self._failed_at[position] = math.nan
        self._tags.append(tag)
        self._position[tag] = position
        self._count += 1

    def update(self, now: float, interference_power_w: np.ndarray) -> Tuple[int, ...]:
        """Fold one interference level per reception (dense order) into
        every tracker; returns the tags that failed *at this update*."""
        count = self._count
        if count == 0:
            return ()
        if interference_power_w.shape != (count,):
            raise ValueError(f"expected {count} interference powers")
        signal = self._signal[:count]
        denominator = self._scratch_denominator[:count]
        np.add(interference_power_w, self._noise[:count], out=denominator)
        mask = self._scratch_mask[:count]
        np.greater(denominator, 0.0, out=mask)
        current = self._scratch_sir[:count]
        current.fill(math.inf)
        np.divide(signal, denominator, out=current, where=mask)
        np.minimum(self._min_sir[:count], current, out=self._min_sir[:count])
        newly = self._scratch_newly[:count]
        np.less(current, self._threshold[:count], out=newly)
        np.isnan(self._failed_at[:count], out=mask)
        newly &= mask
        if not newly.any():
            return ()
        self._failed_at[:count][newly] = now
        return tuple(self._tags[int(i)] for i in np.nonzero(newly)[0])

    def update_where(
        self,
        now: float,
        interference_power_w: np.ndarray,
        positions: np.ndarray,
    ) -> Tuple[int, ...]:
        """Fold new interference levels into a *subset* of trackers.

        The sparse medium knows exactly which receivers a field change
        touched (the transmitter's CSR column), so it updates only the
        receptions at those receivers; untouched trackers saw no field
        change and their SIR is unchanged by construction.  Per-entry
        arithmetic is identical to :meth:`update` — a touched tracker
        ends up in the same state either way.

        Args:
            now: current simulation time.
            interference_power_w: one interference level per touched
                tracker, parallel to ``positions``.
            positions: dense storage positions of the touched trackers
                (from masking :attr:`receivers`).

        Returns:
            Tags that failed at this update.
        """
        touched = positions.size
        if touched == 0:
            return ()
        if interference_power_w.shape != (touched,):
            raise ValueError(f"expected {touched} interference powers")
        # positions are distinct dense slots, so touched <= count and
        # the scratch buffers are long enough.
        denominator = self._scratch_denominator[:touched]
        np.add(interference_power_w, self._noise[positions], out=denominator)
        mask = self._scratch_mask[:touched]
        np.greater(denominator, 0.0, out=mask)
        current = self._scratch_sir[:touched]
        current.fill(math.inf)
        np.divide(
            self._signal[positions], denominator, out=current, where=mask
        )
        np.minimum(self._min_sir[positions], current, out=current)
        self._min_sir[positions] = current
        newly = self._scratch_newly[:touched]
        np.less(current, self._threshold[positions], out=newly)
        np.isnan(self._failed_at[positions], out=mask)
        newly &= mask
        failed_positions = positions[newly]
        if failed_positions.size == 0:
            return ()
        self._failed_at[failed_positions] = now
        return tuple(self._tags[int(i)] for i in failed_positions)

    def position(self, tag: int) -> int:
        """Current dense storage position of ``tag``.

        Valid only until the next :meth:`remove` (removal swaps the last
        entry into the vacated slot).  The medium's receiver-model hook
        uses this to adjust the interference entry of specific
        receptions before an :meth:`update` call.
        """
        return self._position[tag]

    def ok(self, tag: int) -> bool:
        """Whether the criterion has held so far for ``tag``."""
        return bool(np.isnan(self._failed_at[self._position[tag]]))

    def min_sir(self, tag: int) -> float:
        """Worst SIR observed so far for ``tag``."""
        return float(self._min_sir[self._position[tag]])

    def remove(self, tag: int) -> TrackerRecord:
        """Stop tracking ``tag`` and return its final state."""
        position = self._position.pop(tag)
        failed = float(self._failed_at[position])
        record = TrackerRecord(
            min_sir=float(self._min_sir[position]),
            failed_at=None if math.isnan(failed) else failed,
        )
        last = self._count - 1
        if position != last:
            for array in (
                self._receiver,
                self._threshold,
                self._signal,
                self._noise,
                self._min_sir,
                self._failed_at,
            ):
                array[position] = array[last]
            moved = self._tags[last]
            self._tags[position] = moved
            self._position[moved] = position
        self._tags.pop()
        self._count -= 1
        return record
