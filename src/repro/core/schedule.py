"""Pseudo-random transmit/receive schedules with unaligned slots (§7.1).

Each station divides time — *reckoned by its own clock* — into equal
slots and designates each slot for transmitting or receiving by hashing
the slot index: "Whether a particular slot is for transmitting or
receiving can be determined by using a hash function to hash the value
of time at the beginning of the slot.  If the hash value is less than a
threshold, then the slot is a receive slot."

All stations share one schedule function (one hash key); they differ
only in their clock settings, so any two stations' slot boundaries are
unaligned by a random phase and their schedules are statistically
independent once the clocks differ by at least one slot.

The published schedule is a *commitment to listen* during receive
slots; a station may transmit (or stay idle) during transmit slots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Tuple

import numpy as np

from repro.core.intervals import Interval

__all__ = ["Schedule", "hash_slot", "DEFAULT_RECEIVE_FRACTION"]

DEFAULT_RECEIVE_FRACTION = 0.3
"""The near-optimal receive duty cycle found in the thesis (§7.2)."""

_MASK64 = (1 << 64) - 1

#: Designations are hashed in vectorised blocks of this many slots and
#: memoised per Schedule instance; all stations in a network share one
#: Schedule object, so the cache is shared network-wide.
_BLOCK_SHIFT = 8
_BLOCK_SLOTS = 1 << _BLOCK_SHIFT
_BLOCK_MASK = _BLOCK_SLOTS - 1

#: Beyond this magnitude a block's slot indices no longer fit an int64
#: ``np.arange``; such indices fall back to the scalar hash (uncached).
_BLOCK_LIMIT = 1 << 62


def _splitmix64(value: int) -> int:
    """SplitMix64 finaliser: a fast, well-mixed 64-bit hash."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (value ^ (value >> 31)) & _MASK64


def _splitmix64_array(values: np.ndarray) -> np.ndarray:
    """Vectorised :func:`_splitmix64` over a uint64 array (wraps mod 2^64)."""
    with np.errstate(over="ignore"):
        values = values + np.uint64(0x9E3779B97F4A7C15)
        values = (values ^ (values >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        values = (values ^ (values >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return values ^ (values >> np.uint64(31))


def hash_slot(slot_index: int, key: int = 0) -> float:
    """Uniform value in [0, 1) for a slot index under a hash key.

    Deterministic, stateless, and defined for negative indices, so any
    station can evaluate any other station's schedule from its published
    clock alone.
    """
    mixed = _splitmix64((slot_index & _MASK64) ^ (key & _MASK64))
    return mixed / float(1 << 64)


@dataclass(frozen=True)
class Schedule:
    """The shared schedule function, evaluated against local clock time.

    Attributes:
        slot_time: slot length ``T_slot`` in local clock units.
        receive_fraction: probability ``p`` that a slot is a receive
            slot (the receive duty cycle).
        key: hash key; all stations in one network share it (the paper
            uses a single system-wide schedule), but experiments may
            vary it to compare schedule draws.
    """

    slot_time: float = 1.0
    receive_fraction: float = DEFAULT_RECEIVE_FRACTION
    key: int = 0
    #: Memoised per-block slot designations (``bytes`` of 0/1), keyed by
    #: ``slot_index >> _BLOCK_SHIFT``.  Pure cache: excluded from
    #: equality and never observable through the public API.
    _designation_blocks: Dict[int, bytes] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.slot_time <= 0.0:
            raise ValueError("slot time must be positive")
        if not 0.0 < self.receive_fraction < 1.0:
            raise ValueError(
                "receive fraction must be strictly between 0 and 1; the paper "
                "needs both transmit and receive windows to exist"
            )

    # -- slot geometry (local clock domain) --------------------------

    def slot_index(self, local_time: float) -> int:
        """Index of the slot containing ``local_time``."""
        return int(local_time // self.slot_time)

    def slot_start(self, index: int) -> float:
        """Local time at which slot ``index`` begins."""
        return index * self.slot_time

    def slot_bounds(self, index: int) -> Interval:
        """Half-open local-time interval of slot ``index``."""
        start = self.slot_start(index)
        return (start, start + self.slot_time)

    # -- slot designation ---------------------------------------------

    def _designation_block(self, block_index: int) -> bytes:
        """Designations (1 = receive) for one block of consecutive slots.

        Computed vectorised with the exact arithmetic of
        :func:`hash_slot` — uint64-to-float64 conversion followed by an
        exact power-of-two scaling rounds identically in numpy and pure
        Python, so the cached designations are bit-identical to the
        scalar path.
        """
        block = self._designation_blocks.get(block_index)
        if block is None:
            base = block_index << _BLOCK_SHIFT
            indices = np.arange(base, base + _BLOCK_SLOTS, dtype=np.int64)
            mixed = _splitmix64_array(
                indices.view(np.uint64) ^ np.uint64(self.key & _MASK64)
            )
            values = mixed.astype(np.float64) / float(1 << 64)
            block = (values < self.receive_fraction).tobytes()
            self._designation_blocks[block_index] = block
        return block

    def _designation(self, index: int) -> int:
        """0/1 designation of one slot (1 = receive), via the block cache."""
        block_index = index >> _BLOCK_SHIFT
        if not -_BLOCK_LIMIT <= index <= _BLOCK_LIMIT:
            return 1 if hash_slot(index, self.key) < self.receive_fraction else 0
        return self._designation_block(block_index)[index & _BLOCK_MASK]

    def is_receive_slot(self, index: int) -> bool:
        """Whether slot ``index`` is designated for receiving."""
        return self._designation(index) != 0

    def designations(self, first_slot: int, slot_count: int) -> np.ndarray:
        """Boolean receive-designations for a contiguous slot range.

        The vectorised bulk form of :meth:`is_receive_slot` (True =
        receive slot); :meth:`raster` and
        :meth:`empirical_receive_fraction` build on it.
        """
        if slot_count < 1:
            raise ValueError("need at least one slot")
        last_slot = first_slot + slot_count - 1
        if not (-_BLOCK_LIMIT <= first_slot and last_slot <= _BLOCK_LIMIT):
            return np.array(
                [
                    hash_slot(i, self.key) < self.receive_fraction
                    for i in range(first_slot, first_slot + slot_count)
                ],
                dtype=bool,
            )
        pieces = []
        index = first_slot
        remaining = slot_count
        while remaining > 0:
            block = self._designation_block(index >> _BLOCK_SHIFT)
            offset = index & _BLOCK_MASK
            take = min(remaining, _BLOCK_SLOTS - offset)
            pieces.append(block[offset : offset + take])
            index += take
            remaining -= take
        return np.frombuffer(b"".join(pieces), dtype=np.uint8).astype(bool)

    def _find_designation(self, index: int, want: int) -> int:
        """First slot at or after ``index`` whose designation is ``want``.

        Scans the cached designation blocks with ``bytes.find`` (memchr
        under the hood), so run boundaries are located at C speed
        instead of one Python hash per slot.  Falls back to the scalar
        walk outside the block-cache range.
        """
        needle = b"\x01" if want else b"\x00"
        blocks = self._designation_blocks
        while -_BLOCK_LIMIT <= index <= _BLOCK_LIMIT:
            block_index = index >> _BLOCK_SHIFT
            block = blocks.get(block_index) or self._designation_block(block_index)
            position = block.find(needle, index & _BLOCK_MASK)
            if position >= 0:
                return (block_index << _BLOCK_SHIFT) + position
            index = (block_index + 1) << _BLOCK_SHIFT
        while self._designation(index) != want:
            index += 1
        return index

    def is_transmit_slot(self, index: int) -> bool:
        """Whether slot ``index`` is designated for transmitting."""
        return not self.is_receive_slot(index)

    def is_receiving_at(self, local_time: float) -> bool:
        """Whether the station is committed to listen at ``local_time``."""
        return self.is_receive_slot(self.slot_index(local_time))

    # -- window iteration ----------------------------------------------

    def windows(
        self, start_local: float, receive: bool
    ) -> Iterator[Interval]:
        """Merged maximal runs of same-designation slots, in local time.

        Yields half-open intervals from the first window containing or
        following ``start_local``, unboundedly (the caller clips).
        Consecutive same-type slots merge into one window, which is what
        lets packets span slot boundaries when luck allows.
        """
        index = self.slot_index(start_local)
        find = self._find_designation
        slot_time = self.slot_time
        want = 1 if receive else 0
        other = 1 - want
        while True:
            # Find the next run of the wanted designation: its first
            # slot, then the first slot of the other kind after it.
            run_start = find(index, want)
            run_end = find(run_start + 1, other)
            window_end = run_end * slot_time
            if window_end > start_local:
                yield (max(run_start * slot_time, start_local), window_end)
            index = run_end + 1

    def receive_windows(self, start_local: float) -> Iterator[Interval]:
        """Merged receive windows from ``start_local`` onward (unbounded)."""
        return self.windows(start_local, receive=True)

    def transmit_windows(self, start_local: float) -> Iterator[Interval]:
        """Merged transmit windows from ``start_local`` onward (unbounded)."""
        return self.windows(start_local, receive=False)

    # -- statistics ------------------------------------------------------

    def empirical_receive_fraction(self, first_slot: int, slot_count: int) -> float:
        """Fraction of receive slots over a slot range (law-of-large-numbers
        check that the hash achieves the designed duty cycle)."""
        if slot_count < 1:
            raise ValueError("need at least one slot")
        receive = int(self.designations(first_slot, slot_count).sum())
        return receive / slot_count

    def raster(self, first_slot: int, slot_count: int) -> Tuple[bool, ...]:
        """Designations for a slot range (True = receive); Figure 4's rows."""
        return tuple(bool(d) for d in self.designations(first_slot, slot_count))

    def max_packet_time(self, packet_fraction: float = 0.25) -> float:
        """Packet airtime under the thesis's quarter-slot packing rule.

        §7.2: "limiting the packets to a small fixed-size one-fourth the
        length of a slot time" keeps scheduling simple at the cost of a
        further 25% of the usable overlap.
        """
        if not 0.0 < packet_fraction <= 1.0:
            raise ValueError("packet fraction must be in (0, 1]")
        return self.slot_time * packet_fraction
