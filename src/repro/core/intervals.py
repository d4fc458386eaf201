"""Interval-stream algebra for schedule window arithmetic.

The channel access scheme (Section 7) reduces to interval arithmetic:
"send the packet during a time when one of its own transmit windows
overlaps with a receive window of the receiving station enough to
handle the packet length."  This module implements lazy set operations
on *ordered streams* of half-open intervals ``(start, end)`` so that the
search can walk forward through unbounded pseudo-random schedules
without materialising them.

All streams must yield disjoint intervals in increasing order; the
operations preserve that property.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Tuple

__all__ = [
    "Interval",
    "intersect",
    "subtract",
    "clip",
    "first_fitting",
    "total_length",
]

Interval = Tuple[float, float]


def intersect(a: Iterable[Interval], b: Iterable[Interval]) -> Iterator[Interval]:
    """Lazy intersection of two ordered interval streams."""
    iter_a = iter(a)
    iter_b = iter(b)
    current_a = next(iter_a, None)
    current_b = next(iter_b, None)
    while current_a is not None and current_b is not None:
        start = max(current_a[0], current_b[0])
        end = min(current_a[1], current_b[1])
        if start < end:
            yield (start, end)
        # Advance whichever interval ends first.
        if current_a[1] <= current_b[1]:
            current_a = next(iter_a, None)
        else:
            current_b = next(iter_b, None)


def subtract(base: Iterable[Interval], removed: Iterable[Interval]) -> Iterator[Interval]:
    """Lazy set difference ``base - removed`` of ordered interval streams."""
    iter_removed = iter(removed)
    hole = next(iter_removed, None)
    for start, end in base:
        cursor = start
        while True:
            # Skip holes that end before the remaining piece.
            while hole is not None and hole[1] <= cursor:
                hole = next(iter_removed, None)
            if hole is None or hole[0] >= end:
                if cursor < end:
                    yield (cursor, end)
                break
            if hole[0] > cursor:
                yield (cursor, hole[0])
            cursor = max(cursor, hole[1])
            if cursor >= end:
                break


def clip(intervals: Iterable[Interval], start: float, end: float) -> Iterator[Interval]:
    """Restrict a stream to the window ``[start, end)``; stops once past it."""
    if end <= start:
        raise ValueError("clip window must be non-empty")
    for lo, hi in intervals:
        if hi <= start:
            continue
        if lo >= end:
            return
        yield (max(lo, start), min(hi, end))


def first_fitting(
    intervals: Iterable[Interval],
    duration: float,
    not_before: float = float("-inf"),
) -> Optional[Interval]:
    """First sub-interval of length ``duration`` starting at or after
    ``not_before``; ``None`` when the (finite) stream has none.

    The returned interval is exactly ``duration`` long, placed as early
    as possible.
    """
    if duration <= 0.0:
        raise ValueError("duration must be positive")
    for start, end in intervals:
        candidate = max(start, not_before)
        if end - candidate >= duration:
            return (candidate, candidate + duration)
    return None


def total_length(intervals: Iterable[Interval]) -> float:
    """Sum of lengths of a (finite) interval stream."""
    return sum(end - start for start, end in intervals)
