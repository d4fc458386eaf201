"""The discrete-event simulation environment.

A minimal, deterministic event-wheel: a binary heap of (time, priority,
sequence, event) entries, processed in order, with FIFO tie-breaking
among simultaneous events.  Determinism matters here — the
collision-freedom experiments assert *exact* zero-loss outcomes, which
only reproduce if the event order is stable across runs.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from itertools import count
from typing import Any, List, Optional, Tuple

from repro.sim.events import NORMAL, URGENT, AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process, ProcessGenerator
from repro.sim.sanitizer import DeterminismSanitizer, sanitize_default

__all__ = ["Environment", "EmptySchedule"]


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no events remain."""


class Environment:
    """Execution environment for a single simulation run.

    Args:
        initial_time: starting simulated time.
        sanitize: enable the determinism sanitizer (invariant checks on
            every step plus a replay digest; see
            :mod:`repro.sim.sanitizer`).  ``None`` defers to the
            process-wide default (``REPRO_SANITIZE=1`` or the
            :func:`repro.sim.sanitizer.sanitized` context manager).

    Attributes:
        now: current simulated time.
    """

    def __init__(
        self, initial_time: float = 0.0, sanitize: Optional[bool] = None
    ) -> None:
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._sequence = count()
        self._events_processed = 0
        self._active_process: Optional[Process] = None
        if sanitize is None:
            sanitize = sanitize_default()
        self._sanitizer: Optional[DeterminismSanitizer] = (
            DeterminismSanitizer() if sanitize else None
        )

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    @property
    def sanitizing(self) -> bool:
        """Whether the determinism sanitizer is enabled."""
        return self._sanitizer is not None

    @property
    def events_processed(self) -> int:
        """Total events processed so far (the perf harness's work unit)."""
        return self._events_processed

    def replay_digest(self) -> str:
        """Hex digest of the processed event stream so far.

        Two runs of the same seeded scenario must return identical
        digests; any divergence means nondeterminism leaked into the
        event wheel.  Requires the sanitizer (``sanitize=True`` or
        ``REPRO_SANITIZE=1``).
        """
        if self._sanitizer is None:
            raise RuntimeError(
                "replay digests require the determinism sanitizer; construct "
                "the Environment with sanitize=True or set REPRO_SANITIZE=1"
            )
        return self._sanitizer.digest()

    # -- scheduling --------------------------------------------------

    def schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Queue a triggered event for processing after ``delay``."""
        if delay < 0.0:
            raise ValueError("cannot schedule into the past")
        when = self._now + delay
        if self._sanitizer is not None:
            self._sanitizer.check_schedule(event, when, self._now)
        elif not when < math.inf:
            # A NaN time compares neither below nor above any other in
            # the heap, so it would let the clock run backwards.
            raise ValueError(f"cannot schedule an event at time {when!r}")
        heappush(self._queue, (when, priority, next(self._sequence), event))

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf when idle."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the single next event."""
        try:
            when, priority, _, event = heappop(self._queue)
        except IndexError:
            raise EmptySchedule("no events scheduled") from None
        if self._sanitizer is not None:
            self._sanitizer.check_step(event, when, self._now)
            self._sanitizer.record(when, priority, event)
        self._now = when
        self._events_processed += 1
        event._run_callbacks()
        if event._ok is False and not event._defused:
            raise event._value

    def run(self, until: float | Event | None = None) -> Any:
        """Run the simulation.

        Args:
            until: ``None`` runs until no events remain; a number runs
                until simulated time reaches it (events at exactly that
                time are not processed); an :class:`Event` runs until
                that event has been processed and returns its value.
        """
        marker: Optional[Event] = None
        if until is None:
            pass
        elif isinstance(until, Event):
            marker = until
        else:
            horizon = float(until)
            if math.isnan(horizon):
                raise ValueError("until must be a time, not NaN")
            if horizon < self._now:
                raise ValueError(
                    f"until ({horizon}) is before the current time ({self._now})"
                )
            marker = Event(self)
            marker._ok = True
            marker._value = None
            heappush(self._queue, (horizon, URGENT, next(self._sequence), marker))

        while self._queue:
            if marker is not None and marker.processed:
                return marker.value if isinstance(until, Event) else None
            self.step()
        if marker is not None and marker.processed:
            return marker.value if isinstance(until, Event) else None
        if isinstance(until, Event):
            raise RuntimeError("ran out of events before `until` event triggered")
        return None

    # -- factories ---------------------------------------------------

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires after ``delay`` simulated time units."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator) -> Process:
        """Start a new process from a generator."""
        return Process(self, generator)

    def any_of(self, events: List[Event]) -> AnyOf:
        """An event that fires when any of ``events`` fires."""
        return AnyOf(self, events)

    def all_of(self, events: List[Event]) -> AllOf:
        """An event that fires when all of ``events`` have fired."""
        return AllOf(self, events)
