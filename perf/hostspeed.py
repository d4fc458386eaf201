"""Timings that hold still while the host's cores change speed.

On a shared host a vCPU's speed changes by up to 1.7x within a second
as other tenants come and go on the same physical core, and the mix of
fast and slow stretches drifts over minutes, so raw wall times of the
same work spread by 20-50% from one run to the next.

A ``SpeedSampler`` measures how fast the core is while a phase of work
runs.  A wall-clock interval timer (``SIGALRM``) interrupts the work
every ``PERIOD_S`` and runs a fixed probe of half a millisecond in the
same thread, hence on the same core, and records how long the probe
took.  A phase then reports, besides its wall time, its
*reference time*: the time the same work would have taken on a core
that runs the probe in ``REFERENCE_PROBE_S``::

    reference_s = wall_s * mean(REFERENCE_PROBE_S / probe_s)

where ``wall_s`` leaves out the time spent in probes.  Faster code
lowers the wall time and leaves the probe alone, so it lowers the
reference time by the same share; a slow stretch of the host raises
both the wall time and the probe times, and cancels.  The probes cost
about 2% of a phase.  Signals are delivered between bytecodes, so a
long native call delays the next sample until it returns.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, List, Mapping, Optional

import numpy as np

__all__ = ["PERIOD_S", "REFERENCE_PROBE_S", "PhaseTiming", "SpeedSampler", "probe"]

#: Interval between probes.
PERIOD_S = 0.025
#: The probe's duration on a reference core running at full speed (one
#: vCPU of an Intel Xeon x86_64 VM with its sibling idle).  It only sets
#: the scale of reference times: on that core they equal wall times.
REFERENCE_PROBE_S = 0.40e-3

_PROBE_ARRAY = np.arange(500, dtype=float)
_PROBE_TREE = {
    f"key{i}": [{"a": j, "b": (j, float(j)), "c": "x" * (j % 5)} for j in range(6)]
    for i in range(4)
}


def _rebuild(value: Any) -> Any:
    if isinstance(value, Mapping):
        return {key: _rebuild(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rebuild(item) for item in value]
    if isinstance(value, float):
        return round(value, 6)
    return value


def probe() -> None:
    """The fixed work whose duration measures the core's speed.

    Different code slows by different amounts when the core is shared,
    so the probe mixes the program's kinds of work, in about equal
    parts: arithmetic and dict stores in an interpreter loop, small
    NumPy operations, and a recursive walk that type-checks values and
    builds containers, as result canonicalisation does.  On the five
    workloads this mix tracked the slowdown better than any one part.
    """
    total = 0
    table = {}
    for i in range(1500):
        total += i * i % 7
        table[i & 255] = total
    values = _PROBE_ARRAY
    for _ in range(30):
        values = np.add(values, 1.0) * 0.5
    _rebuild(_PROBE_TREE)


@dataclass
class PhaseTiming:
    """Wall time of one phase, probes excluded, and the probe durations
    sampled around and during it."""

    wall_s: float = 0.0
    samples_s: List[float] = field(default_factory=list)

    @property
    def speed(self) -> float:
        """Mean speed of the core over the phase relative to the
        reference core (1.0 = reference speed)."""
        return statistics.fmean(REFERENCE_PROBE_S / sample for sample in self.samples_s)

    @property
    def reference_s(self) -> float:
        """The phase's wall time converted to reference seconds."""
        return self.wall_s * self.speed


class SpeedSampler:
    """Samples the core's speed while ``phase()`` blocks run.

    Use it from the main thread, which alone runs signal handlers.

    Args:
        period_s: interval between probes inside a phase.
        probe: the fixed work timed at each sample; tests pass a stub.
        clock: the time source (seconds); tests pass a fake one.
    """

    def __init__(
        self,
        period_s: float = PERIOD_S,
        probe: Callable[[], object] = probe,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self._period_s = period_s
        self._probe = probe
        self._clock = clock
        self._current: Optional[PhaseTiming] = None
        self._in_probes_s = 0.0
        self._busy = False
        for _ in range(20):  # first calls pay for caches and lazy imports
            probe()

    def _sample(self, timing: PhaseTiming) -> float:
        self._busy = True
        try:
            began = self._clock()
            self._probe()
            elapsed = self._clock() - began
        finally:
            self._busy = False
        timing.samples_s.append(elapsed)
        return elapsed

    def _on_alarm(self, signum: int, frame: object) -> None:
        # A tick that lands inside a probe (one outlasted the period)
        # or after the phase ended is skipped.
        if self._current is not None and not self._busy:
            self._in_probes_s += self._sample(self._current)

    @contextmanager
    def phase(self) -> Iterator[PhaseTiming]:
        """Time the enclosed block; the yielded ``PhaseTiming`` is
        complete when the block exits.  One probe runs just before the
        clock starts and one just after it stops, so every phase has
        samples however short it is."""
        timing = PhaseTiming()
        self._in_probes_s = 0.0
        self._sample(timing)
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._current = timing
        signal.setitimer(signal.ITIMER_REAL, self._period_s, self._period_s)
        began = self._clock()
        try:
            yield timing
        finally:
            ended = self._clock()
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            self._current = None
            signal.signal(signal.SIGALRM, previous)
            timing.wall_s = ended - began - self._in_probes_s
            self._sample(timing)
