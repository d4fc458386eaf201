"""The one instrumentation facade every layer emits through.

An :class:`Instrumentation` instance is a bundle of sinks plus a single
hot-path flag, ``active``.  Call sites guard with it::

    if instr.active:
        instr.emit(TxStart(now, source, destination, power_w, packet_id))

so a disabled facade costs one attribute read per potential event — no
dict building, no string formatting — and emission itself never touches
the event wheel or any random stream, which keeps replay digests
bit-identical whether sinks are attached or not.

Analyses read a run's retained events back as typed objects through
:meth:`Instrumentation.events`, which is backed by the facade's first
:class:`~repro.obs.sinks.MemorySink`, and filter them by event type.

For tooling that wants to observe *any* run without threading a
parameter through every experiment signature, :func:`use_instrumentation`
installs an ambient default that ``build_network`` folds in (note: the
ambient default does not cross process boundaries, so multi-worker
sweeps only observe it at ``jobs=1``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List, Optional, Sequence

from repro.obs.events import TraceEvent
from repro.obs.sinks import MemorySink, Sink

__all__ = [
    "Instrumentation",
    "use_instrumentation",
    "ambient_instrumentation",
]


class Instrumentation:
    """A bundle of trace sinks behind one emission point.

    The sinks are fixed at construction: ``active`` is True exactly
    when there is at least one.  To observe with more sinks, build a
    new facade from ``sinks`` plus the extra ones.

    Args:
        sinks: the sinks to fan events out to.
    """

    def __init__(self, sinks: Sequence[Sink] = ()) -> None:
        self._sinks = tuple(sinks)
        self.active = bool(self._sinks)

    # -- emission ------------------------------------------------------

    @property
    def sinks(self) -> tuple:
        """The attached sinks, in fan-out order."""
        return self._sinks

    def emit(self, event: TraceEvent) -> None:
        """Fan one typed event out to every sink (no-op when inactive)."""
        if not self.active:
            return
        for sink in self._sinks:
            sink.emit(event)

    def close(self) -> None:
        """Close every sink (flushes file-backed ones)."""
        for sink in self._sinks:
            sink.close()

    # -- queries -------------------------------------------------------

    @property
    def memory(self) -> Optional[MemorySink]:
        """The first attached :class:`MemorySink`, if any."""
        for sink in self._sinks:
            if isinstance(sink, MemorySink):
                return sink
        return None

    def events(self) -> List[TraceEvent]:
        """All retained typed events (empty without a memory sink)."""
        memory = self.memory
        return memory.events() if memory is not None else []


_AMBIENT: List[Instrumentation] = []


@contextmanager
def use_instrumentation(instrumentation: Instrumentation):
    """Install an ambient instrumentation default for nested builds.

    Every ``build_network`` call inside the ``with`` block folds this
    facade's sinks into the network's instrumentation, so any
    experiment or sweep can be traced without changing its signature::

        with use_instrumentation(Instrumentation((JsonlSink(path),))):
            run(loads_packets_per_slot=(0.05,))

    The default is process-local: worker processes of a ``jobs > 1``
    fan-out do not inherit it.
    """
    _AMBIENT.append(instrumentation)
    try:
        yield instrumentation
    finally:
        _AMBIENT.pop()


def ambient_instrumentation() -> Optional[Instrumentation]:
    """The innermost ambient facade, or ``None`` outside any context."""
    return _AMBIENT[-1] if _AMBIENT else None
