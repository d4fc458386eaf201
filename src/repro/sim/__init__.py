"""Discrete-event simulation substrate (engine, processes, stats, streams)."""

from repro.sim.engine import EmptySchedule, Environment
from repro.sim.events import AllOf, AnyOf, Condition, Event, Interrupt, Timeout
from repro.sim.process import Process, ProcessGenerator
from repro.sim.sanitizer import DeterminismSanitizer, SanitizerError, sanitized
from repro.sim.stats import Welford
from repro.sim.streams import RandomStreams

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "DeterminismSanitizer",
    "EmptySchedule",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "ProcessGenerator",
    "RandomStreams",
    "SanitizerError",
    "Timeout",
    "sanitized",
    "Welford",
]
