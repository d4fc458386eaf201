"""Observability: typed trace events, sinks, and metric timelines.

Every observable occurrence of a run is a typed event, and one facade
carries it to pluggable sinks:

* :mod:`repro.obs.events` — a typed, schema-versioned event taxonomy.
* :mod:`repro.obs.api` — the :class:`Instrumentation` facade every
  layer (medium, stations, MACs, fault injector) emits through.
* :mod:`repro.obs.sinks` — pluggable sinks: in-memory ring, JSONL
  stream with rotation, compact binary columnar files.
* :mod:`repro.obs.metrics` — per-kind event counts and windowed
  per-station metric timelines (duty cycle, queue depth, SIR margin,
  losses).  Cumulative counts come from the run's ``NetworkResult``.

Instrumentation is non-perturbing by construction: emission never
touches the event wheel or a random stream, so replay digests are
identical with sinks attached or not.
"""

from repro.obs.api import (
    Instrumentation,
    ambient_instrumentation,
    use_instrumentation,
)
from repro.obs.events import EVENT_TYPES, TraceEvent, event_from_payload
from repro.obs.metrics import MetricTimelines
from repro.obs.sinks import (
    BinarySink,
    JsonlSink,
    MemorySink,
    Sink,
    read_binary,
    read_jsonl,
    read_trace,
)

__all__ = [
    "Instrumentation",
    "use_instrumentation",
    "ambient_instrumentation",
    "TraceEvent",
    "EVENT_TYPES",
    "event_from_payload",
    "Sink",
    "MemorySink",
    "JsonlSink",
    "BinarySink",
    "read_jsonl",
    "read_binary",
    "read_trace",
    "MetricTimelines",
]
