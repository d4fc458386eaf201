"""Pluggable trace sinks: where typed events go.

A sink receives every :class:`~repro.obs.events.TraceEvent` the
:class:`~repro.obs.api.Instrumentation` facade emits.  Three shipped
sinks cover the usual needs:

* :class:`MemorySink` — an in-memory ring for tests and interactive
  queries (bounded with ``capacity`` so long runs cannot exhaust RAM).
* :class:`JsonlSink` — a human-greppable JSONL stream with size-based
  rotation, one event per line.
* :class:`BinarySink` — a compact columnar file (NumPy ``.npz``) for
  million-event runs: per-kind column arrays with dictionary-encoded
  strings, typically ~10x smaller than the JSONL form.

``read_jsonl`` and ``read_binary`` decode either format back into the
identical typed event sequence (a property test asserts the two
round-trips agree), so analysis never needs to care which sink a trace
came through.
"""

from __future__ import annotations

import json
import os
from collections import deque
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.obs.events import TraceEvent, event_from_payload

__all__ = [
    "Sink",
    "MemorySink",
    "JsonlSink",
    "BinarySink",
    "read_jsonl",
    "read_binary",
    "read_trace",
]


class Sink:
    """Interface every trace sink implements."""

    def emit(self, event: TraceEvent) -> None:
        """Receive one typed event."""
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release any resources (idempotent)."""


class MemorySink(Sink):
    """Keeps events in memory, optionally as a bounded ring.

    Args:
        capacity: maximum events retained (oldest evicted first);
            ``None`` keeps everything.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._events: deque = deque(maxlen=capacity)

    def emit(self, event: TraceEvent) -> None:
        """Append the event (evicting the oldest when at capacity)."""
        self._events.append(event)

    def events(self) -> List[TraceEvent]:
        """Snapshot of the retained events, oldest first."""
        return list(self._events)

    def clear(self) -> None:
        """Discard all retained events."""
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)


class JsonlSink(Sink):
    """Streams events as JSON lines, with optional size-based rotation.

    Args:
        path: output file.  When rotation triggers, subsequent segments
            are written to ``path.1``, ``path.2``, ... so the base path
            plus its numbered siblings hold the full chronological
            stream (``read_jsonl`` follows them automatically).
        rotate_bytes: start a new segment once the current one exceeds
            this size; ``None`` disables rotation.
    """

    def __init__(self, path: str, rotate_bytes: Optional[int] = None) -> None:
        if rotate_bytes is not None and rotate_bytes < 1:
            raise ValueError("rotate_bytes must be positive")
        self.path = str(path)
        self.rotate_bytes = rotate_bytes
        self._segment = 0
        self._written = 0
        self._handle = open(self.path, "w", encoding="utf-8")

    def segment_paths(self) -> List[str]:
        """Paths of every segment written so far, in stream order."""
        return [self.path] + [
            f"{self.path}.{index}" for index in range(1, self._segment + 1)
        ]

    def emit(self, event: TraceEvent) -> None:
        """Write one event as a JSON line (rotating first if due)."""
        if (
            self.rotate_bytes is not None
            and self._written >= self.rotate_bytes
        ):
            self._rotate()
        line = json.dumps(
            {"kind": event.KIND, "schema": event.SCHEMA, "time": event.time,
             **event.payload()},
            separators=(",", ":"),
        )
        self._handle.write(line + "\n")
        self._written += len(line) + 1

    def _rotate(self) -> None:
        self._handle.close()
        self._segment += 1
        self._handle = open(
            f"{self.path}.{self._segment}", "w", encoding="utf-8"
        )
        self._written = 0

    def close(self) -> None:
        """Flush and close the current segment."""
        if not self._handle.closed:
            self._handle.close()


def read_jsonl(path: str) -> List[TraceEvent]:
    """Decode a JSONL trace (following rotated segments) into events."""
    events: List[TraceEvent] = []
    segment = str(path)
    index = 0
    while os.path.exists(segment):
        with open(segment, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                row = json.loads(line)
                kind = row.pop("kind")
                row.pop("schema", None)
                time = row.pop("time")
                events.append(event_from_payload(kind, time, row))
        index += 1
        segment = f"{path}.{index}"
    return events


#: Binary column type codes: int64, float64, bool, dictionary-encoded
#: JSON value (strings, tuples, anything non-scalar).
_COLUMN_CODES = ("i", "f", "b", "s")


class BinarySink(Sink):
    """Buffers events and writes a compact columnar ``.npz`` on close.

    Events are stored column-major per kind: a global kind sequence
    (dictionary-encoded) preserves total order, and each field becomes
    one typed array — int64/float64/bool where the values allow,
    dictionary-encoded JSON otherwise.  The whole file loads with
    ``allow_pickle=False``.

    Args:
        path: output ``.npz`` file (written once, at :meth:`close`).
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._kind_order: List[str] = []
        self._kind_index: Dict[str, int] = {}
        self._kind_codes: List[int] = []
        self._columns: Dict[str, Dict[str, List[Any]]] = {}
        self._closed = False

    def emit(self, event: TraceEvent) -> None:
        """Buffer one event for the columnar write-out."""
        kind = event.KIND
        columns = self._columns.get(kind)
        if columns is None:
            self._kind_index[kind] = len(self._kind_order)
            self._kind_order.append(kind)
            columns = {"time": []}
            for key in event.payload():
                columns[key] = []
            self._columns[kind] = columns
        self._kind_codes.append(self._kind_index[kind])
        columns["time"].append(event.time)
        for key, value in event.payload().items():
            columns[key].append(value)

    def close(self) -> None:
        """Write the buffered events to ``path`` (once)."""
        if self._closed:
            return
        self._closed = True
        arrays: Dict[str, np.ndarray] = {
            "kind_codes": np.asarray(self._kind_codes, dtype=np.int64),
        }
        header: Dict[str, Any] = {
            "version": 1,
            "kinds": self._kind_order,
            "columns": {},
        }
        for kind, columns in self._columns.items():
            layout: List[Dict[str, Any]] = []
            for name, values in columns.items():
                code, encoded, uniques = _encode_column(values)
                entry: Dict[str, Any] = {"name": name, "code": code}
                if uniques is not None:
                    entry["uniques"] = uniques
                layout.append(entry)
                arrays[f"col_{kind}_{name}"] = encoded
            header["columns"][kind] = layout
        arrays["header"] = np.frombuffer(
            json.dumps(header, separators=(",", ":")).encode("utf-8"),
            dtype=np.uint8,
        )
        with open(self.path, "wb") as handle:
            np.savez(handle, **arrays)


def _encode_column(
    values: List[Any],
) -> Tuple[str, np.ndarray, Optional[List[str]]]:
    """Pick the densest lossless dtype for one column of values."""
    if values and all(isinstance(v, bool) for v in values):
        return "b", np.asarray(values, dtype=np.bool_), None
    if values and all(
        isinstance(v, int) and not isinstance(v, bool) for v in values
    ):
        return "i", np.asarray(values, dtype=np.int64), None
    if values and all(isinstance(v, float) for v in values):
        return "f", np.asarray(values, dtype=np.float64), None
    uniques: List[str] = []
    index: Dict[str, int] = {}
    codes = np.empty(len(values), dtype=np.int64)
    for position, value in enumerate(values):
        key = json.dumps(value, separators=(",", ":"))
        slot = index.get(key)
        if slot is None:
            slot = len(uniques)
            index[key] = slot
            uniques.append(key)
        codes[position] = slot
    return "s", codes, uniques


def read_binary(path: str) -> List[TraceEvent]:
    """Decode a :class:`BinarySink` file back into the event sequence."""
    with np.load(path, allow_pickle=False) as archive:
        header = json.loads(bytes(archive["header"]).decode("utf-8"))
        kinds = header["kinds"]
        kind_codes = archive["kind_codes"]
        decoded: Dict[str, List[Dict[str, Any]]] = {}
        for kind in kinds:
            layout = header["columns"][kind]
            columns: Dict[str, List[Any]] = {}
            for entry in layout:
                raw = archive[f"col_{kind}_{entry['name']}"]
                if entry["code"] == "s":
                    uniques = [json.loads(u) for u in entry["uniques"]]
                    columns[entry["name"]] = [
                        uniques[int(c)] for c in raw
                    ]
                else:
                    columns[entry["name"]] = raw.tolist()
            names = [entry["name"] for entry in layout]
            count = len(columns["time"]) if names else 0
            decoded[kind] = [
                {name: columns[name][i] for name in names}
                for i in range(count)
            ]
    cursors = {kind: 0 for kind in kinds}
    events: List[TraceEvent] = []
    for code in kind_codes.tolist():
        kind = kinds[code]
        row = decoded[kind][cursors[kind]]
        cursors[kind] += 1
        time = row.pop("time")
        events.append(event_from_payload(kind, time, row))
    return events


def read_trace(path: str) -> List[TraceEvent]:
    """Decode a trace file of either format (sniffed by magic bytes)."""
    with open(path, "rb") as handle:
        magic = handle.read(2)
    if magic == b"PK":  # .npz is a zip archive
        return read_binary(path)
    return read_jsonl(path)
