"""Crash-resumable task journals: checkpoint/resume for suites and sweeps.

A :class:`ResultJournal` is an append-only JSONL file recording every
completed :class:`~repro.parallel.task.TaskResult` of a run.  Killing
the run loses at most the tasks still in flight; restarting with the
same plan and the same journal path replays the journaled results and
executes only the remainder.  Because payloads are stored *canonical*
(the same :func:`~repro.parallel.task.canonicalize` the digests use)
and JSON round-trips canonical values exactly, a resumed run's rows,
payload digests, and final results digest are bit-identical to an
uninterrupted run — the property the resume tests pin down.

File format, one JSON object per line:

* header: ``{"journal": "repro-task-journal", "version": 1,
  "fingerprint": <plan fingerprint>}`` — the fingerprint covers every
  spec's identity (id, kind, target, canonical params, seed, sanitize),
  so resuming against a *different* plan is refused instead of silently
  mixing results.
* records: ``{"record": {...TaskResult fields...}, "digest": <BLAKE2b
  of the canonical record JSON>}`` — a torn or corrupt tail (the run
  was killed mid-write, or a line is not even UTF-8) is detected and
  dropped; every verified prefix record is kept.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, List, Optional, Sequence

from repro.parallel.task import TaskResult, TaskSpec, canonicalize, spec_identity

__all__ = [
    "ResultJournal",
    "plan_fingerprint",
    "record_digest",
    "result_to_record",
    "record_to_result",
]

_MAGIC = "repro-task-journal"
_VERSION = 1


def plan_fingerprint(specs: Sequence[TaskSpec]) -> str:
    """Fingerprint of a task plan's identity (order-sensitive).

    Covers everything that determines each task's outcome — id plus
    :func:`~repro.parallel.task.spec_identity` (kind, target, canonical
    params, seed, sanitize) — but *not* scheduling knobs like
    ``timeout_s``/``retries``, so a resume may adjust those without
    invalidating the journal.
    """
    parts = []
    for spec in specs:
        identity = {"task_id": spec.task_id, **spec_identity(spec)}
        parts.append(json.dumps(identity, sort_keys=True))
    joined = "\n".join(parts)
    return hashlib.blake2b(joined.encode("utf-8"), digest_size=16).hexdigest()


def record_digest(record: Dict[str, Any]) -> str:
    """BLAKE2b over a record's canonical JSON — the torn/bit-flip
    witness shared by the journal and the result cache."""
    canonical = json.dumps(record, sort_keys=True)
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()


def result_to_record(result: TaskResult) -> Dict[str, Any]:
    """Serialise a result to the canonical JSON-safe record shape used
    by both the checkpoint journal and the result cache."""
    return {
        "task_id": result.task_id,
        "ok": result.ok,
        "payload": canonicalize(result.payload) if result.payload is not None else None,
        "error": result.error,
        "attempts": result.attempts,
        "replay_digest": result.replay_digest,
        "payload_digest": result.payload_digest,
    }


def record_to_result(record: Dict[str, Any]) -> TaskResult:
    """Rebuild a :class:`TaskResult` from :func:`result_to_record`."""
    return TaskResult(
        task_id=record["task_id"],
        ok=record["ok"],
        payload=record["payload"],
        error=record["error"],
        attempts=record["attempts"],
        replay_digest=record["replay_digest"],
        payload_digest=record["payload_digest"],
    )


class ResultJournal:
    """Digest-verified checkpoint file for one task plan.

    Opening a journal loads every verified record from an existing file
    (raising if the file belongs to a different plan), truncates any
    corrupt tail, and leaves the file open for appending.  Use as a
    context manager or call :meth:`close`.

    Args:
        path: journal file location (created if absent).
        specs: the plan being run; its fingerprint gates resumption.
    """

    def __init__(self, path: str, specs: Sequence[TaskSpec]) -> None:
        self.path = os.fspath(path)
        self.fingerprint = plan_fingerprint(specs)
        self._valid_ids = {spec.task_id for spec in specs}
        self.completed: Dict[str, TaskResult] = {}
        records = self._load_existing()
        # Rewrite the verified prefix so any corrupt tail is gone and
        # the next append starts on a clean line boundary.
        self._handle = open(self.path, "w", encoding="utf-8")
        header = {
            "journal": _MAGIC,
            "version": _VERSION,
            "fingerprint": self.fingerprint,
        }
        self._handle.write(json.dumps(header, sort_keys=True) + "\n")
        for record in records:
            self._append(record)
        self._handle.flush()

    def _load_existing(self) -> List[Dict[str, Any]]:
        if not os.path.exists(self.path):
            return []
        # Bytes, decoded line by line: a byte that is not UTF-8 corrupts
        # its own line only, and a corrupt line ends the verified prefix.
        with open(self.path, "rb") as handle:
            lines = handle.read().splitlines()
        if not lines:
            return []
        try:
            header = json.loads(lines[0].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise ValueError(
                f"{self.path} is not a task journal (unparseable header)"
            ) from None
        if not isinstance(header, dict) or header.get("journal") != _MAGIC:
            raise ValueError(f"{self.path} is not a task journal")
        if header.get("version") != _VERSION:
            raise ValueError(
                f"{self.path} uses journal version {header.get('version')!r}; "
                f"this build writes version {_VERSION}"
            )
        if header.get("fingerprint") != self.fingerprint:
            raise ValueError(
                f"{self.path} was written for a different task plan "
                "(seed, parameters, or task list changed); refusing to "
                "resume — delete the journal to start over"
            )
        records: List[Dict[str, Any]] = []
        for line in lines[1:]:
            try:
                entry = json.loads(line.decode("utf-8"))
                record = entry["record"]
                digest = entry["digest"]
            except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError):
                break  # torn tail: the run died mid-write
            if record_digest(record) != digest:
                break  # corrupt tail
            if record["task_id"] not in self._valid_ids:
                break  # defensive: fingerprint should prevent this
            records.append(record)
            self.completed[record["task_id"]] = record_to_result(record)
        return records

    def _append(self, record: Dict[str, Any]) -> None:
        entry = {"record": record, "digest": record_digest(record)}
        self._handle.write(json.dumps(entry, sort_keys=True) + "\n")

    def record(self, result: TaskResult) -> None:
        """Journal one completed result (flushed to disk immediately)."""
        if result.task_id not in self._valid_ids:
            raise ValueError(
                f"result {result.task_id!r} does not belong to this plan"
            )
        record = result_to_record(result)
        self._append(record)
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self.completed[result.task_id] = record_to_result(record)

    def results(self) -> List[TaskResult]:
        """The journaled results, in completion (append) order."""
        return list(self.completed.values())

    def close(self) -> None:
        """Close the underlying file handle."""
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "ResultJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
