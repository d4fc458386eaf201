"""Persistent content-addressed result store: memoise TaskSpecs by digest.

A :class:`ResultCache` maps the *identity* of a task's work — its
:func:`~repro.parallel.task.spec_digest`, covering kind, target,
canonical params, seed, and sanitize, and deliberately **not** its
``task_id`` — to the digest-verified :class:`~repro.parallel.task.TaskResult`
it produced.  Because every task is a pure function of that identity
(the jobs-invariance guarantee the seed tree and fork-safety pass
enforce), a cache hit is bit-identical to recomputation, and two sweeps
that label overlapping work differently still share entries.

Layout on disk (one directory per cache)::

    DIR/cache.json                 marker {"cache": ..., "version": 1}
    DIR/objects/<kk>/<key>.json    entries, sharded by key prefix
    DIR/quarantine/<key>.<n>.json  corrupt entries set aside by reads

Each entry is one JSON object ``{"key", "spec", "record", "digest"}``
where ``record`` is the result's canonical JSON form and ``digest``
seals the other three fields with a BLAKE2b over their canonical JSON.
The stored ``spec`` identity lets ``verify --recompute`` re-execute an
entry from the cache alone and hard-fail on divergence.

Durability discipline:

* **Atomic writes.**  Entries are written to a same-directory temp file
  and published with ``os.replace``; two processes racing to write the
  same key both leave one complete entry (last rename wins, and both
  bodies are identical by determinism).
* **Torn-record recovery.**  A read that finds an entry that is not
  UTF-8, unparseable, digest-mismatching, or internally inconsistent
  *quarantines* it (moved aside for inspection, counted in stats) and
  reports a miss — corruption is never fatal and never served.
* **Divergence is a hard error.**  When an independent recomputation
  disagrees with a stored entry, :exc:`CacheDivergenceError` is raised;
  a stale row is never silently returned.
* **Resume.**  :func:`~repro.parallel.pool.run_tasks` publishes each
  successful result the moment it completes, so a killed run loses
  only the tasks still in flight: rerunning it over the same cache
  recalls every stored result and executes the rest, with the same
  final digests as an uninterrupted run.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from typing import Any, Dict, List, Optional

from repro.parallel.task import (
    TaskResult,
    TaskSpec,
    _json_digest,
    canonicalize,
    execute_task,
    spec_digest,
    spec_identity,
)

__all__ = ["CacheDivergenceError", "ResultCache"]

# The REP002 exemption above covers host-side cache maintenance only:
# entry ages for `gc --max-age` come from file modification times
# compared against the host clock.  No wall-clock value ever reaches
# simulation state — the same argument as the pool's timeout clock.

_MAGIC = "repro-result-cache"
_VERSION = 1

#: The temp file a marker write leaves in the root when its opener is
#: killed before the rename (:meth:`ResultCache._atomic_write` naming).
_MARKER_TEMP = re.compile(r"\.tmp\.\d+\.cache\.json")


class CacheDivergenceError(RuntimeError):
    """A cached result disagrees with an independent recomputation of
    the same spec.

    This is the one unrecoverable cache condition: either the cache was
    fed from a different build of the simulator, or determinism itself
    is broken.  Serving either side silently would poison every
    downstream aggregate, so the run stops here.
    """


def _record_digest(record: Dict[str, Any]) -> str:
    """BLAKE2b over a record's canonical JSON: the torn-write and
    bit-flip witness that seals every entry."""
    canonical = json.dumps(record, sort_keys=True)
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()


def _result_to_record(result: TaskResult) -> Dict[str, Any]:
    """A result as the canonical, JSON-safe record an entry stores."""
    return {
        "task_id": result.task_id,
        "ok": result.ok,
        "payload": canonicalize(result.payload) if result.payload is not None else None,
        "error": result.error,
        "attempts": result.attempts,
        "payload_digest": result.payload_digest,
    }


def _record_to_result(record: Dict[str, Any]) -> TaskResult:
    """Rebuild a :class:`TaskResult` from :func:`_result_to_record`."""
    return TaskResult(
        task_id=record["task_id"],
        ok=record["ok"],
        payload=record["payload"],
        error=record["error"],
        attempts=record["attempts"],
        payload_digest=record["payload_digest"],
    )


def _entry_digest(key: str, spec: Dict[str, Any], record: Dict[str, Any]) -> str:
    return _record_digest({"key": key, "spec": spec, "record": record})


def _payload_matches(payload: Any, stored: Any) -> bool:
    """Whether a decoded payload hashes to its stored payload digest."""
    if type(payload) is not dict:
        return False
    try:
        return _json_digest(payload) == stored
    except ValueError:  # a NaN or Infinity token
        return False


class ResultCache:
    """Sharded on-disk store of digest-verified task results.

    Args:
        root: cache directory (created, with its marker, if absent).

    Session counters (``hits``/``misses``/``puts``/``corrupt``) track
    this instance's traffic for ``repro cache stats`` style reporting;
    they are not persisted.
    """

    def __init__(self, root: str) -> None:
        self.root = os.fspath(root)
        self.objects_dir = os.path.join(self.root, "objects")
        self.quarantine_dir = os.path.join(self.root, "quarantine")
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.corrupt = 0
        marker = os.path.join(self.root, "cache.json")
        if os.path.exists(marker):
            with open(marker, "r", encoding="utf-8") as handle:
                try:
                    header = json.load(handle)
                except json.JSONDecodeError:
                    header = None
            if not isinstance(header, dict) or header.get("cache") != _MAGIC:
                raise ValueError(f"{self.root} is not a repro result cache")
            if header.get("version") != _VERSION:
                raise ValueError(
                    f"{self.root} uses cache version {header.get('version')!r};"
                    f" this build reads version {_VERSION}"
                )
        else:
            # A root holding only the marker temp files of killed
            # openers is empty: this opener writes under its own pid.
            if os.path.isdir(self.root) and not all(
                _MARKER_TEMP.fullmatch(name) for name in os.listdir(self.root)
            ):
                raise ValueError(
                    f"{self.root} exists, is not empty, and has no cache "
                    "marker; refusing to adopt it"
                )
            os.makedirs(self.root, exist_ok=True)
            self._atomic_write(
                marker, json.dumps({"cache": _MAGIC, "version": _VERSION})
            )
        os.makedirs(self.objects_dir, exist_ok=True)
        os.makedirs(self.quarantine_dir, exist_ok=True)

    # -- pathing -------------------------------------------------------

    def key_for(self, spec: TaskSpec) -> str:
        """The store key of a spec: its content digest."""
        return spec_digest(spec)

    def _entry_path(self, key: str) -> str:
        return os.path.join(self.objects_dir, key[:2], f"{key}.json")

    def _atomic_write(self, path: str, text: str) -> None:
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        tmp = os.path.join(
            directory, f".tmp.{os.getpid()}.{os.path.basename(path)}"
        )
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)

    def _quarantine(self, path: str) -> Optional[str]:
        """Move a bad entry aside (never delete evidence); returns the
        quarantine path, or ``None`` if another process already won."""
        base = os.path.basename(path)
        for attempt in range(100):
            target = os.path.join(self.quarantine_dir, f"{base}.{attempt}")
            if os.path.exists(target):
                continue
            try:
                os.replace(path, target)
                return target
            except FileNotFoundError:
                return None  # racing reader already moved it
        try:
            os.remove(path)
        except FileNotFoundError:
            pass
        return None

    # -- read/write ----------------------------------------------------

    def _load_entry(self, key: str) -> Optional[Dict[str, Any]]:
        """A verified entry body, or ``None`` (absent or quarantined).

        The entry must decode as UTF-8 JSON, carry its own key, match
        its seal, and hold a payload that hashes to its payload digest.
        The payload is hashed as decoded: a genuine :meth:`put` wrote it
        canonical, and canonical JSON decodes to canonical values.  A
        ``NaN`` or ``Infinity`` token, which :meth:`put` never writes,
        fails that hash and quarantines the entry.
        """
        path = self._entry_path(key)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return None
        except OSError:
            self.corrupt += 1
            self._quarantine(path)
            return None
        try:
            entry = json.loads(raw.decode("utf-8"))
            stored_key = entry["key"]
            spec = entry["spec"]
            record = entry["record"]
            digest = entry["digest"]
            payload = record["payload"]
        except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError):
            self.corrupt += 1
            self._quarantine(path)
            return None
        if (
            stored_key != key
            or _entry_digest(stored_key, spec, record) != digest
            or (
                payload is not None
                and not _payload_matches(payload, record.get("payload_digest"))
            )
        ):
            self.corrupt += 1
            self._quarantine(path)
            return None
        return entry

    def get(self, spec: TaskSpec) -> Optional[TaskResult]:
        """The cached result of ``spec``'s work, or ``None`` on a miss.

        The returned result carries *this* spec's ``task_id`` (the
        stored one may come from a differently-labelled plan).  Reads
        re-verify the entry seal and the payload digest; anything
        inconsistent is quarantined and reported as a miss.
        """
        entry = self._load_entry(self.key_for(spec))
        if entry is None:
            self.misses += 1
            return None
        result = _record_to_result(entry["record"])
        result.task_id = spec.task_id
        self.hits += 1
        return result

    def put(self, spec: TaskSpec, result: TaskResult) -> bool:
        """Store a successful result under the spec's key.

        Failed results are never cached (errors may be environmental,
        and retries make them non-content-addressable), so they always
        re-execute.  Returns whether an entry was written.
        """
        if not result.ok or result.payload is None:
            return False
        key = self.key_for(spec)
        record = _result_to_record(result)
        entry = {
            "key": key,
            "spec": spec_identity(spec),
            "record": record,
            "digest": _entry_digest(key, spec_identity(spec), record),
        }
        self._atomic_write(
            self._entry_path(key), json.dumps(entry, sort_keys=True)
        )
        self.puts += 1
        return True

    def ensure(self, spec: TaskSpec, result: TaskResult) -> None:
        """Reconcile an independently-obtained result with the store.

        Absent: the result is written.  Present: the stored payload
        digest must agree bit-for-bit — disagreement means the cache
        and the present build compute different answers for the same
        identity, and raises :exc:`CacheDivergenceError`.
        """
        if not result.ok or result.payload is None:
            return
        entry = self._load_entry(self.key_for(spec))
        if entry is None:
            self.put(spec, result)
            return
        stored = entry["record"].get("payload_digest")
        if stored != result.payload_digest:
            raise CacheDivergenceError(
                f"cache divergence for task {spec.task_id!r} "
                f"(key {self.key_for(spec)}): stored payload digest "
                f"{stored} != recomputed {result.payload_digest}; the "
                "cache was built by a different simulator version, or "
                "determinism is broken — refusing to serve either row"
            )

    # -- maintenance ---------------------------------------------------

    def _entries(self, temporary: bool = False) -> List[str]:
        """Paths of every entry file, sorted for determinism; with
        ``temporary``, the ``.tmp.*`` files of writes that never reached
        their rename instead, the root's marker writes included."""
        paths: List[str] = []
        if temporary:
            paths.extend(
                os.path.join(self.root, name)
                for name in sorted(os.listdir(self.root))
                if _MARKER_TEMP.fullmatch(name)
            )
        if not os.path.isdir(self.objects_dir):
            return paths
        for shard in sorted(os.listdir(self.objects_dir)):
            shard_dir = os.path.join(self.objects_dir, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".json") and name.startswith(".tmp.") == temporary:
                    paths.append(os.path.join(shard_dir, name))
        return paths

    def stats(self) -> Dict[str, Any]:
        """Store-wide totals plus this session's traffic counters."""
        entries = self._entries()
        total_bytes = 0
        for path in entries:
            try:
                total_bytes += os.stat(path).st_size
            except FileNotFoundError:
                continue  # racing gc/quarantine
        quarantined = [
            name
            for name in (
                sorted(os.listdir(self.quarantine_dir))
                if os.path.isdir(self.quarantine_dir)
                else []
            )
            if name.endswith(".json") or ".json." in name
        ]
        return {
            "root": self.root,
            "entries": len(entries),
            "bytes": total_bytes,
            "quarantined": len(quarantined),
            "session": {
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
                "corrupt": self.corrupt,
            },
        }

    def verify(self, recompute: int = 0) -> Dict[str, Any]:
        """Audit every entry; optionally re-execute a sample.

        Every entry's seal and payload digest are re-checked; corrupt
        entries are quarantined and counted (a report, not a failure —
        they would have been misses anyway).  With ``recompute=N``, the
        first N entries (in key order) are additionally re-executed
        from their stored spec identity and compared digest-for-digest;
        any divergence raises :exc:`CacheDivergenceError` because a
        silently stale row can poison every consumer downstream.
        """
        checked = 0
        bad: List[str] = []
        recomputed = 0
        for path in self._entries():
            key = os.path.basename(path)[: -len(".json")]
            entry = self._load_entry(key)
            checked += 1
            if entry is None:
                bad.append(key)
                continue
            if recomputed < recompute:
                recomputed += 1
                identity = entry["spec"]
                spec = TaskSpec(
                    task_id=entry["record"]["task_id"],
                    kind=identity["kind"],
                    target=identity["target"],
                    params=identity["params"],
                    seed=identity["seed"],
                    sanitize=identity["sanitize"],
                )
                fresh = execute_task(spec)
                stored_digest = entry["record"].get("payload_digest")
                if not fresh.ok or fresh.payload_digest != stored_digest:
                    raise CacheDivergenceError(
                        f"cache entry {key} does not match recomputation: "
                        f"stored payload digest {stored_digest}, "
                        f"recomputed {fresh.payload_digest!r}"
                        + ("" if fresh.ok else f" (error: {fresh.error})")
                    )
        return {
            "checked": checked,
            "corrupt_quarantined": len(bad),
            "corrupt_keys": bad,
            "recomputed": recomputed,
        }

    def gc(
        self,
        max_bytes: Optional[int] = None,
        max_age_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Evict entries by age and/or total size; purge quarantine.

        ``max_age_s`` removes entries whose file mtime is older than
        that many seconds, and the temp files of writers killed before
        their rename (entries and the root's marker alike) once they are
        as old; ``max_bytes`` then evicts
        oldest-first until the store fits.  Host wall time only ever
        compares against file mtimes here — simulation state is
        untouched.
        """
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        if max_age_s is not None and max_age_s < 0:
            raise ValueError("max_age_s must be non-negative")
        now = time.time()  # reprolint: disable=REP002
        survivors: List[Any] = []
        evicted = 0
        freed = 0
        for path in self._entries():
            try:
                stat = os.stat(path)
            except FileNotFoundError:
                continue
            age = now - stat.st_mtime
            if max_age_s is not None and age > max_age_s:
                freed += stat.st_size
                evicted += 1
                try:
                    os.remove(path)
                except FileNotFoundError:
                    pass
                continue
            survivors.append((stat.st_mtime, path, stat.st_size))
        orphans = 0
        if max_age_s is not None:
            for path in self._entries(temporary=True):
                try:
                    if now - os.stat(path).st_mtime > max_age_s:
                        os.remove(path)
                        orphans += 1
                except FileNotFoundError:
                    continue  # its writer renamed it after all
        if max_bytes is not None:
            total = sum(size for _mtime, _path, size in survivors)
            survivors.sort()  # oldest first
            index = 0
            while total > max_bytes and index < len(survivors):
                _mtime, path, size = survivors[index]
                index += 1
                try:
                    os.remove(path)
                except FileNotFoundError:
                    continue
                total -= size
                freed += size
                evicted += 1
        purged = 0
        if os.path.isdir(self.quarantine_dir):
            for name in os.listdir(self.quarantine_dir):
                try:
                    os.remove(os.path.join(self.quarantine_dir, name))
                    purged += 1
                except (FileNotFoundError, IsADirectoryError):
                    continue
        return {
            "evicted": evicted,
            "freed_bytes": freed,
            "quarantine_purged": purged,
            "temp_purged": orphans,
            "remaining_entries": len(self._entries()),
        }
