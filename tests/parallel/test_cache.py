"""The content-addressed result cache: hits must be bit-identical.

The pinned properties:

* the cache key covers exactly the spec's *work* (kind, target,
  params, seed, sanitize) and nothing else — relabelled or reschedued
  specs share entries;
* a warm read returns the same payload, digests included, as the
  execution that populated it, without re-executing anything;
* corruption (torn writes, bit flips) quarantines the entry and reads
  as a miss — never an exception, never a wrong row;
* genuine divergence (journal vs cache, recompute vs cache) is a hard
  :class:`CacheDivergenceError`, never a silent stale row.
"""

import json
import os

import pytest

from repro.parallel.cache import (
    CacheDivergenceError,
    ResultCache,
    resolve_cache,
)
from repro.parallel.checkpoint import ResultJournal
from repro.parallel.pool import run_tasks
from repro.parallel.task import TaskSpec, execute_task

WORKERS = "tests.parallel.workers"


def echo_spec(task_id, **params):
    return TaskSpec(
        task_id=task_id,
        kind="function",
        target=f"{WORKERS}:echo",
        params=params,
    )


def logged_spec(task_id, log_path, **params):
    """A spec whose every *execution* appends a line to ``log_path`` —
    the witness that cached runs execute nothing."""
    return TaskSpec(
        task_id=task_id,
        kind="function",
        target=f"{WORKERS}:slow_echo",
        params={"log_path": str(log_path), "delay_s": 0.0, **params},
    )


def execution_count(log_path):
    if not os.path.exists(log_path):
        return 0
    with open(log_path, "r", encoding="utf-8") as handle:
        return len(handle.readlines())


@pytest.fixture
def cache(tmp_path):
    return ResultCache(str(tmp_path / "cache"))


class TestCacheSetup:
    def test_fresh_directory_gets_marker(self, tmp_path):
        root = tmp_path / "cache"
        ResultCache(str(root))
        marker = json.loads((root / "cache.json").read_text())
        assert marker["cache"] == "repro-result-cache"

    def test_reopen_existing_cache(self, tmp_path):
        root = str(tmp_path / "cache")
        first = ResultCache(root)
        spec = echo_spec("a", value=1)
        first.put(spec, execute_task(spec))
        second = ResultCache(root)
        assert second.get(spec) is not None

    def test_refuses_unmarked_nonempty_directory(self, tmp_path):
        (tmp_path / "stuff.txt").write_text("precious data\n")
        with pytest.raises(ValueError, match="no cache marker"):
            ResultCache(str(tmp_path))

    def test_refuses_foreign_marker(self, tmp_path):
        root = tmp_path / "cache"
        root.mkdir()
        (root / "cache.json").write_text('{"cache": "something-else"}')
        with pytest.raises(ValueError, match="not a repro result cache"):
            ResultCache(str(root))

    def test_refuses_future_version(self, tmp_path):
        root = tmp_path / "cache"
        root.mkdir()
        (root / "cache.json").write_text(
            '{"cache": "repro-result-cache", "version": 99}'
        )
        with pytest.raises(ValueError, match="version"):
            ResultCache(str(root))

    def test_resolve_cache_accepts_all_spellings(self, tmp_path):
        assert resolve_cache(None) is None
        opened = ResultCache(str(tmp_path / "a"))
        assert resolve_cache(opened) is opened
        from_path = resolve_cache(str(tmp_path / "b"))
        assert isinstance(from_path, ResultCache)


class TestKeyDiscipline:
    def test_task_id_not_part_of_key(self, cache):
        assert cache.key_for(echo_spec("name-one", value=3)) == cache.key_for(
            echo_spec("totally-different", value=3)
        )

    def test_scheduling_knobs_not_part_of_key(self, cache):
        relaxed = TaskSpec(
            task_id="a",
            kind="function",
            target=f"{WORKERS}:echo",
            params={"value": 3},
            timeout_s=120.0,
            retries=9,
        )
        assert cache.key_for(echo_spec("a", value=3)) == cache.key_for(relaxed)

    def test_params_seed_and_sanitize_are_part_of_key(self, cache):
        base = echo_spec("a", value=3)
        keys = {
            cache.key_for(base),
            cache.key_for(echo_spec("a", value=4)),
            cache.key_for(
                TaskSpec(
                    task_id="a",
                    kind="function",
                    target=f"{WORKERS}:echo",
                    params={"value": 3},
                    seed=7,
                )
            ),
            cache.key_for(
                TaskSpec(
                    task_id="a",
                    kind="function",
                    target=f"{WORKERS}:echo",
                    params={"value": 3},
                    sanitize=True,
                )
            ),
        }
        assert len(keys) == 4


class TestHitIdentity:
    def test_roundtrip_is_bit_identical(self, cache):
        spec = echo_spec("original", value=42, tag="x")
        stored = execute_task(spec)
        assert cache.put(spec, stored)
        hit = cache.get(spec)
        assert hit.payload == stored.payload
        assert hit.payload_digest == stored.payload_digest
        assert hit.ok

    def test_hit_carries_the_requesting_task_id(self, cache):
        spec = echo_spec("first-label", value=1)
        cache.put(spec, execute_task(spec))
        relabelled = echo_spec("second-label", value=1)
        hit = cache.get(relabelled)
        assert hit is not None
        assert hit.task_id == "second-label"

    def test_miss_returns_none_and_counts(self, cache):
        assert cache.get(echo_spec("a", value=1)) is None
        assert cache.misses == 1
        assert cache.hits == 0

    def test_failed_results_are_never_cached(self, cache):
        spec = TaskSpec(
            task_id="boom",
            kind="function",
            target=f"{WORKERS}:explode",
            params={},
        )
        failed = execute_task(spec)
        assert not failed.ok
        assert not cache.put(spec, failed)
        assert cache.get(spec) is None

    def test_stats_shape(self, cache):
        spec = echo_spec("a", value=1)
        cache.put(spec, execute_task(spec))
        cache.get(spec)
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] > 0
        assert stats["quarantined"] == 0
        assert stats["session"] == {
            "hits": 1, "misses": 0, "puts": 1, "corrupt": 0,
        }


class TestPoolIntegration:
    def test_warm_run_executes_nothing(self, cache, tmp_path):
        log = tmp_path / "executions.log"
        specs = [logged_spec(f"t{i}", log, value=i) for i in range(3)]
        cold = run_tasks(specs, jobs=1, cache=cache)
        assert execution_count(log) == 3
        warm = run_tasks(specs, jobs=1, cache=cache)
        assert execution_count(log) == 3  # nothing re-executed
        assert [r.payload_digest for r in warm] == [
            r.payload_digest for r in cold
        ]
        assert [r.payload for r in warm] == [r.payload for r in cold]

    def test_relabelled_sweep_shares_entries(self, cache, tmp_path):
        log = tmp_path / "executions.log"
        run_tasks(
            [logged_spec(f"plan-a-{i}", log, value=i) for i in range(3)],
            jobs=1,
            cache=cache,
        )
        relabelled = [
            logged_spec(f"plan-b-{i}", log, value=i) for i in range(3)
        ]
        results = run_tasks(relabelled, jobs=1, cache=cache)
        assert execution_count(log) == 3
        assert [r.task_id for r in results] == [s.task_id for s in relabelled]

    def test_partial_cache_schedules_only_misses(self, cache, tmp_path):
        log = tmp_path / "executions.log"
        run_tasks([logged_spec("t0", log, value=0)], jobs=1, cache=cache)
        mixed = [logged_spec(f"t{i}", log, value=i) for i in range(3)]
        run_tasks(mixed, jobs=1, cache=cache)
        assert execution_count(log) == 3  # 1 cold + 2 misses


class TestJournalComposition:
    def test_journal_and_cache_never_double_execute(self, cache, tmp_path):
        log = tmp_path / "executions.log"
        journal_path = tmp_path / "j.jsonl"
        specs = [logged_spec(f"t{i}", log, value=i) for i in range(3)]
        with ResultJournal(journal_path, specs) as journal:
            run_tasks(specs, jobs=1, journal=journal, cache=cache)
        assert execution_count(log) == 3
        with ResultJournal(journal_path, specs) as journal:
            run_tasks(specs, jobs=1, journal=journal, cache=cache)
        assert execution_count(log) == 3

    def test_journal_hits_backfill_the_cache(self, cache, tmp_path):
        log = tmp_path / "executions.log"
        journal_path = tmp_path / "j.jsonl"
        specs = [logged_spec(f"t{i}", log, value=i) for i in range(2)]
        with ResultJournal(journal_path, specs) as journal:
            run_tasks(specs, jobs=1, journal=journal)  # no cache yet
        assert cache.stats()["entries"] == 0
        with ResultJournal(journal_path, specs) as journal:
            run_tasks(specs, jobs=1, journal=journal, cache=cache)
        assert execution_count(log) == 2  # journal replay, no re-run
        assert cache.stats()["entries"] == 2

    def test_cache_hits_are_journaled(self, cache, tmp_path):
        log = tmp_path / "executions.log"
        specs = [logged_spec(f"t{i}", log, value=i) for i in range(2)]
        run_tasks(specs, jobs=1, cache=cache)
        journal_path = tmp_path / "j.jsonl"
        with ResultJournal(journal_path, specs) as journal:
            run_tasks(specs, jobs=1, journal=journal, cache=cache)
        assert execution_count(log) == 2
        with ResultJournal(journal_path, specs) as journal:
            assert set(journal.completed) == {"t0", "t1"}

    def test_results_accessor_preserves_order(self, tmp_path):
        journal_path = tmp_path / "j.jsonl"
        specs = [echo_spec(f"t{i}", value=i) for i in range(3)]
        with ResultJournal(journal_path, specs) as journal:
            run_tasks(specs, jobs=1, journal=journal)
            recorded = journal.results()
        assert [r.task_id for r in recorded] == ["t0", "t1", "t2"]
        assert all(r.ok for r in recorded)


class TestDivergence:
    def test_ensure_accepts_identical_result(self, cache):
        spec = echo_spec("a", value=1)
        result = execute_task(spec)
        cache.put(spec, result)
        cache.ensure(spec, result)  # no raise, no duplicate
        assert cache.stats()["entries"] == 1

    def test_ensure_writes_when_absent(self, cache):
        spec = echo_spec("a", value=1)
        cache.ensure(spec, execute_task(spec))
        assert cache.stats()["entries"] == 1

    def test_divergent_result_is_a_hard_error(self, cache):
        spec = echo_spec("a", value=1)
        cache.put(spec, execute_task(spec))
        impostor = execute_task(echo_spec("a", value=2))
        with pytest.raises(CacheDivergenceError, match="divergence"):
            cache.ensure(spec, impostor)


def entry_paths(cache):
    paths = []
    for shard in sorted(os.listdir(cache.objects_dir)):
        shard_dir = os.path.join(cache.objects_dir, shard)
        for name in sorted(os.listdir(shard_dir)):
            if name.endswith(".json"):
                paths.append(os.path.join(shard_dir, name))
    return paths


class TestCorruption:
    def populate(self, cache, count=2):
        specs = [echo_spec(f"t{i}", value=i) for i in range(count)]
        for spec in specs:
            cache.put(spec, execute_task(spec))
        return specs

    def test_truncated_entry_is_quarantined_miss(self, cache):
        specs = self.populate(cache)
        path = entry_paths(cache)[0]
        text = open(path, "r", encoding="utf-8").read()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text[: len(text) // 2])  # torn write
        hits = [cache.get(spec) for spec in specs]
        assert hits.count(None) == 1  # the torn one misses
        assert cache.corrupt == 1
        assert cache.stats()["quarantined"] == 1
        assert not os.path.exists(path)  # moved aside, not served

    def test_bit_flip_is_quarantined_miss(self, cache):
        specs = self.populate(cache, count=1)
        path = entry_paths(cache)[0]
        entry = json.loads(open(path, "r", encoding="utf-8").read())
        entry["record"]["payload"]["value"] = 999  # digest now stale
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(entry, handle)
        assert cache.get(specs[0]) is None
        assert cache.stats()["quarantined"] == 1

    def test_verify_reports_corruption_without_raising(self, cache):
        self.populate(cache, count=3)
        path = entry_paths(cache)[1]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        report = cache.verify()
        assert report["checked"] == 3
        assert report["corrupt_quarantined"] == 1
        assert len(report["corrupt_keys"]) == 1
        # A second verify over the cleaned store is clean.
        assert cache.verify()["corrupt_quarantined"] == 0

    def test_verify_recompute_confirms_clean_entries(self, cache):
        self.populate(cache, count=2)
        report = cache.verify(recompute=2)
        assert report["recomputed"] == 2
        assert report["corrupt_quarantined"] == 0

    def test_verify_recompute_catches_consistent_lies(self, cache):
        # An entry whose seal is internally consistent but whose payload
        # does not match what the spec actually computes: only
        # recomputation can catch it, and it must be a hard error.
        from repro.parallel.cache import _entry_digest
        from repro.parallel.task import payload_digest

        self.populate(cache, count=1)
        path = entry_paths(cache)[0]
        entry = json.loads(open(path, "r", encoding="utf-8").read())
        entry["record"]["payload"]["value"] = 999
        entry["record"]["payload_digest"] = payload_digest(
            entry["record"]["payload"]
        )
        entry["digest"] = _entry_digest(
            entry["key"], entry["spec"], entry["record"]
        )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(entry, handle, sort_keys=True)
        assert cache.verify()["corrupt_quarantined"] == 0  # seal passes
        with pytest.raises(CacheDivergenceError, match="recomputation"):
            cache.verify(recompute=1)


    def test_non_utf8_byte_is_quarantined_miss(self, cache):
        specs = self.populate(cache)
        path = entry_paths(cache)[0]
        raw = bytearray(open(path, "rb").read())
        raw[len(raw) // 2] = 0xFF  # never valid in UTF-8
        with open(path, "wb") as handle:
            handle.write(bytes(raw))
        hits = [cache.get(spec) for spec in specs]
        assert hits.count(None) == 1
        assert cache.corrupt == 1
        assert cache.stats()["quarantined"] == 1
        assert not os.path.exists(path)

    def test_verify_and_warm_run_survive_a_non_utf8_byte(self, cache):
        specs = self.populate(cache, count=3)
        path = entry_paths(cache)[1]
        raw = bytearray(open(path, "rb").read())
        raw[0] = 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(raw))
        report = cache.verify()
        assert report["checked"] == 3
        assert report["corrupt_quarantined"] == 1
        # A warm run over a store with a bad entry recomputes it.
        self.populate(cache, count=3)
        path = entry_paths(cache)[2]
        raw = bytearray(open(path, "rb").read())
        raw[-2] = 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(raw))
        results = run_tasks(specs, jobs=1, cache=cache)
        assert [r.payload_digest for r in results] == [
            execute_task(spec).payload_digest for spec in specs
        ]
        assert cache.corrupt == 2

    def test_forged_nan_payload_is_quarantined_miss(self, cache):
        # A consistent seal over a payload carrying a NaN token: a put
        # never writes one (canonicalisation turns it into a marker), so
        # the entry is forged, and a read must not serve it.
        from repro.parallel.cache import _entry_digest
        from repro.parallel.task import payload_digest

        specs = self.populate(cache, count=1)
        path = entry_paths(cache)[0]
        entry = json.loads(open(path, "r", encoding="utf-8").read())
        entry["record"]["payload"]["value"] = float("nan")
        entry["record"]["payload_digest"] = payload_digest(
            entry["record"]["payload"]
        )
        entry["digest"] = _entry_digest(
            entry["key"], entry["spec"], entry["record"]
        )
        text = json.dumps(entry, sort_keys=True)
        assert "NaN" in text
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        assert cache.get(specs[0]) is None
        assert cache.corrupt == 1
        assert cache.stats()["quarantined"] == 1

    def test_fancy_payloads_survive_the_round_trip(self, cache):
        # Payloads are stored canonical and hashed as read: numpy values,
        # tuples, non-finite floats and int keys must all hit.
        import numpy as np

        from repro.parallel.task import TaskResult, payload_digest

        payload = {
            "grid": np.arange(6, dtype=np.int16).reshape(2, 3),
            "ratios": (np.float32(0.1), float("nan"), -0.0, float("-inf")),
            "by_station": {3: "three", 7: np.bool_(True)},
            "nested": [{"x": np.float64(2.5)}, None],
        }
        spec = echo_spec("fancy", value=1)
        result = TaskResult(
            task_id="fancy",
            ok=True,
            payload=payload,
            payload_digest=payload_digest(payload),
        )
        assert cache.put(spec, result)
        hit = cache.get(spec)
        assert hit is not None
        assert hit.payload_digest == result.payload_digest
        assert payload_digest(hit.payload) == result.payload_digest
        assert cache.corrupt == 0


class TestConcurrency:
    def test_racing_writers_leave_one_valid_entry(self, tmp_path):
        # Four worker processes each open the same cache and repeatedly
        # put the same key: the atomic tmp+rename protocol must leave a
        # single complete, verifiable entry whatever the interleaving.
        root = str(tmp_path / "cache")
        ResultCache(root)  # pre-create so workers race only on entries
        racers = [
            TaskSpec(
                task_id=f"racer-{i}",
                kind="function",
                target=f"{WORKERS}:cache_put_echo",
                params={"cache_root": root, "value": 5},
            )
            for i in range(4)
        ]
        outcomes = run_tasks(racers, jobs=4)
        assert all(r.ok for r in outcomes), [r.error for r in outcomes]
        cache = ResultCache(root)
        raced = TaskSpec(
            task_id="raced",
            kind="function",
            target=f"{WORKERS}:echo",
            params={"value": 5},
        )
        hit = cache.get(raced)
        assert hit is not None
        assert hit.payload == {"value": 5}
        assert cache.corrupt == 0
        assert cache.verify()["corrupt_quarantined"] == 0


class TestGc:
    def populate(self, cache, count=3):
        for i in range(count):
            spec = echo_spec(f"t{i}", value=i)
            cache.put(spec, execute_task(spec))

    def test_max_age_zero_evicts_everything(self, cache):
        self.populate(cache)
        report = cache.gc(max_age_s=0.0)
        assert report["evicted"] == 3
        assert report["remaining_entries"] == 0
        assert report["freed_bytes"] > 0

    def test_max_bytes_keeps_newest(self, cache):
        self.populate(cache)
        paths = entry_paths(cache)
        # Make mtimes strictly ordered so "oldest first" is well-defined.
        for index, path in enumerate(paths):
            os.utime(path, (1_000_000 + index, 1_000_000 + index))
        keep = os.stat(paths[-1]).st_size
        report = cache.gc(max_bytes=keep)
        assert report["remaining_entries"] == 1
        assert os.path.exists(paths[-1])

    def test_generous_limits_evict_nothing(self, cache):
        self.populate(cache)
        report = cache.gc(max_bytes=10**9, max_age_s=10**9)
        assert report["evicted"] == 0
        assert report["remaining_entries"] == 3

    def test_gc_purges_quarantine(self, cache):
        self.populate(cache, count=1)
        path = entry_paths(cache)[0]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{torn")
        cache.verify()  # quarantines it
        assert cache.stats()["quarantined"] == 1
        report = cache.gc(max_age_s=10**9)
        assert report["quarantine_purged"] == 1
        assert cache.stats()["quarantined"] == 0

    def test_negative_limits_refused(self, cache):
        with pytest.raises(ValueError):
            cache.gc(max_bytes=-1)
        with pytest.raises(ValueError):
            cache.gc(max_age_s=-1.0)
