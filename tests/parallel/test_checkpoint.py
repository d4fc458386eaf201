"""Checkpoint journals and the pool watchdog: resume must be invisible.

The pinned property: a run killed mid-flight and resumed from its
journal finishes with rows, payload digests, and a final results
digest bit-identical to an uninterrupted run.
"""

import json

import pytest

from repro.parallel.checkpoint import (
    ResultJournal,
    plan_fingerprint,
    record_digest,
    record_to_result,
    result_to_record,
)
from repro.parallel.pool import run_tasks
from repro.parallel.task import TaskSpec, results_digest

WORKERS = "tests.parallel.workers"


def echo_spec(task_id, **params):
    return TaskSpec(
        task_id=task_id,
        kind="function",
        target=f"{WORKERS}:echo",
        params=params,
    )


def make_specs(count=4):
    return [echo_spec(f"task-{i}", value=i) for i in range(count)]


class TestPlanFingerprint:
    def test_same_plan_same_fingerprint(self):
        assert plan_fingerprint(make_specs()) == plan_fingerprint(make_specs())

    def test_param_change_changes_fingerprint(self):
        other = make_specs()
        other[0] = echo_spec("task-0", value=999)
        assert plan_fingerprint(make_specs()) != plan_fingerprint(other)

    def test_scheduling_knobs_do_not_change_fingerprint(self):
        relaxed = [
            TaskSpec(
                task_id=spec.task_id,
                kind=spec.kind,
                target=spec.target,
                params=spec.params,
                timeout_s=60.0,
                retries=5,
            )
            for spec in make_specs()
        ]
        assert plan_fingerprint(make_specs()) == plan_fingerprint(relaxed)


class TestRecordHelpers:
    """The shared (de)serialisers the journal and the result cache both
    build on: lossless, canonical, digest-stable."""

    def test_result_record_round_trip(self):
        original = run_tasks([echo_spec("t", value=7, tag="x")], jobs=1)[0]
        rebuilt = record_to_result(result_to_record(original))
        assert rebuilt == original

    def test_failed_result_round_trip(self):
        failed = run_tasks(
            [
                TaskSpec(
                    task_id="boom",
                    kind="function",
                    target=f"{WORKERS}:explode",
                    params={},
                )
            ],
            jobs=1,
        )[0]
        rebuilt = record_to_result(result_to_record(failed))
        assert not rebuilt.ok
        assert rebuilt.error == failed.error

    def test_record_digest_is_order_insensitive(self):
        assert record_digest({"b": 2, "a": 1}) == record_digest(
            {"a": 1, "b": 2}
        )
        assert record_digest({"a": 1}) != record_digest({"a": 2})

    def test_results_accessor_returns_recorded_order(self, tmp_path):
        specs = make_specs(3)
        with ResultJournal(tmp_path / "j.jsonl", specs) as journal:
            run_tasks(specs, jobs=1, journal=journal)
            recorded = journal.results()
        assert [r.task_id for r in recorded] == [s.task_id for s in specs]
        assert recorded == list(journal.completed.values())


class TestJournalRoundtrip:
    def test_fresh_journal_is_empty(self, tmp_path):
        with ResultJournal(tmp_path / "j.jsonl", make_specs()) as journal:
            assert journal.completed == {}

    def test_records_survive_reopen(self, tmp_path):
        path = tmp_path / "j.jsonl"
        specs = make_specs()
        with ResultJournal(path, specs) as journal:
            run_tasks(specs[:2] + specs[2:], jobs=1, journal=journal)
        with ResultJournal(path, specs) as journal:
            assert set(journal.completed) == {s.task_id for s in specs}

    def test_reused_results_are_digest_identical(self, tmp_path):
        path = tmp_path / "j.jsonl"
        specs = make_specs()
        baseline = run_tasks(specs, jobs=1)
        with ResultJournal(path, specs) as journal:
            run_tasks(specs, jobs=1, journal=journal)
        with ResultJournal(path, specs) as journal:
            resumed = run_tasks(specs, jobs=1, journal=journal)
        assert results_digest(resumed) == results_digest(baseline)
        assert [r.payload for r in resumed] == [r.payload for r in baseline]

    def test_rejects_foreign_result(self, tmp_path):
        with ResultJournal(tmp_path / "j.jsonl", make_specs()) as journal:
            stray = run_tasks([echo_spec("stranger")], jobs=1)[0]
            with pytest.raises(ValueError):
                journal.record(stray)


class TestJournalSafety:
    def test_plan_mismatch_refused(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with ResultJournal(path, make_specs()) as journal:
            run_tasks(make_specs(), jobs=1, journal=journal)
        other = make_specs()
        other[1] = echo_spec("task-1", value=-1)
        with pytest.raises(ValueError, match="different task plan"):
            ResultJournal(path, other)

    def test_non_journal_file_refused(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text("this is not json\n")
        with pytest.raises(ValueError, match="not a task journal"):
            ResultJournal(path, make_specs())

    def test_torn_tail_is_dropped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        specs = make_specs()
        with ResultJournal(path, specs) as journal:
            run_tasks(specs[:3], jobs=1, journal=journal)
        # Simulate a kill mid-write: a truncated final line.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"record": {"task_id": "task-3", "ok"')
        with ResultJournal(path, specs) as journal:
            assert set(journal.completed) == {"task-0", "task-1", "task-2"}
        # The reopen rewrote the file clean.
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 3
        for line in lines:
            json.loads(line)

    def test_tampered_record_is_dropped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        specs = make_specs()
        with ResultJournal(path, specs) as journal:
            run_tasks(specs, jobs=1, journal=journal)
        lines = path.read_text().splitlines()
        tampered = lines[2].replace('"value": 1', '"value": 7')
        assert tampered != lines[2]
        path.write_text("\n".join(lines[:2] + [tampered] + lines[3:]) + "\n")
        with ResultJournal(path, specs) as journal:
            # Verified prefix survives; the tampered record and its
            # successors are discarded.
            assert set(journal.completed) == {"task-0"}


    def test_non_utf8_line_ends_the_verified_prefix(self, tmp_path):
        path = tmp_path / "j.jsonl"
        specs = make_specs()
        with ResultJournal(path, specs) as journal:
            run_tasks(specs, jobs=1, journal=journal)
        lines = path.read_bytes().splitlines()
        damaged = bytearray(lines[3])
        damaged[len(damaged) // 2] = 0xFF  # never valid in UTF-8
        path.write_bytes(b"\n".join(lines[:3] + [bytes(damaged)] + lines[4:]) + b"\n")
        with ResultJournal(path, specs) as journal:
            assert set(journal.completed) == {"task-0", "task-1"}
        # The reopen rewrote the file clean, without the damaged line.
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 2

    def test_non_utf8_header_is_refused(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with ResultJournal(path, make_specs()) as journal:
            run_tasks(make_specs(), jobs=1, journal=journal)
        raw = bytearray(path.read_bytes())
        raw[1] = 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="not a task journal"):
            ResultJournal(path, make_specs())


class TestKillAndResume:
    def test_interrupted_run_resumes_to_identical_digest(self, tmp_path):
        path = tmp_path / "j.jsonl"
        specs = make_specs(6)
        baseline = run_tasks(specs, jobs=1)

        class Kill(Exception):
            pass

        def die_after_two(done, _total, _result):
            if done == 2:
                raise Kill()

        with pytest.raises(Kill):
            with ResultJournal(path, specs) as journal:
                run_tasks(specs, jobs=1, progress=die_after_two, journal=journal)

        with ResultJournal(path, specs) as journal:
            assert 0 < len(journal.completed) < len(specs)
            resumed = run_tasks(specs, jobs=1, journal=journal)
        assert results_digest(resumed) == results_digest(baseline)
        assert [r.payload_digest for r in resumed] == [
            r.payload_digest for r in baseline
        ]

    def test_resume_skips_completed_tasks(self, tmp_path):
        path = tmp_path / "j.jsonl"
        specs = make_specs(3)
        with ResultJournal(path, specs) as journal:
            run_tasks(specs, jobs=1, journal=journal)
        executed = []
        with ResultJournal(path, specs) as journal:
            run_tasks(
                specs,
                jobs=1,
                journal=journal,
                progress=lambda d, t, r: executed.append(r.task_id),
            )
        # All three reported through progress, but all came from the
        # journal (attempts stay as recorded, no re-execution).
        assert executed == ["task-0", "task-1", "task-2"]


class TestPoolRobustness:
    def test_retries_exhausted_yields_structured_error(self):
        spec = TaskSpec(
            task_id="crasher",
            kind="function",
            target=f"{WORKERS}:crash",
            params={},
            retries=1,
        )
        ok = echo_spec("fine", value=1)
        results = run_tasks([spec, ok], jobs=2)
        crashed = results[0]
        assert not crashed.ok
        assert "died" in crashed.error
        assert crashed.attempts == 2  # first try + one retry
        assert results[1].ok

    def test_watchdog_converts_hang_into_timeout(self):
        hung = TaskSpec(
            task_id="hang",
            kind="function",
            target=f"{WORKERS}:sleep_forever",
            params={},
            retries=0,
        )
        ok = echo_spec("fine", value=1)
        results = run_tasks([hung, ok], jobs=2, watchdog_s=1.0)
        assert not results[0].ok
        assert "watchdog" in results[0].error
        assert results[1].ok

    def test_spec_timeout_beats_watchdog_in_message(self):
        hung = TaskSpec(
            task_id="hang",
            kind="function",
            target=f"{WORKERS}:sleep_forever",
            params={},
            timeout_s=1.0,
            retries=0,
        )
        filler = echo_spec("fine", value=1)
        results = run_tasks([hung, filler], jobs=2, watchdog_s=30.0)
        assert not results[0].ok
        assert "timed out" in results[0].error

    def test_watchdog_must_be_positive(self):
        with pytest.raises(ValueError):
            run_tasks(make_specs(), jobs=2, watchdog_s=0.0)
