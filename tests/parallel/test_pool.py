"""The worker pool: spec-order results, crash capture, timeouts, retry.

Cross-process determinism is the load-bearing property: every pooled
test compares against inline execution of the same specs.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.parallel.pool import run_tasks
from repro.parallel.task import TaskSpec, results_digest

WORKERS = "tests.parallel.workers"

#: A helper process that fans two pid-publishing sleepers out over a
#: two-worker pool; the test SIGKILLs it mid-task.
ORPHAN_SCRIPT = """
import sys
from repro.parallel.pool import run_tasks
from repro.parallel.task import TaskSpec
pid_dir = sys.argv[1]
run_tasks(
    [
        TaskSpec(
            task_id=name,
            kind="function",
            target="tests.parallel.workers:pid_then_sleep",
            params={"pid_dir": pid_dir, "name": name},
        )
        for name in ("first", "second")
    ],
    jobs=2,
)
"""


def running(pid):
    """Whether ``pid`` is a live, non-zombie process (an orphan that
    exited may wait as a zombie for a reaper that never comes)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state != "Z"


def echo_spec(task_id, **params):
    return TaskSpec(
        task_id=task_id,
        kind="function",
        target=f"{WORKERS}:echo",
        params=params,
    )


class TestInlinePath:
    def test_empty_task_list(self):
        assert run_tasks([]) == []

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            run_tasks([echo_spec("same"), echo_spec("same")], jobs=1)

    def test_results_in_spec_order(self):
        specs = [echo_spec(f"t{i}", i=i) for i in range(5)]
        results = run_tasks(specs, jobs=1)
        assert [r.task_id for r in results] == [s.task_id for s in specs]
        assert [r.payload["i"] for r in results] == list(range(5))

    def test_progress_callback(self):
        seen = []
        run_tasks(
            [echo_spec("a"), echo_spec("b")],
            jobs=1,
            progress=lambda done, total, result: seen.append(
                (done, total, result.task_id)
            ),
        )
        assert seen == [(1, 2, "a"), (2, 2, "b")]


class TestPooledPath:
    def test_pooled_matches_inline_bit_for_bit(self):
        specs = [echo_spec(f"t{i}", i=i, x=i * 0.5) for i in range(6)]
        inline = run_tasks(specs, jobs=1)
        pooled = run_tasks(specs, jobs=3)
        assert [r.task_id for r in pooled] == [r.task_id for r in inline]
        assert [r.payload for r in pooled] == [r.payload for r in inline]
        assert results_digest(pooled) == results_digest(inline)

    def test_crash_yields_structured_error_not_a_hang(self):
        specs = [
            echo_spec("before", v=1),
            TaskSpec(
                task_id="crasher",
                kind="function",
                target=f"{WORKERS}:crash",
                retries=1,
            ),
            echo_spec("after", v=2),
        ]
        results = run_tasks(specs, jobs=2)
        assert [r.task_id for r in results] == ["before", "crasher", "after"]
        crashed = results[1]
        assert not crashed.ok
        assert "died" in crashed.error
        # retries=1 means two total attempts before giving up.
        assert crashed.attempts == 2
        assert results[0].ok and results[2].ok

    def test_retries_exhausted_yields_structured_error(self):
        spec = TaskSpec(
            task_id="crasher",
            kind="function",
            target=f"{WORKERS}:crash",
            params={},
            retries=1,
        )
        results = run_tasks([spec, echo_spec("fine", value=1)], jobs=2)
        crashed = results[0]
        assert not crashed.ok
        assert "died" in crashed.error
        assert crashed.attempts == 2  # first try + one retry
        assert results[1].ok

    def test_timeout_yields_structured_error(self):
        specs = [
            TaskSpec(
                task_id="sleeper",
                kind="function",
                target=f"{WORKERS}:sleep_forever",
                timeout_s=0.75,
                retries=0,
            ),
            echo_spec("quick", v=3),
        ]
        results = run_tasks(specs, jobs=2)
        slept = results[0]
        assert not slept.ok
        assert "timed out" in slept.error
        assert slept.attempts == 1
        assert results[1].ok

    def test_deterministic_exception_is_not_retried(self):
        spec = TaskSpec(
            task_id="boom",
            kind="function",
            target=f"{WORKERS}:explode",
            retries=3,
        )
        (result,) = run_tasks([spec, echo_spec("pad")], jobs=2)[:1]
        assert not result.ok
        assert "ValueError: boom" in result.error
        # Captured by execute_task inside the worker: one attempt only.
        assert result.attempts == 1


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process state from /proc")
class TestOrphanedWorkers:
    def test_workers_exit_when_the_parent_is_killed(self, tmp_path):
        pid_paths = [tmp_path / "first", tmp_path / "second"]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        helper = subprocess.Popen(
            [sys.executable, "-c", ORPHAN_SCRIPT, str(tmp_path)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60.0
            while not all(path.exists() for path in pid_paths):
                assert helper.poll() is None, "the helper exited early"
                assert time.monotonic() < deadline, "workers never started"
                time.sleep(0.05)
            pids = [int(path.read_text()) for path in pid_paths]
            assert all(running(pid) for pid in pids)
            helper.send_signal(signal.SIGKILL)
            helper.wait(timeout=10.0)
            deadline = time.monotonic() + 10.0
            while any(running(pid) for pid in pids) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not [pid for pid in pids if running(pid)]
        finally:
            if helper.poll() is None:
                helper.kill()
                helper.wait(timeout=10.0)
            for path in pid_paths:
                if path.exists() and running(pid := int(path.read_text())):
                    os.kill(pid, signal.SIGKILL)
