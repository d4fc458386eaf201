"""Spawn-safe multiprocess fan-out with timeouts, crash capture, retry.

This module is the single sanctioned multiprocessing wrapper (REP008)
and times *host* execution only — wall-clock values bound or observe
completed runs, never feed back into simulation state.

:func:`run_tasks` executes a list of :class:`~repro.parallel.task.TaskSpec`
over a pool of worker processes and returns one
:class:`~repro.parallel.task.TaskResult` per spec, **in spec order**,
whatever the completion order was.  The contract:

* **Bit-exact determinism.**  Workers run the same
  :func:`~repro.parallel.task.execute_task` as inline execution, on
  specs whose seeds were derived *before* scheduling (the seed tree),
  so payloads are independent of worker count and scheduling order.
  ``run_tasks(specs, jobs=4)`` equals ``run_tasks(specs, jobs=1)``
  row for row.
* **No silent losses.**  A worker that dies (segfault, ``os._exit``,
  OOM kill) or exceeds its task's ``timeout_s`` yields a structured
  ``TaskResult(ok=False, error=...)`` after bounded retry — never a
  hung parent or a missing row.  Deterministic Python exceptions are
  captured by ``execute_task`` itself and are *not* retried.
* **Spawn start method.**  Workers are fresh interpreters (no
  inherited module state, fork-unsafe libraries, or copied RNG state),
  which is also the only portable choice.

This module is exempt from the REP002 wall-clock lint for one purpose
only: enforcing per-task timeouts on *host* execution.  No wall-clock
value ever reaches simulation state — a timed-out task is discarded
wholesale, so replay determinism is untouched (same argument as the
perf harness).  REP008 makes this file the single sanctioned home of
``multiprocessing`` under ``src/repro``.
"""

from __future__ import annotations

import multiprocessing  # reprolint: disable=REP008
import os
import threading
import time
from collections import deque
from multiprocessing.connection import (  # reprolint: disable=REP008
    Connection,
    wait as _connection_wait,
)
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.parallel.task import TaskResult, TaskSpec, execute_task

if TYPE_CHECKING:  # pragma: no cover
    from repro.parallel.cache import ResultCache

__all__ = ["ProgressCallback", "run_tasks"]

#: ``progress(done, total, result)`` after each task completes.
ProgressCallback = Callable[[int, int, TaskResult], None]

#: Upper bound on one poll interval, so worker deaths that somehow do
#: not wake the connection wait are still noticed promptly.
_POLL_CAP_S = 0.25

#: How long to wait for a worker to exit after its shutdown sentinel.
_JOIN_GRACE_S = 2.0


def _exit_with_parent() -> None:
    """Exit at once when the parent process dies, mid-task or idle.

    A SIGKILLed parent closes no pipe the worker reads while it runs a
    task, so without this watch an orphan would run its task to the end
    and notice only at ``conn.send``.
    """
    parent = multiprocessing.parent_process()
    if parent is None:
        return

    def watch() -> None:
        _connection_wait([parent.sentinel])
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def _worker_main(conn: Connection) -> None:
    """Worker loop: receive a spec, execute, send the result back.

    Runs in a spawned interpreter; exits on the ``None`` sentinel or a
    closed pipe, and at once if the parent dies.  Everything
    task-related is already exception-safe via ``execute_task``.
    """
    _exit_with_parent()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        index, spec = message
        result = execute_task(spec)
        try:
            conn.send((index, result))
        except (BrokenPipeError, OSError):
            break  # the parent is gone (killed); exit quietly
    conn.close()


class _Worker:
    """One spawned worker process and its duplex pipe."""

    def __init__(self, context) -> None:
        self.conn, child_conn = context.Pipe(duplex=True)
        self.process = context.Process(
            target=_worker_main, args=(child_conn,), daemon=True
        )
        self.process.start()
        child_conn.close()
        self.task_index: Optional[int] = None
        self.deadline: Optional[float] = None

    def assign(self, index: int, spec: TaskSpec) -> None:
        self.task_index = index
        if spec.timeout_s is not None:
            self.deadline = time.monotonic() + spec.timeout_s  # reprolint: disable=REP002
        else:
            self.deadline = None
        self.conn.send((index, spec))

    def clear(self) -> None:
        self.task_index = None
        self.deadline = None

    def shutdown(self) -> None:
        """Best-effort graceful stop, then force."""
        try:
            self.conn.send(None)
        except (OSError, ValueError, BrokenPipeError):
            pass
        self.process.join(timeout=_JOIN_GRACE_S)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=_JOIN_GRACE_S)
        try:
            self.conn.close()
        except OSError:
            pass

    def kill(self) -> None:
        """Hard stop (timeout/crash path)."""
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=_JOIN_GRACE_S)
        try:
            self.conn.close()
        except OSError:
            pass


def run_tasks(
    specs: Sequence[TaskSpec],
    jobs: int = 1,
    progress: Optional[ProgressCallback] = None,
    cache: Optional["ResultCache"] = None,
) -> List[TaskResult]:
    """Execute tasks, returning one result per spec in spec order.

    Args:
        specs: the tasks; ``task_id`` values must be unique.
        jobs: worker processes.  ``jobs <= 1`` executes inline in this
            process (same code path per task; no timeout enforcement).
        progress: optional per-completion callback.
        cache: persistent content-addressed result store.  Specs whose
            work is already cached return instantly (bit-identical by
            the key discipline) and are reported through ``progress``
            first, in spec order; only misses are scheduled.  Each fresh
            completion is written back as it lands, so rerunning a
            killed run over the same cache resumes where it stopped,
            with bit-identical final results.

    Pooled execution is bit-identical to inline execution: only wall
    clock and the ``attempts`` counter of crashed-and-retried tasks can
    differ.
    """
    specs = list(specs)
    seen = set()
    for spec in specs:
        if spec.task_id in seen:
            raise ValueError(f"duplicate task_id {spec.task_id!r}")
        seen.add(spec.task_id)
    total = len(specs)
    if total == 0:
        return []

    reused: Dict[int, TaskResult] = {}
    if cache is not None:
        for index, spec in enumerate(specs):
            hit = cache.get(spec)
            if hit is not None:
                reused[index] = hit
    done = 0
    if progress is not None:
        for hit in reused.values():  # filled in spec order
            done += 1
            progress(done, total, hit)
    remaining = [
        (index, spec) for index, spec in enumerate(specs) if index not in reused
    ]
    if not remaining:
        return [reused[index] for index in range(total)]

    spec_by_id = {spec.task_id: spec for spec in specs}

    def on_fresh(result: TaskResult) -> None:
        nonlocal done
        if cache is not None:
            cache.ensure(spec_by_id[result.task_id], result)
        done += 1
        if progress is not None:
            progress(done, total, result)

    fresh_specs = [spec for _index, spec in remaining]
    if jobs <= 1 or len(fresh_specs) == 1:
        fresh: List[TaskResult] = []
        for spec in fresh_specs:
            result = execute_task(spec)
            fresh.append(result)
            on_fresh(result)
    else:
        fresh = _run_pooled(fresh_specs, min(jobs, len(fresh_specs)), on_fresh)
    for (index, _spec), result in zip(remaining, fresh):
        reused[index] = result
    return [reused[index] for index in range(total)]


def _run_pooled(
    specs: List[TaskSpec],
    jobs: int,
    completion: Optional[Callable[[TaskResult], None]],
) -> List[TaskResult]:
    context = multiprocessing.get_context("spawn")
    total = len(specs)
    results: Dict[int, TaskResult] = {}
    attempts = [0] * total
    pending = deque(range(total))
    workers: List[_Worker] = []

    def record(index: int, result: TaskResult) -> None:
        result.attempts = attempts[index]
        results[index] = result
        if completion is not None:
            completion(result)

    def fail_or_retry(index: int, reason: str) -> None:
        spec = specs[index]
        if attempts[index] <= spec.retries:
            pending.append(index)
        else:
            record(
                index,
                TaskResult(task_id=spec.task_id, ok=False, error=reason),
            )

    try:
        while len(results) < total:
            # Keep exactly as many live workers as there is work for.
            live = [w for w in workers if w.process.is_alive()]
            wanted = min(jobs, len(pending) + sum(
                1 for w in live if w.task_index is not None
            ))
            while len(live) < wanted:
                worker = _Worker(context)
                workers.append(worker)
                live.append(worker)
            for worker in live:
                if worker.task_index is None and pending:
                    index = pending.popleft()
                    attempts[index] += 1
                    worker.assign(index, specs[index])

            busy = [w for w in live if w.task_index is not None]
            if not busy:
                continue  # everything pending was just assigned above

            timeout = _POLL_CAP_S
            reference = time.monotonic()  # reprolint: disable=REP002
            for worker in busy:
                if worker.deadline is not None:
                    timeout = min(timeout, max(worker.deadline - reference, 0.0))
            ready = _connection_wait([w.conn for w in busy], timeout=timeout)

            for worker in busy:
                if worker.conn in ready:
                    index = worker.task_index
                    assert index is not None
                    try:
                        received_index, result = worker.conn.recv()
                    except (EOFError, OSError):
                        # The worker died mid-task.
                        worker.clear()
                        worker.kill()
                        workers.remove(worker)
                        fail_or_retry(
                            index,
                            f"worker process died while running task "
                            f"{specs[index].task_id!r} "
                            f"(attempt {attempts[index]})",
                        )
                        continue
                    worker.clear()
                    record(received_index, result)

            now = time.monotonic()  # reprolint: disable=REP002
            for worker in list(workers):
                index = worker.task_index
                if (
                    index is None
                    or worker.deadline is None
                    or now < worker.deadline
                    or not worker.process.is_alive()
                ):
                    continue
                # Deadline passed; prefer a result that just landed.
                if worker.conn.poll():
                    continue  # picked up on the next wait round
                worker.clear()
                worker.kill()
                workers.remove(worker)
                fail_or_retry(
                    index,
                    f"task {specs[index].task_id!r} timed out after "
                    f"{specs[index].timeout_s}s (attempt {attempts[index]})",
                )
    finally:
        for worker in workers:
            worker.shutdown()

    return [results[index] for index in range(total)]
