"""Importable task targets for the pool tests.

These must live in a real module (not a test function) because
``kind="function"`` tasks resolve their target by dotted name inside
spawned workers, which re-import it from scratch.
"""

import os
import time


def echo(**kwargs):
    """Return the keyword arguments as the payload."""
    return dict(kwargs)


def double(value):
    """A non-mapping result, to exercise the ``{"value": ...}`` wrap."""
    return 2 * value


def seed_probe(seed=None, tag=""):
    """Report the seed the task layer injected."""
    return {"seed": seed, "tag": tag}


def explode(message="boom"):
    """A deterministic Python failure (captured, never retried)."""
    raise ValueError(message)


def crash(code=13):
    """Kill the worker process outright — no exception, no result."""
    os._exit(code)


def sleep_forever():
    """Outlive any per-task timeout the tests set."""
    while True:
        time.sleep(0.1)


def logged_echo(log_path=None, **kwargs):
    """Echo, appending one line per *execution* to ``log_path`` — the
    witness the cache tests count."""
    if log_path is not None:
        with open(log_path, "a", encoding="utf-8") as handle:
            handle.write(f"executed {sorted(kwargs.items())!r}\n")
    return dict(kwargs)


def cache_put_echo(cache_root, value):
    """Open the shared cache and store an echo result — run in several
    concurrent worker processes to race atomic same-key writes."""
    from repro.parallel.cache import ResultCache
    from repro.parallel.task import TaskSpec, execute_task

    cache = ResultCache(cache_root)
    spec = TaskSpec(
        task_id="raced",
        kind="function",
        target="tests.parallel.workers:echo",
        params={"value": value},
    )
    result = execute_task(spec)
    for _attempt in range(20):
        cache.put(spec, result)
    return {"stored": cache.key_for(spec)}


def pid_then_sleep(pid_dir, name, seconds=60.0):
    """Publish this worker's pid as ``pid_dir/name``, then sleep far
    longer than the orphan test waits for the worker to go."""
    path = os.path.join(pid_dir, name)
    with open(f"{path}.tmp", "w", encoding="utf-8") as handle:
        handle.write(str(os.getpid()))
    os.replace(f"{path}.tmp", path)
    time.sleep(seconds)
    return {"slept": seconds}
