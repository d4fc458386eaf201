"""Parallel execution subsystem: multiprocess fan-out with bit-exact
determinism.

The pieces, bottom-up:

* :mod:`repro.parallel.seedtree` — :func:`derive_seed`, SplitMix64-style
  seed derivation: per-task seeds from a root seed and the task's path,
  independent of worker count and scheduling order.
* :mod:`repro.parallel.task` — :class:`TaskSpec` / :class:`TaskResult`:
  picklable descriptions of one seeded run and its structured outcome.
* :mod:`repro.parallel.pool` — spawn-safe worker pool with per-task
  timeout, crash capture, and bounded retry.
* :mod:`repro.parallel.aggregate` — deterministic merging and
  replication summaries (mean/stddev/min/max per metric).
* :mod:`repro.parallel.sweep` — sweep points × replication seeds for
  one experiment (``repro sweep``).
* :mod:`repro.parallel.suite` — the full F/T/A registry as one task
  list (``repro run-all``).
* :mod:`repro.parallel.cache` — persistent content-addressed result
  store keyed by spec digest (``repro sweep --cache``, ``repro cache``).

The invariant everything here preserves: for a fixed root seed, report
rows and replay digests are identical at any worker count — and, with
a cache, identical whether a row was computed or recalled.
"""

from repro.parallel.aggregate import MetricSummary, summarize, summarize_rows
from repro.parallel.cache import CacheDivergenceError, ResultCache
from repro.parallel.pool import run_tasks
from repro.parallel.seedtree import derive_seed
from repro.parallel.suite import QUICK_PARAMS, SuiteResult, run_suite
from repro.parallel.sweep import (
    SWEEPABLE_PARAMS,
    SweepPlan,
    SweepResult,
    run_sweep,
)
from repro.parallel.task import (
    TaskResult,
    TaskSpec,
    execute_task,
    payload_digest,
    results_digest,
    spec_digest,
)

__all__ = [
    "CacheDivergenceError",
    "MetricSummary",
    "QUICK_PARAMS",
    "ResultCache",
    "SWEEPABLE_PARAMS",
    "SuiteResult",
    "SweepPlan",
    "SweepResult",
    "TaskResult",
    "TaskSpec",
    "derive_seed",
    "execute_task",
    "payload_digest",
    "results_digest",
    "run_suite",
    "run_sweep",
    "run_tasks",
    "spec_digest",
    "summarize",
    "summarize_rows",
]
