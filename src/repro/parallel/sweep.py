"""The sweep engine: fan out sweep points × replication seeds.

A sweep decomposes one registry experiment along its natural sweep
parameter (the sequence-valued argument its ``run`` already iterates —
offered loads for T7, receive fractions for T2, ...) into one task per
``(point, replication)``.  Replication seeds come from the seed tree
(:mod:`repro.parallel.seedtree`) keyed by ``(experiment id, point
index, replication index)``, so the task list — and therefore every
result — is a pure function of the plan, independent of worker count.

Aggregation merges per-task report rows in task order and computes
mean/stddev/min/max replication summaries per numeric column.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple

from repro.parallel.aggregate import failed_results, summarize_rows
from repro.parallel.pool import run_tasks
from repro.parallel.seedtree import derive_seed
from repro.parallel.task import (
    TaskResult,
    TaskSpec,
    canonicalize,
    payload_to_report,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.parallel.cache import ResultCache

__all__ = [
    "SWEEPABLE_PARAMS",
    "SweepPlan",
    "SweepResult",
    "sweep_parameter",
    "default_sweep_values",
    "build_sweep_tasks",
    "run_sweep",
]

#: The natural sweep parameter per experiment (the sequence its run()
#: iterates).  Experiments not listed can still be swept by naming a
#: sequence-valued parameter explicitly.
SWEEPABLE_PARAMS: Dict[str, str] = {
    "F1": "mc_station_counts",
    "T2": "receive_fractions",
    "T4": "station_counts",
    "T5": "station_counts",
    "T6": "density_factors",
    "T7": "loads_packets_per_slot",
    "T8": "station_counts",
    "T12": "churn_rates",
    "T13": "churn_rates",
    "T14": "station_counts",
    "T9": "reach_factors",
    "A1": "rendezvous_counts",
    "A2": "channel_counts",
    "A3": "station_counts",
    "A7": "receive_fractions",
}


def _run_signature(experiment_id: str) -> inspect.Signature:
    from repro.experiments import get_experiment

    return inspect.signature(get_experiment(experiment_id))


def sweep_parameter(experiment_id: str, parameter: Optional[str] = None) -> str:
    """The sweep parameter for an experiment (validated against its
    signature); defaults to the :data:`SWEEPABLE_PARAMS` entry."""
    signature = _run_signature(experiment_id)
    if parameter is None:
        parameter = SWEEPABLE_PARAMS.get(experiment_id)
        if parameter is None:
            candidates = [
                name
                for name, value in signature.parameters.items()
                if isinstance(value.default, (tuple, list))
            ]
            if len(candidates) != 1:
                raise ValueError(
                    f"experiment {experiment_id} has no registered sweep "
                    f"parameter; name one explicitly "
                    f"(sequence-valued candidates: {candidates or 'none'})"
                )
            parameter = candidates[0]
    if parameter not in signature.parameters:
        raise ValueError(
            f"experiment {experiment_id} has no parameter {parameter!r}"
        )
    return parameter


def default_sweep_values(experiment_id: str, parameter: str) -> Tuple[Any, ...]:
    """The experiment's own default value sequence for ``parameter``."""
    default = _run_signature(experiment_id).parameters[parameter].default
    if not isinstance(default, (tuple, list)):
        raise ValueError(
            f"parameter {parameter!r} of {experiment_id} has no sequence "
            "default; pass explicit values"
        )
    return tuple(default)


@dataclass(frozen=True)
class SweepPlan:
    """A fully specified sweep: experiment, points, replications, seed.

    Attributes:
        experiment_id: registry id (e.g. ``"T7"``).
        parameter: the sequence parameter swept one element at a time.
        values: the sweep points.
        replications: independent seeded runs per point.
        root_seed: seed-tree root; per-task seeds derive from it.
        base_params: extra keyword overrides applied to every task.
        timeout_s: per-task timeout (pool-enforced).
        retries: crash/timeout retries per task.
    """

    experiment_id: str
    parameter: str
    values: Tuple[Any, ...]
    replications: int = 1
    root_seed: int = 0
    base_params: Mapping[str, Any] = field(default_factory=dict)
    timeout_s: Optional[float] = None
    retries: int = 1

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("a sweep needs at least one value")
        # Task ids name each value by its repr, so a repeat would
        # collide in the pool after the cache is opened.
        labels = [repr(value) for value in self.values]
        if len(set(labels)) < len(labels):
            raise ValueError(f"sweep values repeat: {', '.join(labels)}")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")


def build_sweep_tasks(plan: SweepPlan) -> List[TaskSpec]:
    """The deterministic task list of a sweep plan.

    Task ids encode ``experiment[parameter=value]#rN``; seeds derive
    from ``derive_seed(root_seed, experiment_id, point_index,
    replication_index)`` — worker count never enters.  A
    ``base_params`` key the experiment does not take is a
    ``ValueError`` that lists the parameters it does take.
    """
    from repro.experiments.runner import _refuse_unknown_params

    _refuse_unknown_params(plan.experiment_id, plan.base_params)
    parameters = _run_signature(plan.experiment_id).parameters
    seeded = "seed" in parameters
    if plan.replications > 1 and not seeded:
        raise ValueError(
            f"experiment {plan.experiment_id} takes no seed parameter; "
            "replications would repeat the identical run"
        )
    # Sequence-valued parameters (the usual sweep axis) receive each
    # point as a one-element tuple; scalar knobs (fade coherence, ARQ
    # retry budget, ...) are passed through as-is, so any numeric
    # run() parameter is sweepable by naming it with explicit values.
    wrap = isinstance(parameters[plan.parameter].default, (tuple, list))
    specs: List[TaskSpec] = []
    for value_index, value in enumerate(plan.values):
        for replication in range(plan.replications):
            params = dict(plan.base_params)
            params[plan.parameter] = (value,) if wrap else value
            specs.append(
                TaskSpec(
                    task_id=(
                        f"{plan.experiment_id}"
                        f"[{plan.parameter}={value!r}]#r{replication}"
                    ),
                    kind="experiment",
                    target=plan.experiment_id,
                    params=params,
                    seed=(
                        derive_seed(
                            plan.root_seed,
                            plan.experiment_id,
                            value_index,
                            replication,
                        )
                        if seeded
                        else None
                    ),
                    timeout_s=plan.timeout_s,
                    retries=plan.retries,
                )
            )
    return specs


@dataclass
class SweepResult:
    """Everything a sweep produced, in deterministic task order."""

    plan: SweepPlan
    specs: List[TaskSpec]
    results: List[TaskResult]

    @property
    def errors(self) -> Dict[str, str]:
        """Failed task ids mapped to their error strings."""
        return failed_results(self.results)

    def _tasks_by_point(self) -> List[List[TaskResult]]:
        """Results grouped by sweep point, replications in order."""
        replications = self.plan.replications
        return [
            list(self.results[start : start + replications])
            for start in range(0, len(self.results), replications)
        ]

    def rows(self) -> List[Tuple[Any, ...]]:
        """Merged raw report rows: ``(value, replication, *row)``."""
        merged: List[Tuple[Any, ...]] = []
        for value, group in zip(self.plan.values, self._tasks_by_point()):
            for replication, result in enumerate(group):
                if not result.ok or result.payload is None:
                    continue
                for row in result.payload["rows"]:
                    merged.append((value, replication, *row))
        return merged

    def columns(self) -> Tuple[str, ...]:
        """Column names of :meth:`rows`."""
        for result in self.results:
            if result.ok and result.payload is not None:
                inner = tuple(result.payload["columns"])
                return (self.plan.parameter, "replication", *inner)
        return (self.plan.parameter, "replication")

    def summaries(self) -> List[Tuple[Any, ...]]:
        """Replication summaries: ``(value, row label, column, count,
        mean, stddev, min, max)`` per numeric column."""
        summary: List[Tuple[Any, ...]] = []
        for value, group in zip(self.plan.values, self._tasks_by_point()):
            reports = [
                payload_to_report(result.payload)
                for result in group
                if result.ok and result.payload is not None
            ]
            if not reports:
                continue
            rows_per_replication = [report.rows for report in reports]
            for entry in summarize_rows(
                tuple(reports[0].columns), rows_per_replication
            ):
                summary.append((value, *entry))
        return summary

    def to_payload(self) -> Dict[str, Any]:
        """Canonical, JSON-friendly dump (the comparison artifact)."""
        return {
            "experiment_id": self.plan.experiment_id,
            "parameter": self.plan.parameter,
            "values": list(self.plan.values),
            "replications": self.plan.replications,
            "root_seed": self.plan.root_seed,
            "tasks": [
                {
                    "task_id": result.task_id,
                    "ok": result.ok,
                    "error": result.error,
                    "payload": canonicalize(result.payload),
                    "payload_digest": result.payload_digest,
                }
                for result in self.results
            ],
        }

    def format(self) -> str:
        """Aligned text tables: raw rows, then replication summaries."""
        from repro.experiments.runner import format_table

        lines = [
            f"== sweep {self.plan.experiment_id} over {self.plan.parameter} "
            f"({len(self.plan.values)} points x {self.plan.replications} "
            f"replications, root seed {self.plan.root_seed}) =="
        ]
        rows = self.rows()
        lines.extend(
            format_table(self.columns(), rows) if rows else ["  (no rows)"]
        )
        summaries = self.summaries()
        if self.plan.replications > 1 and summaries:
            lines.append("")
            lines.append("-- replication summaries --")
            lines.extend(
                format_table(
                    (
                        self.plan.parameter,
                        "row",
                        "metric",
                        "n",
                        "mean",
                        "stddev",
                        "min",
                        "max",
                    ),
                    summaries,
                )
            )
        for task_id, error in self.errors.items():
            first_line = error.splitlines()[0] if error else "unknown failure"
            lines.append(f"  ERROR [{task_id}]: {first_line}")
        return "\n".join(lines)


def run_sweep(
    plan: SweepPlan,
    jobs: int = 1,
    cache: Optional["ResultCache"] = None,
) -> SweepResult:
    """Build the task list, execute it, and wrap the ordered results.

    With ``cache``, points whose work is already stored return instantly
    and only misses are scheduled — overlapping sweeps share one warm
    store.  Each fresh result is stored as it completes, so rerunning a
    killed sweep over the same cache resumes it with final digests
    bit-identical to an uninterrupted run.
    """
    specs = build_sweep_tasks(plan)
    results = run_tasks(specs, jobs=jobs, cache=cache)
    return SweepResult(plan=plan, specs=specs, results=results)
