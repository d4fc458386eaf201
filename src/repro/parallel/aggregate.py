"""Deterministic aggregation of task results.

Results arrive from the pool already re-ordered into task order, so
everything here is a pure function of the (ordered) result list —
aggregation output is independent of completion order and worker
count by construction.  Replication statistics use the same Welford
accumulator as the simulator's own stats, summarising each numeric
metric as mean/stddev/min/max over replication seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.parallel.task import TaskResult, payload_to_report
from repro.sim.stats import Welford

__all__ = [
    "MetricSummary",
    "summarize",
    "summarize_rows",
    "reports_in_order",
    "failed_results",
]


@dataclass(frozen=True)
class MetricSummary:
    """Replication statistics of one numeric metric.

    Attributes:
        count: number of replications summarised.
        mean: sample mean.
        stddev: sample standard deviation (0 for a single replication).
        minimum: smallest observation.
        maximum: largest observation.
    """

    count: int
    mean: float
    stddev: float
    minimum: float
    maximum: float


def summarize(values: Iterable[float]) -> MetricSummary:
    """Mean/stddev/min/max of a value sequence (Welford).

    A NaN in any replication makes all four statistics NaN: the
    metric is undefined there, and a summary of the other replications
    would read as if it were not.  The stddev of one replication is 0.
    """
    observed = [float(value) for value in values]
    if not observed:
        raise ValueError("cannot summarise an empty value sequence")
    if any(math.isnan(value) for value in observed):
        nan = math.nan
        return MetricSummary(len(observed), nan, nan, nan, nan)
    accumulator = Welford()
    accumulator.extend(observed)
    return MetricSummary(
        count=accumulator.count,
        mean=accumulator.mean,
        stddev=accumulator.stddev if accumulator.count > 1 else 0.0,
        minimum=accumulator.minimum,
        maximum=accumulator.maximum,
    )


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def summarize_rows(
    columns: Sequence[str],
    replicated_rows: Sequence[Sequence[Tuple[Any, ...]]],
) -> List[Tuple[Any, ...]]:
    """Summarise aligned report rows across replications.

    Args:
        columns: the report's column names.
        replicated_rows: one row list per replication; rows are aligned
            by position (every replication of an experiment emits the
            same row structure, only the measured values differ).

    Returns:
        Rows of ``(row label, column, count, mean, stddev, min, max)``
        — one per (row position, numeric column).  The row label is the
        first non-numeric cell of the row (e.g. the MAC name in T7), or
        the row index when every cell is numeric.  Non-numeric columns
        and ragged row positions are skipped.
    """
    if not replicated_rows:
        return []
    aligned = min(len(rows) for rows in replicated_rows)
    summary: List[Tuple[Any, ...]] = []
    for row_index in range(aligned):
        first = replicated_rows[0][row_index]
        label: Any = row_index
        for cell in first:
            if not _is_number(cell):
                label = cell
                break
        for column_index, name in enumerate(columns):
            if column_index >= len(first) or not _is_number(first[column_index]):
                continue
            values = [
                float(rows[row_index][column_index])
                for rows in replicated_rows
            ]
            stats = summarize(values)
            summary.append(
                (
                    label,
                    name,
                    stats.count,
                    stats.mean,
                    stats.stddev,
                    stats.minimum,
                    stats.maximum,
                )
            )
    return summary


def reports_in_order(results: Sequence[TaskResult]) -> List[Any]:
    """Rebuild ``ExperimentReport`` objects from successful results,
    preserving task order (errored tasks contribute ``None``)."""
    reports: List[Optional[Any]] = []
    for result in results:
        if result.ok and result.payload is not None:
            reports.append(payload_to_report(result.payload))
        else:
            reports.append(None)
    return reports


def failed_results(results: Sequence[TaskResult]) -> Dict[str, str]:
    """Map of task id to error message for every failed task."""
    return {
        result.task_id: result.error or "unknown failure"
        for result in results
        if not result.ok
    }
