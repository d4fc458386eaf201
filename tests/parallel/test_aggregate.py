"""Deterministic aggregation: Welford summaries and report merging."""

import math

import pytest

from repro.parallel.aggregate import (
    MetricSummary,
    failed_results,
    reports_in_order,
    summarize,
    summarize_rows,
)
from repro.parallel.task import TaskResult


class TestSummarize:
    def test_basic_statistics(self):
        stats = summarize([1.0, 2.0, 3.0])
        assert stats == MetricSummary(
            count=3, mean=2.0, stddev=1.0, minimum=1.0, maximum=3.0
        )

    def test_single_value_has_zero_stddev(self):
        stats = summarize([5.0])
        assert stats.count == 1
        assert stats.stddev == 0.0
        assert stats.minimum == stats.maximum == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_all_nan_replications_summarise_to_nan(self):
        stats = summarize([math.nan, math.nan])
        assert stats.count == 2
        for value in (stats.mean, stats.stddev, stats.minimum, stats.maximum):
            assert math.isnan(value)

    def test_single_nan_replication_has_nan_stddev(self):
        stats = summarize([math.nan])
        assert stats.count == 1
        assert math.isnan(stats.stddev)

    def test_one_nan_replication_makes_every_statistic_nan(self):
        stats = summarize([1.0, math.nan])
        assert stats.count == 2
        for value in (stats.mean, stats.stddev, stats.minimum, stats.maximum):
            assert math.isnan(value)


class TestSummarizeRows:
    COLUMNS = ("mac", "deliveries", "loss")

    def test_per_position_per_numeric_column(self):
        rep0 = [("shepard", 10, 0.0), ("aloha", 8, 0.25)]
        rep1 = [("shepard", 12, 0.0), ("aloha", 6, 0.35)]
        summary = summarize_rows(self.COLUMNS, [rep0, rep1])
        # 2 row positions x 2 numeric columns.
        assert len(summary) == 4
        by_key = {(label, metric): rest for label, metric, *rest in summary}
        count, mean, _stddev, minimum, maximum = by_key[("shepard", "deliveries")]
        assert (count, mean, minimum, maximum) == (2, 11.0, 10.0, 12.0)
        assert by_key[("aloha", "loss")][1] == pytest.approx(0.3)

    def test_all_numeric_rows_use_positional_labels(self):
        summary = summarize_rows(("a", "b"), [[(1, 2)], [(3, 4)]])
        assert {entry[0] for entry in summary} == {0}

    def test_ragged_replications_align_to_shortest(self):
        rep0 = [("x", 1.0, 0.0), ("y", 2.0, 0.0)]
        rep1 = [("x", 3.0, 0.0)]
        summary = summarize_rows(self.COLUMNS, [rep0, rep1])
        assert {entry[0] for entry in summary} == {"x"}

    def test_empty_input(self):
        assert summarize_rows(self.COLUMNS, []) == []

    def test_nan_cell_makes_only_its_column_nan(self):
        rep0 = [("aloha", 8, math.nan)]
        rep1 = [("aloha", 6, 0.35)]
        summary = summarize_rows(self.COLUMNS, [rep0, rep1])
        by_metric = {metric: rest for _label, metric, *rest in summary}
        assert by_metric["deliveries"] == [2, 7.0, pytest.approx(2**0.5), 6.0, 8.0]
        count, *stats = by_metric["loss"]
        assert count == 2
        assert all(math.isnan(value) for value in stats)


class TestResultHelpers:
    def test_reports_in_order_preserves_errors_as_none(self):
        ok = TaskResult(
            task_id="good",
            ok=True,
            payload={
                "experiment_id": "T0",
                "title": "t",
                "columns": ["a"],
                "rows": [[1]],
                "claims": {},
                "notes": [],
            },
        )
        bad = TaskResult(task_id="bad", ok=False, error="kaput")
        reports = reports_in_order([ok, bad, ok])
        assert reports[0].experiment_id == "T0"
        assert reports[1] is None
        assert reports[2].rows == [(1,)]

    def test_failed_results(self):
        results = [
            TaskResult(task_id="a", ok=True, payload={}),
            TaskResult(task_id="b", ok=False, error="kaput"),
            TaskResult(task_id="c", ok=False, error=None),
        ]
        assert failed_results(results) == {
            "b": "kaput",
            "c": "unknown failure",
        }
