"""run-all plumbing: canonical ordering, quick parameters, jobs-invariance."""

from repro.experiments import all_experiments
from repro.parallel.suite import (
    QUICK_PARAMS,
    build_suite_tasks,
    experiment_order,
    run_suite,
)


class TestSuiteTasks:
    def test_order_is_canonical_and_complete(self):
        order = experiment_order()
        assert set(order) == set(all_experiments())
        assert order[0] == "F1"
        assert order.index("T1") == order.index("F4") + 1
        assert order.index("T12") == order.index("T11") + 1
        assert order.index("T13") == order.index("T12") + 1
        assert order.index("T14") == order.index("T13") + 1
        assert order.index("A1") == order.index("T14") + 1
        # Numeric, not lexicographic: T2 before T10.
        assert order.index("T2") < order.index("T10")

    def test_quick_params_cover_only_known_experiments(self):
        assert set(QUICK_PARAMS) == set(all_experiments())

    def test_build_applies_quick_params(self):
        quick = {spec.task_id: spec.params for spec in build_suite_tasks(quick=True)}
        assert quick == {
            experiment_id: QUICK_PARAMS[experiment_id]
            for experiment_id in experiment_order()
        }
        full = build_suite_tasks()
        assert all(spec.params == {} for spec in full)


class TestSuiteJobsInvariance:
    def test_quick_suite_identical_at_one_and_two_workers(self):
        serial = run_suite(jobs=1, quick=True)
        pooled = run_suite(jobs=2, quick=True)
        assert serial.errors == {}
        assert pooled.errors == {}
        assert serial.experiment_ids == pooled.experiment_ids
        assert serial.digest() == pooled.digest()
        # Compare canonical JSON rather than raw dicts: payloads may
        # contain NaN, which is equal-by-identity only (a pickled copy
        # from a worker is a different object).
        import json

        serial_payload = json.dumps(serial.to_payload(), sort_keys=True)
        pooled_payload = json.dumps(pooled.to_payload(), sort_keys=True)
        serial_payload = serial_payload.replace('"jobs": 1', '"jobs": 2')
        assert serial_payload == pooled_payload
        # Every experiment produced a report with rows.
        reports = pooled.reports()
        assert set(reports) == set(all_experiments())
        assert all(report.rows for report in reports.values())
