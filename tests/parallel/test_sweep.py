"""The sweep engine: plans, seed-tree replications, jobs-invariance."""

import pytest

from repro.parallel.seedtree import derive_seed
from repro.parallel.sweep import (
    SweepPlan,
    build_sweep_tasks,
    default_sweep_values,
    run_sweep,
    sweep_parameter,
)
from repro.parallel.task import results_digest

#: A seconds-scale T2: tiny network, short run.
TINY_T2 = dict(
    base_params={
        "station_count": 10,
        "duration_slots": 60.0,
        "load_packets_per_slot": 0.2,
    },
)


class TestPlanBuilding:
    def test_registry_parameter(self):
        assert sweep_parameter("T7") == "loads_packets_per_slot"
        assert sweep_parameter("T2") == "receive_fractions"

    def test_explicit_parameter_validated(self):
        assert sweep_parameter("T7", "station_count") == "station_count"
        with pytest.raises(ValueError):
            sweep_parameter("T7", "not_a_parameter")

    def test_default_values_come_from_signature(self):
        assert default_sweep_values("T2", "receive_fractions") == (
            0.1, 0.2, 0.3, 0.4, 0.5, 0.7,
        )
        with pytest.raises(ValueError):
            default_sweep_values("T2", "station_count")  # scalar default

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            SweepPlan(experiment_id="T2", parameter="p", values=())
        with pytest.raises(ValueError):
            SweepPlan(
                experiment_id="T2",
                parameter="p",
                values=(0.3,),
                replications=0,
            )

    def test_repeated_values_refused(self):
        # Task ids name a value by its repr; a repeat would collide.
        with pytest.raises(ValueError, match="sweep values repeat"):
            SweepPlan(experiment_id="T2", parameter="p", values=(0.3, 0.3))

    def test_task_seeds_come_from_the_tree(self):
        plan = SweepPlan(
            experiment_id="T2",
            parameter="receive_fractions",
            values=(0.2, 0.3),
            replications=2,
            root_seed=7,
        )
        specs = build_sweep_tasks(plan)
        assert len(specs) == 4
        assert specs[0].task_id == "T2[receive_fractions=0.2]#r0"
        expected = [
            derive_seed(7, "T2", point, replication)
            for point in range(2)
            for replication in range(2)
        ]
        assert [spec.seed for spec in specs] == expected
        # Same plan, same task list — the determinism precondition.
        assert [s.seed for s in build_sweep_tasks(plan)] == expected

    def test_point_value_is_singleton_sequence(self):
        plan = SweepPlan(
            experiment_id="T2",
            parameter="receive_fractions",
            values=(0.3,),
        )
        (spec,) = build_sweep_tasks(plan)
        assert spec.params["receive_fractions"] == (0.3,)

    def test_replications_require_a_seed_parameter(self):
        # T8 takes no seed: replications would repeat the identical run.
        plan = SweepPlan(
            experiment_id="T8",
            parameter="station_counts",
            values=(20,),
            replications=3,
        )
        with pytest.raises(ValueError):
            build_sweep_tasks(plan)

    def test_unknown_base_param_is_refused_with_the_parameters(self):
        plan = SweepPlan(
            experiment_id="T7",
            parameter="loads_packets_per_slot",
            values=(0.05,),
            base_params={"jobs": 2},
        )
        with pytest.raises(ValueError, match="'jobs'.*station_count"):
            build_sweep_tasks(plan)


class TestJobsInvariance:
    @pytest.fixture(scope="class")
    def plan(self):
        return SweepPlan(
            experiment_id="T2",
            parameter="receive_fractions",
            values=(0.2, 0.3),
            replications=2,
            root_seed=11,
            **TINY_T2,
        )

    @pytest.fixture(scope="class")
    def serial(self, plan):
        return run_sweep(plan, jobs=1)

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_pooled_sweep_is_bit_identical_to_serial(self, plan, serial, jobs):
        pooled = run_sweep(plan, jobs=jobs)
        assert not pooled.errors and not serial.errors
        assert pooled.rows() == serial.rows()
        assert pooled.summaries() == serial.summaries()
        assert pooled.to_payload() == serial.to_payload()
        assert results_digest(pooled.results) == results_digest(serial.results)

    def test_rows_and_summaries_shape(self, plan, serial):
        rows = serial.rows()
        # 2 points x 2 replications, one report row each.
        assert len(rows) == 4
        assert serial.columns()[:2] == ("receive_fractions", "replication")
        summaries = serial.summaries()
        assert summaries, "replicated sweep must produce summaries"
        for entry in summaries:
            value, _label, _metric, count = entry[:4]
            assert value in (0.2, 0.3)
            assert count == 2

    def test_format_renders_tables(self, serial):
        text = serial.format()
        assert "sweep T2 over receive_fractions" in text
        assert "replication summaries" in text


class TestMultiPointTasks:
    """A sweep over a scalar knob whose every task runs several points
    of the experiment's own axis, one after another in its worker."""

    @pytest.fixture(scope="class")
    def plan(self):
        return SweepPlan(
            experiment_id="T7",
            parameter="station_count",
            values=(8, 10),
            base_params={
                "loads_packets_per_slot": (0.05, 0.1),
                "duration_slots": 40.0,
                "macs": ("shepard", "aloha"),
            },
        )

    def test_pooled_sweep_equals_serial(self, plan):
        serial = run_sweep(plan, jobs=1)
        pooled = run_sweep(plan, jobs=2)
        assert not serial.errors and not pooled.errors
        # Each task carries both loads for both MACs.
        for result in serial.results:
            loads = [row[1] for row in result.payload["rows"]]
            assert loads == [0.05, 0.05, 0.1, 0.1]
        assert pooled.to_payload() == serial.to_payload()
        assert results_digest(pooled.results) == results_digest(serial.results)
