"""Full-registry execution: every F/T/A experiment as one task list.

``repro run-all --jobs N`` routes through :func:`run_suite`, which
builds one task per registered experiment (in the canonical F → T → A
order), fans them out over the pool, and merges reports in registry
order.  The ``quick`` parameter set shrinks every experiment to a
seconds-scale parameterisation (the same reductions the fast tests
use) so CI can exercise the whole registry per commit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.parallel.aggregate import failed_results, reports_in_order
from repro.parallel.pool import ProgressCallback, run_tasks
from repro.parallel.task import (
    TaskResult,
    TaskSpec,
    canonicalize,
    results_digest,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.parallel.cache import ResultCache

__all__ = [
    "QUICK_PARAMS",
    "SuiteResult",
    "experiment_order",
    "build_suite_tasks",
    "run_suite",
]

#: Seconds-scale parameterisations per experiment: small station
#: counts, short durations, few trials.  Values mirror the fast-test
#: parameterisations under ``tests/experiments`` — shapes survive,
#: absolute numbers shrink.
QUICK_PARAMS: Dict[str, Dict[str, Any]] = {
    "F1": {"mc_station_counts": (300,), "mc_duty_cycles": (0.5,), "trials": 4},
    "F2": {},
    "F3": {"trials": 300, "station_count": 40},
    "F4": {},
    "T1": {"pairs": 4, "arrivals_per_pair": 60},
    "T2": {
        "receive_fractions": (0.2, 0.3),
        "station_count": 16,
        "duration_slots": 120,
        "load_packets_per_slot": 0.2,
    },
    "T3": {"duration_slots": 400},
    "T4": {
        "station_counts": (40,),
        "duration_slots": 150,
        "load_packets_per_slot": 0.05,
        "control_run": False,
    },
    "T5": {"station_counts": (80,), "placements_per_scale": 2},
    "T6": {"station_count": 60, "density_factors": (1.0, 4.0)},
    "T7": {
        "loads_packets_per_slot": (0.05,),
        "station_count": 16,
        "duration_slots": 150,
    },
    "T8": {"simulate_stations": ()},
    "T9": {"station_count": 120, "reach_factors": (1.0, 2.0), "placements": 2},
    "T10": {"station_count": 24, "duration_slots": 150},
    "T11": {"trials": 20_000},
    "T12": {
        "churn_rates": (0.02,),
        "station_count": 16,
        "warmup_slots": 100,
        "churn_slots": 100,
        "recovery_slots": 200,
        "macs": ("shepard", "aloha"),
    },
    # T13's claims are self-normalised against each variant's pre-churn
    # steady state, which needs the full warmup to settle — quick mode
    # trims the sweep to one churn rate instead of shortening phases.
    "T13": {
        "churn_rates": (3.0,),
    },
    "T14": {
        "station_counts": (12, 24),
        "duration_slots": 150,
        "fill_slots": 50,
    },
    "A1": {
        "rendezvous_counts": (2, 8),
        "guard_fractions": (0.0, 0.1),
        "station_count": 16,
        "duration_slots": 150,
    },
    "A2": {"channel_counts": (1, 6), "station_count": 16, "duration_slots": 150},
    "A3": {"station_counts": (20,), "duration_slots": 100},
    "A4": {},
    "A5": {"station_count": 40, "seeds": (109,)},
    "A6": {"station_count": 20, "duration_slots": 150},
    "A7": {
        "receive_fractions": (0.3,),
        "station_count": 16,
        "duration_slots": 200,
    },
    "A8": {"station_count": 16, "traffic_slots": 150},
}

_PREFIX_ORDER = {"F": 0, "T": 1, "A": 2}


def experiment_order() -> List[str]:
    """Registry ids in canonical order: F1..F4, T1..T11, A1..A8."""
    from repro.experiments import all_experiments

    return sorted(
        all_experiments(),
        key=lambda eid: (_PREFIX_ORDER.get(eid[0], 9), int(eid[1:])),
    )


def build_suite_tasks(
    quick: bool = False,
    timeout_s: Optional[float] = None,
    retries: int = 1,
) -> List[TaskSpec]:
    """One task per registered experiment, in canonical order.

    Args:
        quick: apply the :data:`QUICK_PARAMS` parameterisations.
        timeout_s: per-task timeout (pool-enforced).
        retries: crash/timeout retries per task.
    """
    specs: List[TaskSpec] = []
    for experiment_id in experiment_order():
        params: Dict[str, Any] = {}
        if quick:
            params.update(QUICK_PARAMS.get(experiment_id, {}))
        specs.append(
            TaskSpec(
                task_id=experiment_id,
                kind="experiment",
                target=experiment_id,
                params=params,
                timeout_s=timeout_s,
                retries=retries,
            )
        )
    return specs


@dataclass
class SuiteResult:
    """The full registry's results, in canonical experiment order."""

    specs: List[TaskSpec]
    results: List[TaskResult]
    jobs: int
    quick: bool

    @property
    def experiment_ids(self) -> List[str]:
        """The ids, in execution (canonical) order."""
        return [spec.task_id for spec in self.specs]

    @property
    def errors(self) -> Dict[str, str]:
        """Failed experiment ids mapped to their error strings."""
        return failed_results(self.results)

    def reports(self) -> Dict[str, Any]:
        """Successful ``ExperimentReport`` objects keyed by id."""
        merged: Dict[str, Any] = {}
        for spec, report in zip(
            self.specs, reports_in_order(self.results)
        ):
            if report is not None:
                merged[spec.task_id] = report
        return merged

    def digest(self) -> str:
        """One fingerprint over all ordered payload digests: the
        jobs-invariance witness for the whole suite."""
        return results_digest(self.results)

    def to_payload(self) -> Dict[str, Any]:
        """JSON-friendly artifact: every report plus the run metadata."""
        return {
            "jobs": self.jobs,
            "quick": self.quick,
            "suite_digest": self.digest(),
            "experiments": {
                result.task_id: {
                    "ok": result.ok,
                    "error": result.error,
                    "payload": canonicalize(result.payload),
                    "payload_digest": result.payload_digest,
                }
                for result in self.results
            },
        }

    def format(self) -> str:
        """Every report's text rendering, plus a failure epilogue."""
        blocks: List[str] = []
        for report in reports_in_order(self.results):
            if report is not None:
                blocks.append(report.format())
        for task_id, error in self.errors.items():
            first_line = error.splitlines()[0] if error else "unknown failure"
            blocks.append(f"== {task_id}: FAILED ==\n  {first_line}")
        blocks.append(
            f"suite: {len(self.results) - len(self.errors)}/"
            f"{len(self.results)} experiments ok "
            f"(jobs={self.jobs}, quick={self.quick}, "
            f"digest {self.digest()})"
        )
        return "\n\n".join(blocks)


def run_suite(
    jobs: int = 1,
    quick: bool = False,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    progress: Optional[ProgressCallback] = None,
    cache: Optional["ResultCache"] = None,
) -> SuiteResult:
    """Run the whole experiment registry over ``jobs`` workers.

    With ``cache``, experiments whose work is already stored return
    instantly and only misses are scheduled; each fresh result is stored
    as it completes, so rerunning a killed suite over the same cache
    resumes it with final digests bit-identical to an uninterrupted run.
    """
    specs = build_suite_tasks(quick=quick, timeout_s=timeout_s, retries=retries)
    results = run_tasks(specs, jobs=jobs, progress=progress, cache=cache)
    return SuiteResult(specs=specs, results=results, jobs=jobs, quick=quick)
