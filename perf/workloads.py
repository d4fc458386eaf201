"""The five benchmark workloads, and the child process that runs one rep.

Every rep runs in a fresh interpreter::

    python3 perf/workloads.py NAME --seed N [--traced] [--scale toy]

It times the workload's set-up and its run separately, checks the
outputs, and prints one JSON object as its last line of standard
output.  An untraced rep reports each phase's wall time and its time in
reference seconds, corrected for the core's speed while it ran
(``perf/hostspeed.py``); a traced rep reports wall times only.  The
exit status is 0 when every check passed and 1 otherwise.
``perf/run.py`` starts these children one at a time and aggregates
their reports.

The seed draws the traffic (and the sweep's root seed).  Station
placement is the same for every seed: see ``PLACEMENT_SEED``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from hostspeed import PhaseTiming, SpeedSampler

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = os.path.join(PERF_DIR, ".work")

#: Workload parameters at full size, and at a toy size the tests use to
#: drive every workload through the real ``run.py`` path quickly.
SCALES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "net500_light": {"stations": 500, "load": 0.1, "slots": 60, "trace": True},
        "net500_sat": {"stations": 500, "load": 1.0, "slots": 60, "trace": False},
        "metro20k": {"stations": 20_000, "load": 0.05, "slots": 60},
        "suite_quick": {},
        "sweep_warm": {"loads": 16, "replications": 4, "passes": 200},
    },
    "toy": {
        "net500_light": {"stations": 40, "load": 0.1, "slots": 20, "trace": True},
        "net500_sat": {"stations": 40, "load": 1.0, "slots": 20, "trace": False},
        "metro20k": {"stations": 400, "load": 0.05, "slots": 20},
        "suite_quick": {},
        "sweep_warm": {"loads": 2, "replications": 2, "passes": 3},
    },
}

WORKLOADS = tuple(SCALES["full"])

#: Networks and metro scenes are placed with seed ``PLACEMENT_SEED +
#: stations`` whatever ``--seed`` is (the historical perf convention at
#: seed 29).  Placement decides how many window searches find no window
#: before the horizon, and those scan the whole schedule: on net500_sat
#: the placement of seed 209 has 480 of them and triples the window
#: search time, so its run takes 60% longer than seed 201's.  A placement
#: drawn from ``--seed`` would make the spread between seeds measure
#: geometry rather than the code.
PLACEMENT_SEED = 29

#: Outputs pinned by ``(scale, seed)``.  A rep whose fingerprint
#: disagrees with these fails, whatever its timings.
PINNED: Dict[Tuple[str, int], Dict[str, Dict[str, Any]]] = {
    ("full", 29): {
        "net500_light": {"events": 87_270, "deliveries": 11_572, "losses": 0},
        "net500_sat": {"events": 312_560, "deliveries": 30_553, "losses": 0},
        "metro20k": {
            "events": 169_962,
            "transmitted": 57_146,
            "deliveries": 57_146,
        },
        "suite_quick": {
            "experiments": 26,
            "errors": 0,
            "digest": "a45bce4509f86981de0e0ddd45033252",
        },
        "sweep_warm": {
            "digest": "a2ecbce469157e3b212e459640ae41f4",
            "reads": 12_800,
        },
    },
}

# The sweep's fixed T7 parameters: each task runs every registered MAC
# on 8 stations for 60 slots.
SWEEP_STATIONS = 8
SWEEP_SLOTS = 60
SWEEP_LOAD_STEP = 0.02


@dataclass
class Outcome:
    """What a workload's run produced, already checked."""

    work: int  # the throughput numerator: events, experiments or reads
    attempted: int
    failed: int
    fingerprint: Dict[str, Any]
    problems: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    """Inputs from ``setup``, the timed work in ``run``, and the checks
    in ``verify``, which runs after the clock stops."""

    setup: Callable[[int, Dict[str, Any], str], Any]
    run: Callable[[Any, Dict[str, Any]], Any]
    verify: Callable[[Any, Any, Dict[str, Any]], Outcome]


# -- net500_light / net500_sat ---------------------------------------------


def _net_setup(seed: int, params: Dict[str, Any], scratch: str) -> Any:
    from repro.experiments.simsetup import add_uniform_poisson, standard_network

    stations = params["stations"]
    network = standard_network(
        stations, PLACEMENT_SEED + stations, trace=params["trace"]
    )
    add_uniform_poisson(network, params["load"], seed)
    return network


def _net_run(network: Any, params: Dict[str, Any]) -> Any:
    return network.run(params["slots"] * network.budget.slot_time)


def _net_verify(network: Any, result: Any, params: Dict[str, Any]) -> Outcome:
    events = network.env.events_processed
    return Outcome(
        work=events,
        attempted=result.hop_deliveries + result.losses_total,
        failed=result.losses_total,
        fingerprint={
            "events": events,
            "deliveries": result.hop_deliveries,
            "losses": result.losses_total,
        },
    )


# -- metro20k --------------------------------------------------------------


def _metro_setup(seed: int, params: Dict[str, Any], scratch: str) -> Any:
    from repro.analysis.metro import build_metro_scene

    stations = params["stations"]
    return build_metro_scene(stations, PLACEMENT_SEED + stations), seed


def _metro_run(state: Any, params: Dict[str, Any]) -> Any:
    from repro.analysis.metro import run_metro_scene

    scene, seed = state
    return run_metro_scene(
        scene, load=params["load"], duration_slots=params["slots"], traffic_seed=seed
    )


def _metro_verify(state: Any, result: Any, params: Dict[str, Any]) -> Outcome:
    problems = []
    if result.deliveries + result.losses_total != result.transmitted:
        problems.append(
            f"deliveries {result.deliveries} + losses {result.losses_total} "
            f"!= transmitted {result.transmitted}"
        )
    return Outcome(
        work=result.events,
        attempted=result.transmitted,
        failed=result.losses_total,
        fingerprint={
            "events": result.events,
            "transmitted": result.transmitted,
            "deliveries": result.deliveries,
            "losses": result.losses_total,
        },
        problems=problems,
    )


# -- suite_quick -----------------------------------------------------------


def _suite_setup(seed: int, params: Dict[str, Any], scratch: str) -> Any:
    # Importing the suite (and, through the registry, every experiment)
    # is part of what a user waits for before the first experiment runs.
    from repro.parallel.suite import build_suite_tasks

    return len(build_suite_tasks(quick=True))


def _suite_run(tasks: int, params: Dict[str, Any]) -> Any:
    from repro.parallel.suite import run_suite

    return run_suite(jobs=1, quick=True)


def _suite_verify(tasks: int, suite: Any, params: Dict[str, Any]) -> Outcome:
    experiments = len(suite.results)
    errors = len(suite.errors)
    problems = []
    if experiments != tasks:
        problems.append(f"{experiments} results for {tasks} suite tasks")
    return Outcome(
        work=experiments,
        attempted=experiments,
        failed=errors,
        fingerprint={
            "experiments": experiments,
            "errors": errors,
            "digest": suite.digest(),
        },
        problems=problems,
    )


# -- sweep_warm ------------------------------------------------------------


@dataclass
class _SweepState:
    plan: Any
    cache_dir: str
    cold: Any
    cold_hits: int


def _sweep_setup(seed: int, params: Dict[str, Any], scratch: str) -> _SweepState:
    from repro.parallel.cache import ResultCache
    from repro.parallel.sweep import SweepPlan, run_sweep

    plan = SweepPlan(
        experiment_id="T7",
        parameter="loads_packets_per_slot",
        values=tuple(
            round(SWEEP_LOAD_STEP * (i + 1), 2) for i in range(params["loads"])
        ),
        replications=params["replications"],
        root_seed=seed,
        base_params={"station_count": SWEEP_STATIONS, "duration_slots": SWEEP_SLOTS},
    )
    cache_dir = os.path.join(scratch, "cache")
    cache = ResultCache(cache_dir)
    cold = run_sweep(plan, jobs=1, cache=cache)
    return _SweepState(plan, cache_dir, cold, cache.hits)


def _sweep_run(state: _SweepState, params: Dict[str, Any]) -> Any:
    from repro.parallel.cache import ResultCache
    from repro.parallel.sweep import run_sweep

    cache = ResultCache(state.cache_dir)
    passes = [
        run_sweep(state.plan, jobs=1, cache=cache) for _ in range(params["passes"])
    ]
    return passes, cache


def _sweep_verify(state: _SweepState, outcome: Any, params: Dict[str, Any]) -> Outcome:
    from repro.parallel.task import results_digest

    passes, cache = outcome
    problems = []
    if state.cold_hits:
        problems.append(f"cold sweep hit a non-empty cache ({state.cold_hits} hits)")
    cold_payload = state.cold.to_payload()
    for index, warm in enumerate(passes):
        if warm.to_payload() != cold_payload:
            problems.append(f"warm pass {index} payload differs from the cold run")
            break
    reads = cache.hits + cache.misses
    expected = len(passes) * len(state.cold.results)
    if reads != expected or cache.misses:
        problems.append(f"{cache.hits} hits + {cache.misses} misses, not {expected} hits")
    errors = len(state.cold.errors) + sum(len(warm.errors) for warm in passes)
    return Outcome(
        work=reads,
        attempted=reads,
        failed=cache.misses + errors,
        fingerprint={"digest": results_digest(state.cold.results), "reads": reads},
        problems=problems,
    )


WORKLOAD_DEFS: Dict[str, Workload] = {
    "net500_light": Workload(_net_setup, _net_run, _net_verify),
    "net500_sat": Workload(_net_setup, _net_run, _net_verify),
    "metro20k": Workload(_metro_setup, _metro_run, _metro_verify),
    "suite_quick": Workload(_suite_setup, _suite_run, _suite_verify),
    "sweep_warm": Workload(_sweep_setup, _sweep_run, _sweep_verify),
}


def run_rep(
    name: str, seed: int, traced: bool = False, scale: str = "full"
) -> Dict[str, Any]:
    """Run one rep of workload ``name`` in this process; the report
    the child prints.  ``report["problems"]`` lists failed checks."""
    workload = WORKLOAD_DEFS[name]
    params = SCALES[scale][name]
    tracer = None
    sampler = None
    if traced:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        sampler = SpeedSampler()

    @contextmanager
    def phase(span: str) -> Iterator[PhaseTiming]:
        # Untraced reps sample the core's speed; traced reps keep their
        # spans free of probes and report wall time only.
        if sampler is not None:
            with sampler.phase() as timing:
                yield timing
            return
        timing = PhaseTiming()
        began = time.perf_counter()
        with tracer.root(span):
            yield timing
        timing.wall_s = time.perf_counter() - began

    os.makedirs(WORK_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR)
    try:
        with phase("setup") as setup:
            state = workload.setup(seed, params, scratch)
        with phase("run") as run:
            result = workload.run(state, params)
        outcome = workload.verify(state, result, params)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass  # another rep is still using it

    problems = list(outcome.problems)
    pinned = PINNED.get((scale, seed), {}).get(name, {})
    for key, expected in pinned.items():
        got = outcome.fingerprint.get(key)
        if got != expected:
            problems.append(f"seed-{seed} fingerprint {key}={got!r}, pinned {expected!r}")
    report: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "traced": traced,
        "setup_wall_s": setup.wall_s,
        "run_wall_s": run.wall_s,
        "work": outcome.work,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "fingerprint": outcome.fingerprint,
        "problems": problems,
    }
    if tracer is not None:
        report["layers"] = tracer.metrics()
        report["missing"] = dict(tracer.missing)
    else:
        report["setup_s"] = setup.reference_s
        report["run_s"] = run.reference_s
        report["run_speed"] = run.speed
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark rep.")
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--scale", choices=tuple(SCALES), default="full")
    args = parser.parse_args(argv)
    report = run_rep(args.workload, args.seed, args.traced, args.scale)
    print(json.dumps(report, sort_keys=True))
    return 1 if report["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
