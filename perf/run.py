"""Benchmark runner: the five canonical workloads, end to end and by layer.

Run from the repository root::

    python3 perf/run.py [--workload NAME ...] [--seed 29] [--seconds 60]
                        [--trace 0|1] [--out FILE]

Each rep of a workload runs in a fresh child process
(``perf/workloads.py``), one at a time, with reps interleaved
round-robin across the chosen workloads.  ``--seconds`` is the nominal
length of one workload's untraced reps: it buys
``seconds // REP_SECONDS[workload]`` reps (at least one), a count fixed
by the table below and never by how fast the code under test runs, so
a parent and a change are always compared on equal sample counts.
Children run with BLAS threads pinned to 1, ``REPRO_SANITIZE`` unset
and ``jobs=1``: a closed loop with one run at a time, so the figures of
merit are work completed per second at a stated input size.

Times are in reference seconds: each untraced rep samples its core's
speed while it runs (``perf/hostspeed.py``) and converts its wall time
to the time the work takes on a reference core at full speed, so that
a shared host's cores changing speed do not read as the program
changing speed.  The report prints the wall-clock medians beside them.

With ``--trace 1`` every workload then gets one extra traced rep whose
spans (``perf/spans.py``) attribute the time to the simulator's layers.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics (medians over the untraced reps) with ``--trace 0``, the
per-layer metrics of the traced rep with ``--trace 1``.  The exit status
is 0 only when every check of every rep passed.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from spans import per_layer_metric_specs
from workloads import PERF_DIR, WORKLOADS

ROOT = os.path.dirname(PERF_DIR)
SRC = os.path.join(ROOT, "src")
WORKLOADS_PY = os.path.join(PERF_DIR, "workloads.py")

DEFAULT_SEED = 29
#: Buys at least three untraced reps of every workload; the five
#: workloads plus their traced reps take seven and a half minutes.
DEFAULT_SECONDS = 60

#: Nominal wall time of one untraced rep, interpreter start-up
#: included, on the reference host (2 shared vCPUs of an x86_64 VM).
#: Only ``reps_for`` reads it.
REP_SECONDS: Dict[str, float] = {
    "net500_light": 4.5,
    "net500_sat": 13.0,
    "metro20k": 17.0,
    "suite_quick": 11.5,
    "sweep_warm": 19.0,
}

#: ``(name, unit, better, bound)``: a median may worsen by ``bound``
#: (a share of the parent's median) before it counts as a regression.
#: Each bound is at least three times the widest quartile spread seen
#: over ten seeds at the ``BENCHMARK.json`` run length on the reference
#: host (perf/README.md): timings up to 8.0% (sweep_warm), peak memory
#: up to 2.2%.  Set-up gets the widest bound, as its spread reached 12%.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: A rep still running after this is killed and fails, and its workload
#: gets no further reps.  The slowest rep (traced sweep_warm) takes
#: ~30 s; the limit keeps a one-rep workload plus its traced rep under
#: three minutes.
CHILD_TIMEOUT_S = 75.0


def child_env() -> Dict[str, str]:
    """The environment every rep runs in."""
    env = dict(os.environ)
    env.pop("REPRO_SANITIZE", None)
    env["PYTHONHASHSEED"] = "0"  # same dict/set layouts in every rep
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (SRC, env.get("PYTHONPATH")) if path
    )
    for variable in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        env[variable] = "1"
    return env


def run_child(
    workload: str, seed: int, traced: bool, scale: str = "full"
) -> Dict[str, Any]:
    """One rep in a fresh interpreter: its report."""
    command = [sys.executable, WORKLOADS_PY, workload, "--seed", str(seed)]
    if traced:
        command.append("--traced")
    if scale != "full":
        command += ["--scale", scale]
    try:
        done = subprocess.run(
            command,
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        failure = f"rep exceeded {CHILD_TIMEOUT_S:.0f} s and was killed"
        return _failed_rep(workload, seed, traced, failure)
    lines = done.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
        failure = f"rep exited {done.returncode}: {tail[0]}"
        return _failed_rep(workload, seed, traced, failure)
    if done.returncode != 0 and not report["problems"]:
        report["problems"].append(f"rep exited {done.returncode}")
    return report


def _failed_rep(workload: str, seed: int, traced: bool, problem: str) -> Dict[str, Any]:
    return {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "attempted": 1,
        "failed": 1,
        "fingerprint": None,
        "problems": [problem],
    }


def reps_for(workload: str, seconds: float) -> int:
    """How many untraced reps ``seconds`` buys ``workload``."""
    return max(1, int(seconds // REP_SECONDS[workload]))


def measure(
    reps: Dict[str, int],
    seed: int,
    trace: bool,
    scale: str = "full",
) -> Dict[str, Dict[str, Any]]:
    """``reps[name]`` untraced reps of each workload, round-robin, then
    one traced rep per workload when ``trace``; raw reports by
    workload.  A workload stops at its first failing rep."""
    done: Dict[str, List[Dict[str, Any]]] = {name: [] for name in reps}

    def healthy(name: str) -> bool:
        return not any(report["problems"] for report in done[name])

    for index in range(max(reps.values())):
        for name, count in reps.items():
            if index < count and healthy(name):
                done[name].append(run_child(name, seed, False, scale))
    traced = {}
    if trace:
        traced = {
            name: run_child(name, seed, True, scale)
            for name in reps
            if healthy(name)
        }
    return {name: {"reps": done[name], "traced": traced.get(name)} for name in reps}


def summarize(values: Sequence[float]) -> Dict[str, Optional[float]]:
    """Median, quartiles, extremes, count and relative spread
    (max - min) / median.  A single value has no quartiles or spread:
    they are ``None``, not 0."""
    ordered = sorted(values)
    median = statistics.median(ordered)
    q1 = q3 = spread = None
    if len(ordered) > 1:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        spread = (ordered[-1] - ordered[0]) / median
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "min": ordered[0],
        "max": ordered[-1],
        "n": len(ordered),
        "spread": spread,
    }


def end_to_end_values(rep: Dict[str, Any]) -> Dict[str, float]:
    """The end-to-end metrics of one untraced rep."""
    return {
        "setup_s": rep["setup_s"],
        "run_s": rep["run_s"],
        "work_per_s": rep["work"] / rep["run_s"],
        "peak_rss_mb": rep["peak_rss_mb"],
    }


def analyze(name: str, raw: Dict[str, Any]) -> Dict[str, Any]:
    """Checks and statistics for one workload's reps."""
    reps = raw["reps"]
    everything = reps + ([raw["traced"]] if raw["traced"] else [])
    problems = [
        f"{'traced ' if rep['traced'] else ''}rep {index}: {problem}"
        for index, rep in enumerate(everything)
        for problem in rep["problems"]
    ]
    fingerprints = {json.dumps(rep["fingerprint"], sort_keys=True) for rep in everything}
    if len(fingerprints) > 1:
        problems.append(f"reps disagree on their fingerprint: {sorted(fingerprints)}")
    timed = [rep for rep in reps if not rep["problems"]]
    stats: Dict[str, Dict[str, float]] = {}
    wall: Dict[str, float] = {}
    if timed:
        per_rep = [end_to_end_values(rep) for rep in timed]
        stats = {
            metric: summarize([values[metric] for values in per_rep])
            for metric, *_ in END_TO_END
        }
        wall = {
            key: statistics.median(rep[key] for rep in timed)
            for key in ("setup_wall_s", "run_wall_s", "run_speed")
        }
    layers: Dict[str, float] = {}
    traced = raw["traced"]
    if traced and not traced["problems"]:
        layers = dict(traced["layers"])
        if wall:
            layers["bench.trace_overhead"] = (
                traced["run_wall_s"] / wall["run_wall_s"] - 1.0
            )
    return {
        "workload": name,
        "correct": not problems,
        "problems": problems,
        "attempted": sum(rep["attempted"] for rep in everything),
        "failed": sum(rep["failed"] for rep in everything),
        "fingerprint": everything[0]["fingerprint"],
        "end_to_end": stats,
        "wall": wall,
        "layers": layers,
        "missing": traced.get("missing", {}) if traced else {},
    }


def format_report(summary: Dict[str, Any]) -> str:
    """Human-readable tables for one workload."""
    lines = [f"== {summary['workload']}  fingerprint {summary['fingerprint']}"]
    lines.append(
        f"  {'metric':<12} {'unit':<5} {'median':>12} {'q1':>12} {'q3':>12} "
        f"{'min':>12} {'max':>12} {'n':>3} {'spread':>7} {'bound':>6}"
    )
    for metric, unit, _better, bound in END_TO_END:
        row = summary["end_to_end"].get(metric)
        if row is None:
            continue
        if row["spread"] is None:
            q1 = q3 = spread = "-"
            flag = "  unresolved: one rep, no spread (raise --seconds)"
        else:
            q1, q3 = f"{row['q1']:.6g}", f"{row['q3']:.6g}"
            spread = f"{row['spread']:.2%}"
            flag = "  TOO NOISY: run longer" if row["spread"] > bound else ""
        lines.append(
            f"  {metric:<12} {unit:<5} {row['median']:>12.6g} {q1:>12} {q3:>12} "
            f"{row['min']:>12.6g} {row['max']:>12.6g} "
            f"{row['n']:>3d} {spread:>7} {bound:>6.0%}{flag}"
        )
    if summary["wall"]:
        lines.append(
            f"  wall-clock medians: setup {summary['wall']['setup_wall_s']:.6g} s, "
            f"run {summary['wall']['run_wall_s']:.6g} s; "
            f"core speed during the run {summary['wall']['run_speed']:.3g} of reference"
        )
    if summary["layers"]:
        lines.append(f"  {'layer metric':<34} {'unit':<6} {'value':>14}")
        for metric, unit, _better in per_layer_metric_specs():
            if metric in summary["layers"]:
                lines.append(
                    f"  {metric:<34} {unit:<6} {summary['layers'][metric]:>14.6g}"
                )
    for layer, reason in summary["missing"].items():
        lines.append(f"  {layer}: missing ({reason})")
    lines.append(
        f"  attempted {summary['attempted']}, failed {summary['failed']}, "
        f"fail ratio {summary['failed'] / max(summary['attempted'], 1):.3g}"
    )
    for problem in summary["problems"]:
        lines.append(f"  CHECK FAILED: {problem}")
    return "\n".join(lines)


def result_line(summaries: Sequence[Dict[str, Any]], trace: bool) -> Dict[str, Any]:
    """The final JSON object; metric names gain a ``workload/`` prefix
    when more than one workload ran."""
    units = (
        {metric: unit for metric, unit, _ in per_layer_metric_specs()}
        if trace
        else {metric: unit for metric, unit, _, _ in END_TO_END}
    )
    metrics: Dict[str, Dict[str, Any]] = {}
    for summary in summaries:
        prefix = f"{summary['workload']}/" if len(summaries) > 1 else ""
        for metric, unit in units.items():
            if trace:
                value = summary["layers"].get(metric)
            else:
                value = summary["end_to_end"].get(metric, {}).get("median")
            if value is not None:
                metrics[prefix + metric] = {"value": value, "unit": unit}
    return {
        "correct": all(summary["correct"] for summary in summaries),
        "attempted": sum(summary["attempted"] for summary in summaries),
        "failed": sum(summary["failed"] for summary in summaries),
        "metrics": metrics,
    }


def manifest(args: argparse.Namespace) -> Dict[str, Any]:
    """Which host, toolchain, code and settings produced a report."""
    try:
        rev: Optional[str] = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = None  # not a git checkout
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "git_rev": rev,
        "seed": args.seed,
        "seconds": args.seconds,
        "reps": args.reps,
        "trace": args.trace,
        "workloads": args.workload,
    }


def append_report(path: str, report: Dict[str, Any]) -> None:
    """Add ``report`` to the ``sets`` list of the JSON file at ``path``."""
    record: Dict[str, Any] = {"sets": []}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
    record["sets"].append(report)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Time the canonical workloads end to end and by layer."
    )
    parser.add_argument(
        "--workload", action="append", choices=WORKLOADS,
        help="workload to run (repeatable; default: all five)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=DEFAULT_SECONDS,
        help="nominal length of one workload's untraced reps; sets the rep count",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=1,
        help="1: add a traced rep per workload and report its layers",
    )
    parser.add_argument("--out", help="append the full report to this JSON file")
    args = parser.parse_args(argv)
    args.workload = list(dict.fromkeys(args.workload or WORKLOADS))

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perf: no program to measure under {SRC}", file=sys.stderr)
        return 2

    args.reps = {name: reps_for(name, args.seconds) for name in args.workload}
    raw = measure(args.reps, args.seed, bool(args.trace))
    summaries = [analyze(name, raw[name]) for name in args.workload]
    for summary in summaries:
        print(format_report(summary))
    if args.out:
        append_report(
            args.out,
            {"manifest": manifest(args), "raw": raw, "summaries": summaries},
        )
    line = result_line(summaries, bool(args.trace))
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
