#!/usr/bin/env python
"""Generate the tracked perf report (``BENCH_medium.json``).

Runs the seeded loaded-network scenario family through the perf harness
(:mod:`repro.analysis.perf`) and writes a JSON report of events/sec per
scenario.  Each scenario is run several times and the best (minimum
wall-clock) run is reported, which is the standard defence against
scheduler noise on shared hosts.

Usage::

    python tools/perfreport.py --quick --output BENCH_medium.json
    python tools/perfreport.py --baseline old_report.json
    python tools/perfreport.py --scenarios 100x0.1,500x0.5
    python tools/perfreport.py --metro            # + 10^4-station sparse run
    python tools/perfreport.py --metro-full       # + 10^5-station sparse run

``--baseline`` points at a previous report (same format); matching
scenarios gain a ``speedup`` ratio in the notes *and* an ``x base``
column in the printed table.  Absolute numbers are host-dependent; the
ratios are the comparable quantity.  ``--scenarios`` names explicit
``STATIONSxLOAD`` pairs and overrides the quick/full sets.  ``--metro``
adds the 10^4-station sparse-medium scenario (the CI metro-smoke set);
``--metro-full`` adds the 10^5-station run the T8 trajectory tracks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.analysis.perf import (  # noqa: E402  (path setup above)
    MetroPerfSample,
    PerfSample,
    format_metro_samples,
    format_samples,
    run_metro_perf_scenario,
    run_perf_scenario,
    write_report,
)

#: (stations, load) pairs; 60 simulated slots, seed 29 throughout.
QUICK_SCENARIOS: Tuple[Tuple[int, float], ...] = ((100, 0.1),)
FULL_SCENARIOS: Tuple[Tuple[int, float], ...] = (
    (100, 0.1),
    (500, 0.1),
    (500, 0.5),
    (500, 1.0),
)

#: Metro-scale (stations, load) pairs over the sparse CSR medium; 20
#: simulated slots, seed 29.  The 10^4 run is CI-sized; the 10^5 run is
#: the single-box T8 target whose events/s trajectory BENCH_medium.json
#: tracks.
METRO_SCENARIOS: Tuple[Tuple[int, float], ...] = ((10_000, 0.05),)
METRO_FULL_SCENARIOS: Tuple[Tuple[int, float], ...] = (
    (10_000, 0.05),
    (100_000, 0.05),
)


def parse_scenarios(raw: str) -> Tuple[Tuple[int, float], ...]:
    """Parse ``STATIONSxLOAD`` pairs: ``"100x0.1,500x0.5"`` →
    ``((100, 0.1), (500, 0.5))``."""
    scenarios = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        stations_text, separator, load_text = part.partition("x")
        try:
            if not separator:
                raise ValueError(part)
            scenarios.append((int(stations_text), float(load_text)))
        except ValueError:
            raise ValueError(
                f"bad scenario {part!r}; want STATIONSxLOAD, e.g. 100x0.1"
            ) from None
    if not scenarios:
        raise ValueError(f"no scenarios in {raw!r}")
    return tuple(scenarios)


def best_of(stations: int, load: float, rounds: int, seed: int) -> PerfSample:
    """Best (minimum wall-clock) of ``rounds`` runs of one scenario."""
    samples = [
        run_perf_scenario(stations=stations, load=load, seed=seed)
        for _ in range(rounds)
    ]
    return min(samples, key=lambda sample: sample.wall_s)


def metro_best_of(
    stations: int, load: float, rounds: int, seed: int
) -> MetroPerfSample:
    """Best (minimum simulation wall-clock) of ``rounds`` metro runs.

    Scenes above 10^4 stations are built once per round regardless —
    the scene build dominates there, so callers typically pass
    ``rounds=1`` for the 10^5 scenario.
    """
    samples = [
        run_metro_perf_scenario(stations=stations, load=load, seed=seed)
        for _ in range(rounds)
    ]
    return min(samples, key=lambda sample: sample.wall_s)


def baseline_rates(baseline_path: str) -> Dict[Tuple[int, float], float]:
    """Events/sec per (stations, load) from a previous report, both the
    loaded-network scenarios and any metro scenarios."""
    with open(baseline_path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    before: Dict[Tuple[int, float], float] = {}
    for scenario in payload.get("scenarios", []) + payload.get(
        "metro_scenarios", []
    ):
        # Current reports store events_per_s flat; the hand-annotated
        # before/after record nests it under "after".
        rate = scenario.get("events_per_s") or scenario.get("after", {}).get(
            "events_per_s"
        )
        if rate:
            before[(scenario["stations"], scenario["load"])] = float(rate)
    return before


def speedups(samples: List, baseline_path: str) -> Dict[str, float]:
    """Events/sec ratios vs a previous report, per matching scenario.

    Works over both sample kinds — anything with ``stations``, ``load``
    and ``events_per_s``.
    """
    before = baseline_rates(baseline_path)
    ratios: Dict[str, float] = {}
    for sample in samples:
        old = before.get((sample.stations, sample.load))
        if old:
            ratios[f"{sample.stations}@{sample.load}"] = round(
                sample.events_per_s / old, 3
            )
    return ratios


def with_ratio_column(
    table: str,
    samples: List,
    before: Dict[Tuple[int, float], float],
) -> str:
    """Append an ``x base`` events/sec-ratio column to a formatted
    table (one header line followed by one line per sample)."""
    lines = table.splitlines()
    out = [f"{lines[0]} {'x base':>7s}"]
    for line, sample in zip(lines[1:], samples):
        old = before.get((sample.stations, sample.load))
        ratio = f"{sample.events_per_s / old:>7.2f}" if old else f"{'-':>7s}"
        out.append(f"{line} {ratio}")
    return "\n".join(out)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="run only the 100-station scenario (the CI perf-smoke set)",
    )
    parser.add_argument("--rounds", type=int, default=3,
                        help="runs per scenario; the best is reported")
    parser.add_argument("--seed", type=int, default=29)
    parser.add_argument("--output", default="BENCH_medium.json")
    parser.add_argument("--baseline", metavar="PATH",
                        help="previous report to compute speedups against")
    parser.add_argument(
        "--scenarios", metavar="STATIONSxLOAD,...",
        help=(
            "explicit scenario list (e.g. 100x0.1,500x0.5); overrides "
            "--quick/full"
        ),
    )
    parser.add_argument(
        "--metro", action="store_true",
        help="also run the 10^4-station sparse metro scenario",
    )
    parser.add_argument(
        "--metro-full", action="store_true",
        help="also run the 10^4- and 10^5-station sparse metro scenarios",
    )
    parser.add_argument(
        "--metro-rounds", type=int, default=1,
        help=(
            "runs per metro scenario (each rebuilds the scene; the "
            "minimum simulation wall-clock run is reported)"
        ),
    )
    args = parser.parse_args(argv)

    if args.scenarios:
        try:
            scenarios = parse_scenarios(args.scenarios)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
    else:
        scenarios = QUICK_SCENARIOS if args.quick else FULL_SCENARIOS
    samples = [
        best_of(stations, load, args.rounds, args.seed)
        for stations, load in scenarios
    ]

    metro_samples: List[MetroPerfSample] = []
    if args.metro or args.metro_full:
        metro_scenarios = (
            METRO_FULL_SCENARIOS if args.metro_full else METRO_SCENARIOS
        )
        for stations, load in metro_scenarios:
            metro_samples.append(
                metro_best_of(stations, load, args.metro_rounds, args.seed)
            )

    before: Dict[Tuple[int, float], float] = {}
    if args.baseline:
        before = baseline_rates(args.baseline)
    print(with_ratio_column(format_samples(samples), samples, before)
          if before else format_samples(samples))
    if metro_samples:
        table = format_metro_samples(metro_samples)
        print(with_ratio_column(table, metro_samples, before)
              if before else table)

    notes: Dict[str, object] = {
        "rounds": args.rounds,
        "selection": "minimum wall-clock run per scenario",
    }
    if metro_samples:
        notes["metro_rounds"] = args.metro_rounds
        notes["metro_selection"] = (
            "minimum simulation wall-clock run per scenario; the scene "
            "is rebuilt each round and build_wall_s reports that round's "
            "CSR construction time"
        )
    if args.baseline:
        notes["speedup_vs_baseline"] = speedups(
            samples + metro_samples, args.baseline
        )
    write_report(args.output, samples, notes=notes, metro=metro_samples)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
