"""Performance measurement harness for the simulator hot path.

The tracked quantity is *events per second*: the engine counts every
processed event (:attr:`repro.sim.engine.Environment.events_processed`),
and dividing by the wall-clock duration of a run gives a throughput
figure that is comparable across code versions because same-seed runs
process bit-identical event sequences — the work is fixed, only the
speed varies.

This module is the one deliberate exception to the REP002 reprolint
rule (no wall-clock reads under ``src/``): measuring wall time is its
entire purpose, and nothing here feeds back into simulation state —
the scenario runs to completion and is only *observed* afterwards, so
replay determinism is untouched.

The standard workload is :func:`repro.experiments.simsetup.run_loaded_network`
(the T4 scenario family): uniform-disk placement, Poisson traffic, the
paper's MAC.  ``tools/perfreport.py`` and the ``repro bench`` CLI
subcommand wrap this module; ``BENCH_medium.json`` at the repo root is
the tracked before/after record.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence

__all__ = [
    "PerfSample",
    "MetroPerfSample",
    "run_perf_scenario",
    "run_metro_perf_scenario",
    "write_report",
    "format_samples",
    "format_metro_samples",
]


@dataclass(frozen=True)
class PerfSample:
    """One timed run of the loaded-network scenario.

    Attributes:
        stations: network size M.
        load: offered load in packets per slot per station.
        duration_slots: simulated duration in slots.
        seed: base seed (placement uses ``seed + stations``, traffic
            uses ``seed``, matching the T4 experiment convention).
        wall_s: wall-clock duration of the run.
        events: total simulation events processed.
        events_per_s: the throughput figure, ``events / wall_s``.
        deliveries: hop deliveries (a correctness fingerprint — any two
            code versions must agree on it for the timing comparison to
            be meaningful).
        losses: total losses (same role).
        collision_free: whether the run had zero losses of any type.
    """

    stations: int
    load: float
    duration_slots: float
    seed: int
    wall_s: float
    events: int
    events_per_s: float
    deliveries: int
    losses: int
    collision_free: bool


def run_perf_scenario(
    stations: int = 100,
    load: float = 0.1,
    duration_slots: float = 60.0,
    seed: int = 29,
) -> PerfSample:
    """Run the loaded-network scenario once and time it.

    The run itself is fully deterministic (seeded placement, traffic,
    and schedules); only the wall-clock observation varies between
    hosts and runs.
    """
    from repro.experiments.simsetup import run_loaded_network

    began = time.perf_counter()  # reprolint: disable=REP002
    network, result = run_loaded_network(
        stations,
        load,
        duration_slots,
        placement_seed=seed + stations,
        traffic_seed=seed,
    )
    wall_s = time.perf_counter() - began  # reprolint: disable=REP002
    events = network.env.events_processed
    return PerfSample(
        stations=stations,
        load=load,
        duration_slots=duration_slots,
        seed=seed,
        wall_s=wall_s,
        events=events,
        events_per_s=events / wall_s if wall_s > 0.0 else float("inf"),
        deliveries=result.hop_deliveries,
        losses=result.losses_total,
        collision_free=result.collision_free,
    )


@dataclass(frozen=True)
class MetroPerfSample:
    """One timed metro-scale run over the sparse medium.

    Build and simulation are timed separately: the tiled CSR build is
    a one-off Theta(M^2) pass holding O(nnz) output plus O(chunk x
    tile) transient memory, while the simulation's events/s is the
    figure comparable against the dense medium's.

    Attributes:
        stations: network size M.
        load: offered load in packets per slot per station.
        duration_slots: simulated arrival horizon in slots.
        seed: scene seed (traffic uses the perf convention ``seed``
            with placement at ``seed + stations``).
        build_wall_s: wall-clock time of the scene build.
        wall_s: wall-clock time of the simulation run alone.
        events: simulation events processed.
        events_per_s: simulation throughput, ``events / wall_s``.
        transmitted: packets that went on the air.
        deliveries: successful receptions (correctness fingerprint).
        losses: lost transmissions (same role).
        collision_free: whether every transmitted packet arrived.
        nnz: stored CSR entries (the sparse structure's size).
        csr_memory_mb: bytes held by the CSR arrays, in MB.
        max_field_error_bound_w: largest provable culling-error bound
            observed during the run (the approximation witness).
    """

    stations: int
    load: float
    duration_slots: float
    seed: int
    build_wall_s: float
    wall_s: float
    events: int
    events_per_s: float
    transmitted: int
    deliveries: int
    losses: int
    collision_free: bool
    nnz: int
    csr_memory_mb: float
    max_field_error_bound_w: float


def run_metro_perf_scenario(
    stations: int = 10_000,
    load: float = 0.05,
    duration_slots: float = 20.0,
    seed: int = 29,
) -> MetroPerfSample:
    """Build and run one metro scene, timing build and run separately.

    Same determinism contract as :func:`run_perf_scenario`: the scene
    and its event sequence are fully seed-determined; only the
    wall-clock observations vary between hosts.
    """
    from repro.analysis.metro import build_metro_scene, run_metro_scene

    build_began = time.perf_counter()  # reprolint: disable=REP002
    scene = build_metro_scene(stations, seed=seed + stations)
    build_wall_s = time.perf_counter() - build_began  # reprolint: disable=REP002
    began = time.perf_counter()  # reprolint: disable=REP002
    result = run_metro_scene(
        scene, load=load, duration_slots=duration_slots, traffic_seed=seed
    )
    wall_s = time.perf_counter() - began  # reprolint: disable=REP002
    return MetroPerfSample(
        stations=stations,
        load=load,
        duration_slots=duration_slots,
        seed=seed,
        build_wall_s=build_wall_s,
        wall_s=wall_s,
        events=result.events,
        events_per_s=result.events / wall_s if wall_s > 0.0 else float("inf"),
        transmitted=result.transmitted,
        deliveries=result.deliveries,
        losses=result.losses_total,
        collision_free=result.collision_free,
        nnz=scene.gain_field.nnz,
        csr_memory_mb=scene.gain_field.memory_bytes / 1e6,
        max_field_error_bound_w=result.max_field_error_bound_w,
    )


def format_metro_samples(samples: Sequence[MetroPerfSample]) -> str:
    """Human-readable table of metro perf samples."""
    lines = [
        f"{'stations':>8s} {'load':>6s} {'build_s':>8s} {'wall_s':>8s} "
        f"{'events':>9s} {'events/s':>9s} {'deliv':>7s} {'losses':>7s} "
        f"{'csr_mb':>8s}"
    ]
    for sample in samples:
        lines.append(
            f"{sample.stations:>8d} {sample.load:>6.2f} "
            f"{sample.build_wall_s:>8.2f} {sample.wall_s:>8.2f} "
            f"{sample.events:>9d} {sample.events_per_s:>9.0f} "
            f"{sample.deliveries:>7d} {sample.losses:>7d} "
            f"{sample.csr_memory_mb:>8.1f}"
        )
    return "\n".join(lines)


def format_samples(samples: Sequence[PerfSample]) -> str:
    """Human-readable table of perf samples."""
    lines = [
        f"{'stations':>8s} {'load':>6s} {'slots':>6s} {'wall_s':>8s} "
        f"{'events':>9s} {'events/s':>9s} {'deliv':>7s} {'losses':>7s}"
    ]
    for sample in samples:
        lines.append(
            f"{sample.stations:>8d} {sample.load:>6.2f} "
            f"{sample.duration_slots:>6.0f} {sample.wall_s:>8.3f} "
            f"{sample.events:>9d} {sample.events_per_s:>9.0f} "
            f"{sample.deliveries:>7d} {sample.losses:>7d}"
        )
    return "\n".join(lines)


def write_report(
    path: str,
    samples: Sequence[PerfSample],
    notes: Optional[Dict[str, object]] = None,
    metro: Optional[Sequence[MetroPerfSample]] = None,
) -> None:
    """Write perf samples as a JSON report (the ``BENCH_medium.json``
    format: a ``scenarios`` list plus free-form ``notes``; metro-scale
    samples land in a separate ``metro_scenarios`` list because their
    workload and fields differ)."""
    payload: Dict[str, object] = {
        "unit": "events/sec = Environment.events_processed / wall seconds",
        "workload": (
            "repro.experiments.simsetup.run_loaded_network(stations, load, "
            "duration_slots, placement_seed=seed+stations, traffic_seed=seed)"
        ),
        "scenarios": [asdict(sample) for sample in samples],
    }
    if metro:
        payload["metro_workload"] = (
            "repro.analysis.metro.run_metro_scene over "
            "build_metro_scene(stations, seed=seed+stations) — sparse CSR "
            "medium, nearest-neighbour Poisson traffic(traffic_seed=seed)"
        )
        payload["metro_scenarios"] = [asdict(sample) for sample in metro]
    if notes:
        payload["notes"] = notes
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")


def _samples_from_json(path: str) -> List[PerfSample]:
    """Read back a report written by :func:`write_report`."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return [PerfSample(**scenario) for scenario in payload["scenarios"]]


__all__.append("_samples_from_json")
