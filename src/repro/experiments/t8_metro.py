"""Experiment T8: the metro-scale projection (abstract claim).

"... a self-organizing packet radio network may scale to millions of
stations within a metro area with raw per-station rates in the hundreds
of megabits per second."  This experiment tabulates the projection for
a range of scales and assumptions, from the abstract's optimistic case
to the conservative Section 6 design point, and checks the supporting
spot values (4 b/s/kHz at SNR 0.01 per the Shannon formula, negligible
thermal noise).

Beyond the closed-form projection, the experiment now *simulates* at
metro scale: ``simulate_stations`` selects station counts to drive
through the sparse CSR medium (:mod:`repro.analysis.metro`) — actual
discrete-event runs with power control, clock-offset schedules and
nearest-neighbour Poisson traffic, reporting deliveries, losses and
the provable culling-error bound per run.  The default exercises
10^4 stations; ``simulate_stations=(100_000,)`` runs the single-box
10^5-station scene (``repro run T8 --set
simulate_stations=[100000]``).  The benchmark's metro20k workload
(``python3 perf/run.py --workload metro20k``) times a 2·10^4-station
scene.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.capacity import bits_per_sec_per_khz
from repro.analysis.metro import (
    MetroProjection,
    build_metro_scene,
    run_metro_scene,
)
from repro.experiments.runner import ExperimentReport, register

__all__ = ["run"]


@register("T8")
def run(
    station_counts: Sequence[float] = (1e6, 1e7, 1e9),
    bandwidth_hz: float = 1e9,
    simulate_stations: Sequence[int] = (10_000,),
    simulate_load: float = 0.05,
    simulate_duration_slots: float = 20.0,
    simulate_seed: int = 29,
) -> ExperimentReport:
    """Tabulate metro projections across scales and assumptions."""
    report = ExperimentReport(
        experiment_id="T8",
        title="Metro-scale projection: millions of stations, 100s of Mb/s",
        columns=(
            "stations",
            "case",
            "SNR dB",
            "PG dB",
            "raw Mb/s",
            "sustained Mb/s",
            "aggregate Gb/s",
        ),
    )
    optimistic_raw = None
    for count in station_counts:
        for label, beta, doublings in (
            ("optimistic (abstract)", 1.0, 0.0),
            ("conservative (Sec. 6)", 3.0, 1.0),
        ):
            projection = MetroProjection(
                station_count=count,
                bandwidth_hz=bandwidth_hz,
                beta=beta,
                reach_doublings=doublings,
            )
            summary = projection.summary()
            report.add_row(
                f"{count:.0e}",
                label,
                summary["snr_db"],
                summary["processing_gain_db"],
                summary["raw_rate_mbps"],
                summary["sustained_rate_mbps"],
                summary["aggregate_rate_gbps"],
            )
            if count == 1e6 and label.startswith("optimistic"):
                optimistic_raw = summary["raw_rate_mbps"]

    if optimistic_raw is not None:
        report.claim(
            "raw per-station rate at 10^6 stations, 1 GHz",
            "hundreds of Mb/s",
            f"{optimistic_raw:.0f} Mb/s",
        )
    report.claim(
        "capacity at SNR 0.01 (b/s per kHz)",
        "~14 (the paper's C/W = 0.014 example)",
        bits_per_sec_per_khz(0.01),
    )
    million = MetroProjection(station_count=1e6, bandwidth_hz=bandwidth_hz)
    report.claim(
        "interference dominates thermal noise (dB)",
        ">> 0",
        million.thermal_noise_check(),
    )
    report.notes.append(
        "The optimistic case is the abstract's: Shannon-bound detection "
        "(beta = 1) at the characteristic hop.  The conservative case adds "
        "the 5 dB detection margin and the 6 dB reach doubling of Section 6."
    )

    for count in simulate_stations:
        scene = build_metro_scene(
            int(count), seed=simulate_seed + int(count)
        )
        outcome = run_metro_scene(
            scene,
            load=simulate_load,
            duration_slots=simulate_duration_slots,
            traffic_seed=simulate_seed,
        )
        summary = scene.summary()
        report.claim(
            f"simulated collision-free delivery at {int(count)} stations",
            "zero losses (Sec. 4 zero-collision design)",
            f"{outcome.deliveries} delivered, {outcome.losses_total} lost "
            f"({outcome.transmitted} transmitted, "
            f"{outcome.unscheduled} unschedulable)",
        )
        report.notes.append(
            f"simulated {int(count)} stations on the sparse medium: "
            f"{summary['nnz']:.0f} stored gains "
            f"({summary['mean_interferers']:.0f} mean interferers/station, "
            f"CSR {summary['csr_memory_mb']:.1f} MB vs dense "
            f"{summary['dense_memory_mb']:.0f} MB), "
            f"{outcome.events} events, max culling-error bound "
            f"{outcome.max_field_error_bound_w:.3g} W."
        )
    if simulate_stations:
        report.notes.append(
            "Metro simulations run the paper's MAC end to end over the "
            "horizon-culled CSR interference field; the single-box "
            "10^5-station run is repro run T8 --set "
            "simulate_stations=[100000]."
        )
    return report
