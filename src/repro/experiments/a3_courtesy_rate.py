"""Ablation A3: what the Section 7.3 courtesy buys.

Respecting near neighbours' receive windows caps how much any single
station can contribute to a receiver's in-window interference, which
lets the design-rate calibration budget against a smaller worst case
and therefore fix a *higher* system data rate.  This ablation builds
the same placements with the courtesy on and off and compares the
calibrated rate, the implied processing gain, and a loaded run's
delivered throughput (both stay loss-free; the courtesy's win is rate,
not loss).
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.runner import ExperimentReport, register
from repro.experiments.simsetup import run_loaded_network
from repro.net.network import PACKET_SIZE_BITS, NetworkConfig

__all__ = ["run"]


@register("A3")
def run(
    station_counts: Sequence[int] = (30, 60),
    load_packets_per_slot: float = 0.05,
    duration_slots: float = 300.0,
    seed: int = 103,
) -> ExperimentReport:
    """Compare calibration and throughput with the courtesy on/off."""
    report = ExperimentReport(
        experiment_id="A3",
        title="Ablation: Section 7.3 courtesy vs design rate",
        columns=(
            "stations",
            "courtesy",
            "data rate (bit/s)",
            "PG (dB)",
            "bits delivered /s",
            "losses",
        ),
    )
    gains = []
    for count in station_counts:
        rates = {}
        for courtesy in (True, False):
            config = NetworkConfig(seed=seed, respect_neighbors=courtesy)
            network, result = run_loaded_network(
                count,
                load_packets_per_slot,
                duration_slots,
                placement_seed=seed + count,
                traffic_seed=seed + 1,
                config=config,
            )
            budget = network.budget
            goodput = result.hop_deliveries * PACKET_SIZE_BITS / result.duration
            rates[courtesy] = budget.data_rate_bps
            report.add_row(
                count,
                "on" if courtesy else "off",
                budget.data_rate_bps,
                budget.processing_gain_db,
                goodput,
                result.losses_total,
            )
            report.claims.setdefault(
                f"losses at {count} stations (courtesy {'on' if courtesy else 'off'})",
                (0, result.losses_total),
            )
        gains.append(rates[True] / rates[False])

    report.claim(
        "design-rate gain from the courtesy (ratio on/off)",
        "> 1 (capped worst case -> higher rate)",
        min(gains),
    )
    report.notes.append(
        "Both variants are loss-free by construction; the courtesy's "
        "benefit is a tighter interference bound, hence a faster system. "
        "Its cost is scheduling friction (fewer usable windows near "
        "protected receivers), visible when the rate gain is modest."
    )
    return report
