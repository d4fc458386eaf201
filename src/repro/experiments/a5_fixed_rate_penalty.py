"""Ablation A5: what fixing the system rate costs (Section 3.4).

"In general, stations might vary the rate at which they communicate
depending on the observed interference.  This work will assume that all
the stations will communicate at some rate that is fixed by the design."

The fixed rate must clear the *worst* receiver's interference bound, so
every better-placed receiver runs below its own Shannon-with-margin
potential.  This ablation computes, for random and clustered
placements, each receiver's individually achievable rate versus the
network-wide fixed rate, reporting the aggregate-capacity penalty of
the design simplification — the quantitative content of the paper's
"in general, stations might vary the rate".
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.reception import max_rate
from repro.experiments.runner import ExperimentReport, register
from repro.net.network import (
    BANDWIDTH_HZ,
    BETA,
    SAFETY_MARGIN,
    TARGET_DELIVERED_W,
    NetworkConfig,
    build_network,
)
from repro.propagation.geometry import clustered, uniform_disk

__all__ = ["run"]


def _rates(network) -> tuple:
    """(fixed rate, per-receiver achievable rates) for a built network."""
    budget = network.budget
    bounds = budget.interference_bounds + budget.thermal_noise_w
    per_receiver = np.array(
        [
            max_rate(
                BANDWIDTH_HZ,
                TARGET_DELIVERED_W / (SAFETY_MARGIN * float(bound)),
                BETA,
            )
            for bound in bounds
        ]
    )
    return budget.data_rate_bps, per_receiver


@register("A5")
def run(
    station_count: int = 100,
    seeds: Sequence[int] = (109, 113),
    seed_clustered: int = 127,
) -> ExperimentReport:
    """Quantify the aggregate-capacity cost of the fixed design rate."""
    report = ExperimentReport(
        experiment_id="A5",
        title="Ablation: the cost of a single design-fixed rate (Section 3.4)",
        columns=(
            "placement",
            "fixed rate (bit/s)",
            "median achievable",
            "best achievable",
            "aggregate penalty (x)",
        ),
    )
    penalties = []
    cases = [
        (f"uniform#{k}", uniform_disk(station_count, radius=1000.0, seed=s))
        for k, s in enumerate(seeds)
    ]
    cases.append(
        (
            "clustered",
            clustered(
                cluster_count=max(station_count // 20, 4),
                per_cluster=20,
                radius=1000.0,
                cluster_spread=0.05,
                seed=seed_clustered,
            ),
        )
    )
    for label, placement in cases:
        network = build_network(placement, NetworkConfig(seed=1))
        fixed, per_receiver = _rates(network)
        aggregate_variable = float(per_receiver.sum())
        aggregate_fixed = fixed * len(per_receiver)
        penalty = aggregate_variable / aggregate_fixed
        penalties.append((label, penalty))
        report.add_row(
            label,
            fixed,
            float(np.median(per_receiver)),
            float(per_receiver.max()),
            penalty,
        )

    uniform_penalty = np.mean([p for l, p in penalties if l.startswith("uniform")])
    clustered_penalty = next(p for l, p in penalties if l == "clustered")
    report.claim(
        "aggregate capacity left on the table (uniform)",
        "moderate (> 1x)",
        float(uniform_penalty),
    )
    report.claim(
        "penalty grows with density variation (clustered / uniform)",
        "> 1",
        float(clustered_penalty / uniform_penalty),
    )
    report.notes.append(
        "Achievable rates invert the reception criterion against each "
        "receiver's own interference bound with the same safety margin; "
        "the fixed rate is the minimum over receivers.  Variable-rate "
        "operation is the paper's acknowledged, unexplored generalisation "
        "(and would interact with the quarter-slot packing)."
    )
    return report
