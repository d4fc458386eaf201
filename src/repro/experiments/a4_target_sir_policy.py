"""Ablation A4: footnote 9's adaptive power policy.

"A better idea might be to transmit with power sufficient to just
achieve the necessary signal-to-noise ratio.  That would require
knowing what the noise levels at the receiver will be, but the recent
past might be a good-enough predictor ...  This idea will not be
explored further here."

We explore it: compare the paper's constant-delivered-power rule with
the footnote's target-SIR rule across receivers that differ in local
interference (a clustered placement makes the bounds heterogeneous).
The adaptive rule radiates less total power — it stops over-delivering
to receivers in quiet areas — while still clearing every threshold,
i.e. it trades the constant rule's simplicity for energy and
interference savings.
"""

from __future__ import annotations

import numpy as np

from repro.core.power_control import ConstantDeliveredPolicy, TargetSirPolicy
from repro.experiments.runner import ExperimentReport, register
from repro.net.network import TARGET_DELIVERED_W, NetworkConfig, build_network
from repro.propagation.geometry import clustered

__all__ = ["run"]


@register("A4")
def run(
    cluster_count: int = 6,
    per_cluster: int = 6,
    seed: int = 107,
    headroom: float = 1.2,
) -> ExperimentReport:
    """Compare the two power rules' radiated power and SIR margins."""
    report = ExperimentReport(
        experiment_id="A4",
        title="Ablation: footnote 9's target-SIR power rule",
        columns=(
            "policy",
            "total radiated (W)",
            "min SIR margin",
            "max over-delivery (x)",
        ),
    )
    placement = clustered(
        cluster_count=cluster_count,
        per_cluster=per_cluster,
        radius=1000.0,
        cluster_spread=0.06,
        seed=seed,
    )
    network = build_network(placement, NetworkConfig(seed=seed))
    budget = network.budget
    bounds = budget.interference_bounds + budget.thermal_noise_w

    constant = ConstantDeliveredPolicy(target_received_w=TARGET_DELIVERED_W)
    adaptive = TargetSirPolicy(
        target_sir=budget.sir_threshold * headroom,
        fallback_noise_w=float(bounds.max()),
    )

    for name, policy, knows_noise in (
        ("constant delivered (paper)", constant, False),
        ("target SIR (footnote 9)", adaptive, True),
    ):
        total_power = 0.0
        min_margin = np.inf
        max_over = 0.0
        for station in network.stations:
            for hop in station.table.neighbors_in_use():
                gain = network.matrix.gain(hop, station.index)
                observed = float(bounds[hop]) if knows_noise else None
                power = policy.transmit_power(
                    gain, max_power_w=1e18, observed_noise_w=observed
                )
                delivered = power * gain
                sir = delivered / float(bounds[hop])
                total_power += power
                min_margin = min(min_margin, sir / budget.sir_threshold)
                max_over = max(max_over, sir / budget.sir_threshold)
        report.add_row(name, total_power, float(min_margin), float(max_over))
        if knows_noise:
            adaptive_power = total_power
            adaptive_margin = float(min_margin)
        else:
            constant_power = total_power

    report.claim(
        "adaptive rule still clears every threshold",
        ">= 1",
        adaptive_margin,
    )
    report.claim(
        "radiated-power saving (constant / adaptive)",
        "> 1 (less over-delivery in quiet areas)",
        constant_power / adaptive_power,
    )
    report.notes.append(
        "SIR margins are against each receiver's worst-case interference "
        "bound.  The constant rule over-delivers to receivers whose local "
        "bound is far below the network-wide worst case — exactly the waste "
        "the footnote hypothesises the adaptive rule removes."
    )
    return report
