"""Experiment T2: receive-duty-cycle sweep (thesis result, Section 7.2).

"In [8] the parameters of this scheduling method are explored and a 30%
receive-duty cycle is found to be nearly-optimal for a wide range of
situations."  This experiment sweeps p over loaded networks and reports
delivered throughput per p; the reproduction claim is that the optimum
sits near 0.3 and the curve is flat-topped (nearly-optimal over a
range), not that any absolute throughput matches.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence

from repro.experiments.runner import ExperimentReport, register
from repro.experiments.simsetup import run_loaded_network
from repro.net.network import NetworkConfig

__all__ = ["run", "run_duty_point"]


def run_duty_point(
    receive_fraction: float,
    station_count: int = 40,
    load_packets_per_slot: float = 0.25,
    duration_slots: float = 600.0,
    placement_seed: int = 31,
    traffic_seed: int = 32,
    config_seed: int = 31,
) -> Dict[str, Any]:
    """One ``(p, seeds)`` point of the duty-cycle sweep: ``run`` passes
    ``(seed, seed + 1, seed)`` as the placement, traffic and
    configuration seeds."""
    config = NetworkConfig(receive_fraction=receive_fraction, seed=config_seed)
    _, result = run_loaded_network(
        station_count,
        load_packets_per_slot,
        duration_slots,
        placement_seed=placement_seed,
        traffic_seed=traffic_seed,
        config=config,
    )
    return {
        "hop_deliveries": result.hop_deliveries,
        "e2e_deliveries": result.delivered_end_to_end,
        "hop_rate": result.hop_deliveries / duration_slots,
        "mean_duty": result.mean_duty_cycle,
        "unreachable_drops": result.unreachable_drops,
        "no_route_drops": result.no_route_drops,
    }


@register("T2")
def run(
    receive_fractions: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.7),
    station_count: int = 40,
    load_packets_per_slot: float = 0.25,
    duration_slots: float = 600.0,
    seed: int = 31,
) -> ExperimentReport:
    """Sweep p and measure network throughput.

    Every p runs on the same placement and traffic: placement and
    configuration from ``seed``, traffic from ``seed + 1``.  Seeded
    replications of the sweep come from ``repro sweep
    --replications``.
    """
    if not receive_fractions:
        raise ValueError("need at least one receive fraction")
    report = ExperimentReport(
        experiment_id="T2",
        title="Receive-duty-cycle sweep: p ~= 0.3 is near-optimal [thesis]",
        columns=(
            "p",
            "hop deliveries",
            "e2e deliveries",
            "hop throughput /slot",
            "mean duty",
            "unreachable drops",
            "no-route drops",
        ),
    )
    throughputs: Dict[float, float] = {}
    for p in receive_fractions:
        point = run_duty_point(
            p,
            station_count=station_count,
            load_packets_per_slot=load_packets_per_slot,
            duration_slots=duration_slots,
            placement_seed=seed,
            traffic_seed=seed + 1,
            config_seed=seed,
        )
        throughputs[p] = point["hop_rate"]
        report.add_row(
            p,
            point["hop_deliveries"],
            point["e2e_deliveries"],
            point["hop_rate"],
            point["mean_duty"],
            point["unreachable_drops"],
            point["no_route_drops"],
        )
    best = max(throughputs, key=throughputs.get)
    report.claim("near-optimal receive duty cycle", 0.3, best)
    best_rate = throughputs[best]
    if 0.3 in throughputs and best_rate > 0:
        report.claim(
            "throughput at p=0.3 relative to best",
            "~1 (flat-topped)",
            throughputs[0.3] / best_rate,
        )
    report.notes.append(
        "Throughput is hop deliveries per slot across the network, under "
        "saturating uniform Poisson load; identical placement/traffic per p."
    )
    return report
