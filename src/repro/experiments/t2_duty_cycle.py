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

from repro.experiments.runner import ExperimentReport, register, run_many
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
    """One ``(p, seeds)`` point of the duty-cycle sweep.

    The importable unit of work the parallel task layer fans out; seeds
    are explicit so replications can vary them while replication 0
    keeps the legacy ``(seed, seed + 1, seed)`` assignment bit-exactly.
    """
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
        "p": receive_fraction,
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
    replications: int = 1,
    jobs: int = 1,
) -> ExperimentReport:
    """Sweep p and measure network throughput.

    With ``replications > 1`` each p runs that many independently
    seeded times: replication 0 keeps the legacy seed assignment, later
    replications derive seeds from the seed tree keyed by ``(p index,
    replication)``, so the task list — and every result — is the same
    at any worker count.  Claims then use mean throughput per p and the
    report gains a ``rep`` column.
    """
    from repro.parallel.seedtree import SeedTree
    from repro.parallel.task import TaskSpec

    if not receive_fractions:
        raise ValueError("need at least one receive fraction")
    if replications < 1:
        raise ValueError("replications must be >= 1")
    replicated = replications > 1
    report = ExperimentReport(
        experiment_id="T2",
        title="Receive-duty-cycle sweep: p ~= 0.3 is near-optimal [thesis]",
        columns=(
            ("p", "rep") if replicated else ("p",)
        ) + (
            "hop deliveries",
            "e2e deliveries",
            "hop throughput /slot",
            "mean duty",
            "unreachable drops",
            "no-route drops",
        ),
    )
    tree = SeedTree(seed, "T2")
    specs = []
    for index, p in enumerate(receive_fractions):
        for replication in range(replications):
            if replication == 0:
                placement_seed, traffic_seed, config_seed = seed, seed + 1, seed
            else:
                placement_seed = tree.seed(index, replication, "placement")
                traffic_seed = tree.seed(index, replication, "traffic")
                config_seed = tree.seed(index, replication, "config")
            specs.append(
                TaskSpec(
                    task_id=f"T2[p={p!r}]#r{replication}",
                    kind="function",
                    target="repro.experiments.t2_duty_cycle:run_duty_point",
                    params={
                        "receive_fraction": p,
                        "station_count": station_count,
                        "load_packets_per_slot": load_packets_per_slot,
                        "duration_slots": duration_slots,
                        "placement_seed": placement_seed,
                        "traffic_seed": traffic_seed,
                        "config_seed": config_seed,
                    },
                )
            )
    outcomes = run_many(specs, jobs=jobs)
    throughputs: Dict[float, float] = {}
    for spec_index, outcome in enumerate(outcomes):
        if not outcome.ok or outcome.payload is None:
            raise RuntimeError(
                f"duty point {outcome.task_id} failed: {outcome.error}"
            )
        point = outcome.payload
        p = point["p"]
        replication = spec_index % replications
        throughputs[p] = throughputs.get(p, 0.0) + point["hop_rate"]
        prefix = (p, replication) if replicated else (p,)
        report.add_row(
            *prefix,
            point["hop_deliveries"],
            point["e2e_deliveries"],
            point["hop_rate"],
            point["mean_duty"],
            point.get("unreachable_drops", 0),
            point.get("no_route_drops", 0),
        )
    throughputs = {p: total / replications for p, total in throughputs.items()}
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
    if replicated:
        report.notes.append(
            f"{replications} seeded replications per p (rep 0 = legacy "
            "seeds, later reps seed-tree derived); claims use mean hop "
            "throughput per p."
        )
    return report
