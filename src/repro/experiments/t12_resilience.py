"""Experiment T12: resilience under station churn, per MAC.

The paper's self-organisation argument (Sections 1 and 6) is that a
large dense network must survive stations appearing and disappearing
without operator action.  This experiment injects a deterministic
churn episode (crash/recover cycles drawn from the fault seed tree)
into the T7 shootout networks and measures, per MAC and churn rate:
the pre-fault delivery ratio, the ratio during the churn episode, how
long after the episode delivery returns to within 5% of the pre-fault
steady state, and the routing layer's mean time-to-reroute.

Expected shape: every MAC loses deliveries while stations are down
(those losses are physics, not protocol); the scheme recovers its
steady-state delivery ratio once churn stops, and rerouting latency is
set by the injected reroute delay, not by the MAC.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.runner import ExperimentReport, register
from repro.experiments.simsetup import add_uniform_poisson, standard_network
from repro.faults import StationChurn, compile_plan, install_faults
from repro.faults.resilience import split_losses, window_ratio
from repro.mac.registry import get_mac, mac_names
from repro.net.network import NetworkConfig
from repro.parallel.seedtree import derive_seed

__all__ = ["RECOVERY_FRACTION", "run", "run_resilience_point"]

#: Recovery criterion: a post-churn window counts as recovered once its
#: delivery ratio reaches this fraction of the pre-fault steady state.
RECOVERY_FRACTION = 0.95


def run_resilience_point(
    churn_rate: float,
    station_count: int = 24,
    warmup_slots: float = 150.0,
    churn_slots: float = 150.0,
    recovery_slots: float = 300.0,
    window_slots: float = 50.0,
    mean_downtime_slots: float = 40.0,
    load_packets_per_slot: float = 0.05,
    seed: int = 47,
    macs: Optional[Sequence[str]] = None,
) -> Dict[str, Any]:
    """One churn-rate point: every requested MAC through the same fault
    schedule.

    The churn plan is compiled once per point from the fault seed tree,
    so every MAC faces the identical crash/recover schedule and the
    point is bit-reproducible.

    Returns the report rows plus the recovery tallies the summary
    claims accumulate.
    """
    if churn_rate <= 0.0:
        raise ValueError("churn_rate must be positive")
    if warmup_slots <= window_slots:
        raise ValueError("warmup must be longer than one measurement window")
    if macs is None:
        names = mac_names()
    else:
        names = tuple(macs)
        for name in names:
            get_mac(name)  # fail fast on unknown names
    churn = StationChurn(
        rate_per_slot=churn_rate,
        start_slot=warmup_slots,
        end_slot=warmup_slots + churn_slots,
        mean_downtime_slots=mean_downtime_slots,
    )
    plan = compile_plan(
        [churn],
        seed=derive_seed(seed, "t12", "churn"),
        station_count=station_count,
    )
    rows: List[Tuple[Any, ...]] = []
    recoveries: Dict[str, float] = {}
    for name in names:
        network = standard_network(
            station_count,
            placement_seed=seed,
            config=NetworkConfig(seed=seed),
            mac=name,
        )
        add_uniform_poisson(network, load_packets_per_slot, seed + 1)
        injector = install_faults(network, plan)
        assert injector is not None  # churn_rate > 0 always emits events
        slot = network.budget.slot_time

        # The first window absorbs the pipeline-fill transient (deliveries
        # lag originations until queues reach steady state) and is
        # excluded from the pre-fault baseline.  Each result's counters
        # are cumulative over the network's whole run.
        fill_snapshot = network.run(window_slots * slot)
        pre_snapshot = network.run((warmup_slots - window_slots) * slot)
        pre_ratio = window_ratio(fill_snapshot, pre_snapshot)

        churn_snapshot = network.run(churn_slots * slot)
        churn_ratio = window_ratio(pre_snapshot, churn_snapshot)

        threshold = RECOVERY_FRACTION * pre_ratio
        recovery_latency = float("nan")
        final_ratio = float("nan")
        elapsed = 0.0
        last = churn_snapshot
        while elapsed < recovery_slots:
            snapshot = network.run(window_slots * slot)
            elapsed += window_slots
            final_ratio = window_ratio(last, snapshot)
            last = snapshot
            if math.isnan(recovery_latency) and final_ratio >= threshold:
                recovery_latency = elapsed

        reroute_slots = injector.log.mean_time_to_reroute() / slot
        fault_losses, sir_losses = split_losses(last.losses_by_reason)
        rows.append(
            (
                name,
                churn_rate,
                len(injector.log.crashes),
                pre_ratio,
                churn_ratio,
                final_ratio,
                recovery_latency,
                reroute_slots,
                fault_losses,
                sir_losses,
                last.fault_drops,
                last.arq_retries,
                last.arq_giveups,
            )
        )
        recoveries[name] = (
            final_ratio / pre_ratio if pre_ratio > 0 else float("nan")
        )
    return {"rows": rows, "recoveries": recoveries}


@register("T12")
def run(
    churn_rates: Sequence[float] = (0.01, 0.03),
    station_count: int = 24,
    warmup_slots: float = 150.0,
    churn_slots: float = 150.0,
    recovery_slots: float = 300.0,
    window_slots: float = 50.0,
    mean_downtime_slots: float = 40.0,
    load_packets_per_slot: float = 0.05,
    seed: int = 47,
    macs: Optional[Sequence[str]] = None,
) -> ExperimentReport:
    """Delivery ratio and recovery latency versus churn rate, per MAC.

    Runs :func:`run_resilience_point` at each churn rate in turn and
    keeps the rows in churn-rate order.
    """
    report = ExperimentReport(
        experiment_id="T12",
        title="Resilience under deterministic station churn",
        columns=(
            "mac",
            "churn/slot",
            "crashes",
            "pre-fault ratio",
            "churn ratio",
            "recovered ratio",
            "recovery (slots)",
            "reroute (slots)",
            "fault losses",
            "sir losses",
            "fault drops",
            "arq retries",
            "arq giveups",
        ),
    )
    shepard_recoveries: List[float] = []
    for rate in churn_rates:
        point = run_resilience_point(
            rate,
            station_count=station_count,
            warmup_slots=warmup_slots,
            churn_slots=churn_slots,
            recovery_slots=recovery_slots,
            window_slots=window_slots,
            mean_downtime_slots=mean_downtime_slots,
            load_packets_per_slot=load_packets_per_slot,
            seed=seed,
            macs=macs,
        )
        for row in point["rows"]:
            report.add_row(*row)
        recovered = point["recoveries"].get("shepard")
        if recovered is not None:
            shepard_recoveries.append(recovered)
    if shepard_recoveries:
        report.claim(
            "scheme post-churn delivery vs pre-fault steady state",
            f">= {RECOVERY_FRACTION}",
            min(shepard_recoveries),
        )
    report.notes.append(
        "Every MAC faces the identical seed-tree churn schedule; losses "
        "while stations are down are physics, so the discriminating "
        "columns are the recovered ratio and recovery latency."
    )
    return report
