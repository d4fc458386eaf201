"""Experiment T7: the scheme versus the classical MAC lineage.

Section 2 positions the paper against ALOHA and the MACA line; the
comparison the paper implies — same physics, same routes, different
channel access — is run here.  Reported per MAC and offered load:
end-to-end deliveries, hop loss ratio, per-hop control overhead
(transmissions beyond the single data burst the paper's scheme pays),
and mean delivery delay.

Expected shape: the scheme delivers losslessly at all loads with
moderate delay; ALOHA variants lose increasingly with load (Type 3
dominates under the physical model); CSMA recovers most losses at the
cost of deferrals; MACA pays two control bursts per data packet; the
frontier contenders (SIC-ALOHA, multi-level power, SINR-adaptive)
recover part of the random-access loss without closing the gap.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.runner import ExperimentReport, register
from repro.experiments.simsetup import run_loaded_network
from repro.mac.maca import MacaMac
from repro.mac.registry import mac_names
from repro.net.network import Network, NetworkConfig, NetworkResult

__all__ = ["control_per_hop", "run", "run_load_point"]


def control_per_hop(network: Network, result: NetworkResult) -> float:
    """Control frames sent per hop delivery: T7's overhead column.

    Only MACA sends control frames, its RTS and CTS bursts, so every
    other MAC scores 0.
    """
    frames = sum(
        station.mac.rts_sent + station.mac.cts_sent
        for station in network.stations
        if isinstance(station.mac, MacaMac)
    )
    return frames / max(result.hop_deliveries, 1)


def run_load_point(
    load: float,
    station_count: int = 40,
    duration_slots: float = 500.0,
    seed: int = 47,
    macs: Optional[Sequence[str]] = None,
) -> Dict[str, Any]:
    """One offered-load point of the shootout: every MAC at ``load``.

    ``macs`` selects registered MAC names (``None`` = the whole
    registry, the paper's scheme first).  Returns the report rows plus
    the loss tallies the summary claims accumulate.
    """
    rows: List[Tuple[Any, ...]] = []
    shepard_losses = 0
    baseline_losses = 0
    for name in mac_names() if macs is None else tuple(macs):
        network, result = run_loaded_network(
            station_count,
            load,
            duration_slots,
            placement_seed=seed,
            traffic_seed=seed + 1,
            config=NetworkConfig(seed=seed),
            mac=name,
        )
        loss_ratio = (
            result.losses_total / result.transmissions
            if result.transmissions
            else 0.0
        )
        control = control_per_hop(network, result)
        slot = network.budget.slot_time
        mean_delay = result.mean_delay
        rows.append(
            (
                name,
                load,
                result.delivered_end_to_end,
                loss_ratio,
                control,
                mean_delay / slot
                if mean_delay == mean_delay
                else float("nan"),
                result.unreachable_drops,
                result.no_route_drops,
                result.arq_retries,
                result.arq_giveups,
            )
        )
        if name == "shepard":
            shepard_losses += result.losses_total
        else:
            baseline_losses += result.losses_total
    return {
        "rows": rows,
        "shepard_losses": shepard_losses,
        "baseline_losses": baseline_losses,
    }


@register("T7")
def run(
    loads_packets_per_slot: Sequence[float] = (0.02, 0.05, 0.1),
    station_count: int = 40,
    duration_slots: float = 500.0,
    seed: int = 47,
    macs: Optional[Sequence[str]] = None,
) -> ExperimentReport:
    """Throughput/loss/overhead versus offered load, per MAC.

    Runs :func:`run_load_point` at each offered load in turn and keeps
    the rows in load order.  ``macs`` restricts the contender list to
    the named registry entries.
    """
    report = ExperimentReport(
        experiment_id="T7",
        title="Channel access shootout under the physical model",
        columns=(
            "mac",
            "load/slot",
            "e2e delivered",
            "hop loss ratio",
            "ctrl per data",
            "mean delay (slots)",
            "unreachable drops",
            "no-route drops",
            "arq retries",
            "arq giveups",
        ),
    )
    shepard_losses = 0
    baseline_losses = 0
    for load in loads_packets_per_slot:
        point = run_load_point(load, station_count, duration_slots, seed, macs)
        for row in point["rows"]:
            report.add_row(*row)
        shepard_losses += point["shepard_losses"]
        baseline_losses += point["baseline_losses"]
    report.claim("scheme losses across all loads", 0, shepard_losses)
    report.claim("baseline losses across all loads", "> 0", baseline_losses)
    report.notes.append(
        "Baselines enjoy oracle ACKs, free synchronisation (slotted ALOHA), "
        "and SIR-checked overhearing (MACA) — every idealisation favours "
        "them; the reproduced gaps are therefore conservative."
    )
    return report
