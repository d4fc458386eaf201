"""Ablation A6: spatial reuse — the scheme vs textbook TDMA (Section 2).

"An important idea in multihop packet radio networks is that the
channel can be spatially reused."  Section 2's textbook alternative —
globally synchronised, centrally coloured TDMA — also reuses space (two
stations far apart share a slot), but rations airtime at 1/C per
station regardless of demand.  The pseudo-random schedules instead let
any station transmit in up to (1-p) of time, with demand finding idle
air.

Measured here under saturation: mean concurrent transmissions (the
spatial-reuse factor), per-station airtime share, and delivered hop
throughput, for the paper's scheme, the TDMA baseline (granted free
global synchronisation and central control), and ALOHA.
"""

from __future__ import annotations

from repro.experiments.runner import ExperimentReport, register
from repro.experiments.simsetup import add_uniform_poisson, standard_network
from repro.mac.aloha import AlohaMac
from repro.mac.tdma import TdmaMac, build_tdma_plan
from repro.net.network import (
    LinkBudget,
    MacFactory,
    Network,
    NetworkConfig,
    NetworkResult,
)
from repro.sim.streams import RandomStreams

__all__ = ["run"]


def _mean_concurrency(network, duration: float) -> float:
    """Average number of simultaneous transmissions over the run."""
    airtime_total = sum(
        station.transmitter.time_transmitting for station in network.stations
    )
    return airtime_total / duration


@register("A6")
def run(
    station_count: int = 40,
    load_packets_per_slot: float = 0.3,
    duration_slots: float = 400.0,
    seed: int = 131,
) -> ExperimentReport:
    """Compare spatial reuse under saturating load."""
    report = ExperimentReport(
        experiment_id="A6",
        title="Spatial reuse: pseudo-random schedules vs textbook TDMA",
        columns=(
            "mac",
            "mean concurrency",
            "frame/airtime share",
            "hop deliveries",
            "losses",
        ),
    )
    concurrency = {}
    deliveries = {}

    def build_and_run(
        name: str, mac: "str | MacFactory", share_note: str
    ) -> "tuple[Network, NetworkResult]":
        config = NetworkConfig(seed=seed)
        network = standard_network(station_count, seed, config, mac=mac)
        add_uniform_poisson(network, load_packets_per_slot, seed + 1)
        result = network.run(duration_slots * network.budget.slot_time)
        reuse = _mean_concurrency(network, result.duration)
        concurrency[name] = reuse
        deliveries[name] = result.hop_deliveries
        report.add_row(name, reuse, share_note, result.hop_deliveries, result.losses_total)
        return network, result

    # The paper's scheme.
    build_and_run("shepard", "shepard", "<= 1-p = 0.7 per station")

    # Textbook TDMA, granted global sync and a central colouring.
    probe = standard_network(station_count, seed, NetworkConfig(seed=seed), trace=False)
    usable = probe.matrix.usable_links(probe.budget.min_gain)
    plan = build_tdma_plan(usable, probe.budget.packet_airtime)

    def tdma_factory(_index: int, _budget: "LinkBudget") -> TdmaMac:
        return TdmaMac(plan)

    build_and_run(
        "tdma", tdma_factory, f"1/{plan.frame_slots} per station"
    )

    streams = RandomStreams(seed + 2)
    build_and_run(
        "aloha",
        lambda i, b: AlohaMac(streams.stream(f"a{i}")),
        "uncontrolled",
    )

    report.claim(
        "both structured schemes exceed single-channel use (concurrency > 1)",
        "> 1",
        (concurrency["shepard"], concurrency["tdma"]),
    )
    report.claim(
        "scheme outdelivers TDMA at equal physics (ratio)",
        "> 1 (demand finds idle air; TDMA rations 1/C)",
        deliveries["shepard"] / max(deliveries["tdma"], 1),
    )
    report.claim(
        f"TDMA frame needed {plan.frame_slots} colours",
        "~ max hearing degree + 1",
        plan.frame_slots,
    )
    report.notes.append(
        "TDMA is granted perfect global synchronisation and a centrally "
        "computed conflict-free colouring — the two things Section 2 says "
        "are hard at scale; the scheme needs neither."
    )
    return report
