"""Experiment T10: minimum-energy versus minimum-hop routing (§6.2).

The trade the paper describes: minimum-energy routes "respect the local
density and will not skip over intermediate hops", minimising each
packet's interference contribution — at the cost of latency ("the
multitude of store-and-forward delays ... will adversely affect
delay").  Measured here both statically (route energies and hop counts
over the propagation matrix) and dynamically (delivered delay and
per-packet radiated energy in simulation).
"""

from __future__ import annotations

import numpy as np

from repro.experiments.runner import ExperimentReport, register
from repro.experiments.simsetup import run_loaded_network
from repro.net.network import NetworkConfig
from repro.obs.events import Delivered
from repro.propagation.geometry import uniform_disk
from repro.propagation.matrix import PropagationMatrix
from repro.propagation.models import FreeSpace
from repro.routing.min_energy import min_energy_tables, route_energy
from repro.routing.min_hop import min_hop_tables
from repro.routing.table import trace_route

__all__ = ["run"]


def _static_comparison(station_count: int, seed: int) -> dict:
    placement = uniform_disk(station_count, radius=1000.0, seed=seed)
    model = FreeSpace(near_field_clamp=1e-6)
    matrix = PropagationMatrix.from_placement(placement, model)
    reach = 2.0 * placement.characteristic_length
    min_gain = float(model.power_gain(reach))
    censored = matrix.observed(min_gain=min_gain)
    energy_tables = min_energy_tables(censored)
    hop_tables = min_hop_tables(censored, min_gain)

    rng = np.random.default_rng(seed)
    energies = {"min_energy": [], "min_hop": []}
    hops = {"min_energy": [], "min_hop": []}
    sampled = 0
    while sampled < 200:
        source = int(rng.integers(station_count))
        destination = int(rng.integers(station_count))
        if source == destination:
            continue
        if not (
            energy_tables[source].has_route(destination)
            and hop_tables[source].has_route(destination)
        ):
            continue
        sampled += 1
        for name, tables in (("min_energy", energy_tables), ("min_hop", hop_tables)):
            path = trace_route(tables, source, destination)
            energies[name].append(route_energy(censored, path))
            hops[name].append(len(path) - 1)
    return {
        "energy_ratio": float(
            np.mean(energies["min_hop"]) / np.mean(energies["min_energy"])
        ),
        "mean_hops_energy": float(np.mean(hops["min_energy"])),
        "mean_hops_minhop": float(np.mean(hops["min_hop"])),
    }


@register("T10")
def run(
    station_count: int = 60,
    load_packets_per_slot: float = 0.02,
    duration_slots: float = 400.0,
    seed: int = 59,
) -> ExperimentReport:
    """Compare the two routing criteria statically and in simulation."""
    report = ExperimentReport(
        experiment_id="T10",
        title="Minimum-energy vs minimum-hop routing trade-off (Section 6.2)",
        columns=("routing", "mean hops", "mean delay (slots)", "energy/packet", "losses"),
    )

    static = _static_comparison(max(station_count, 150), seed)
    report.claim(
        "interference energy ratio (min-hop / min-energy)",
        "> 1 (min-energy radiates less)",
        static["energy_ratio"],
    )
    report.claim(
        "hop-count ratio (min-energy / min-hop)",
        "> 1 (the latency price)",
        static["mean_hops_energy"] / static["mean_hops_minhop"],
    )

    for label, min_hop in (("min_energy", False), ("min_hop", True)):
        config = NetworkConfig(seed=seed, min_hop_routing=min_hop)
        network, result = run_loaded_network(
            station_count,
            load_packets_per_slot,
            duration_slots,
            placement_seed=seed,
            traffic_seed=seed + 1,
            config=config,
            trace=True,
        )
        energy = _mean_packet_energy(network)
        slot = network.budget.slot_time
        report.add_row(
            label,
            result.mean_hops,
            result.mean_delay / slot if result.mean_delay == result.mean_delay else float("nan"),
            energy,
            result.losses_total,
        )
    report.notes.append(
        "Energy per packet is the sum of radiated hop energies of delivered "
        "packets (joules in the simulation's normalised power units).  Both "
        "runs share placement and traffic; only the route criterion differs."
    )
    return report


def _mean_packet_energy(network) -> float:
    """Mean radiated energy of end-to-end-delivered packets (trace-fed)."""
    energies = [
        event.energy_j
        for event in network.instrumentation.events()
        if isinstance(event, Delivered)
    ]
    if not energies:
        return float("nan")
    return float(np.mean(energies))
