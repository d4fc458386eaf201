"""Ablation A2: despreader-bank sizing versus Type 2 collisions.

Section 5: "With a sufficient number of despreading channels, packet
loss due to Type 2 collisions can be eliminated.  The number ... should
not be larger than the number of neighbors that might communicate
directly with the station."  This ablation sweeps the bank size on a
hotspot workload (everyone sends toward one gateway): with a single
channel, simultaneous arrivals at the gateway produce ``no_channel``
(Type 2) losses; with as many channels as inbound routing neighbours,
they vanish.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.collisions import CollisionType
from repro.experiments.runner import ExperimentReport, register
from repro.experiments.simsetup import standard_network
from repro.net.network import PACKET_SIZE_BITS, NetworkConfig
from repro.net.traffic import HotspotTraffic
from repro.sim.streams import RandomStreams

__all__ = ["run"]


@register("A2")
def run(
    channel_counts: Sequence[int] = (1, 2, 4, 8),
    station_count: int = 30,
    load_packets_per_slot: float = 0.08,
    duration_slots: float = 400.0,
    seed: int = 101,
) -> ExperimentReport:
    """Sweep despreader channels under gateway-convergent traffic."""
    report = ExperimentReport(
        experiment_id="A2",
        title="Ablation: despreader channels vs Type 2 collisions",
        columns=(
            "channels",
            "type2 losses",
            "gateway peak busy",
            "hop deliveries",
        ),
    )
    gateway = 0
    type2_at = {}
    for channels in channel_counts:
        config = NetworkConfig(seed=seed, despreader_channels=channels)
        network = standard_network(station_count, seed, config)
        rng = RandomStreams(seed + 1).stream("traffic")
        for origin in range(station_count):
            if origin == gateway:
                continue
            network.add_traffic(
                HotspotTraffic(
                    origin=origin,
                    rate=load_packets_per_slot / network.budget.slot_time,
                    hotspot=gateway,
                    hotspot_fraction=0.9,
                    destinations=list(range(station_count)),
                    size_bits=PACKET_SIZE_BITS,
                    rng=rng,
                )
            )
        result = network.run(duration_slots * network.budget.slot_time)
        type2 = result.losses_by_type.get(CollisionType.TYPE_2, 0)
        type2_at[channels] = type2
        report.add_row(
            channels,
            type2,
            network.stations[gateway].bank.peak_busy,
            result.hop_deliveries,
        )

    smallest, largest = min(channel_counts), max(channel_counts)
    report.claim(
        f"Type 2 losses with {smallest} channel(s)",
        "> 0 (bank overflows at the hotspot)",
        type2_at[smallest],
    )
    report.claim(
        f"Type 2 losses with {largest} channels",
        0,
        type2_at[largest],
    )
    report.notes.append(
        "Hotspot workload: 90% of all traffic converges on one gateway; "
        "identical placement/traffic per channel count.  GPS receivers of "
        "the paper's era already shipped 6-12 despreading channels."
    )
    return report
