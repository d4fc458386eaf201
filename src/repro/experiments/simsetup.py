"""Shared setup helpers for the simulation-driven experiments."""

from __future__ import annotations

from typing import Optional, Tuple, Union

from repro.net.network import (
    MacFactory,
    Network,
    NetworkConfig,
    NetworkResult,
    build_network,
)
from repro.net.traffic import PoissonTraffic
from repro.propagation.geometry import uniform_disk
from repro.propagation.models import PropagationModel
from repro.sim.streams import RandomStreams

__all__ = ["standard_network", "add_uniform_poisson", "run_loaded_network"]


def standard_network(
    station_count: int,
    placement_seed: int,
    config: Optional[NetworkConfig] = None,
    mac: Union[str, MacFactory] = "shepard",
    model: Optional[PropagationModel] = None,
    radius: float = 1000.0,
    trace: bool = False,
) -> Network:
    """A uniform-disk network with the repository's default design.

    ``mac`` is a registered MAC name (see :func:`repro.mac.mac_names`)
    or an explicit per-station factory.  ``trace=True`` keeps the run's
    typed events in memory (``network.instrumentation.events()``);
    further sinks attach through :func:`repro.obs.use_instrumentation`.
    """
    placement = uniform_disk(station_count, radius=radius, seed=placement_seed)
    return build_network(
        placement,
        config or NetworkConfig(),
        model=model,
        mac=mac,
        trace=trace,
    )


def add_uniform_poisson(
    network: Network,
    packets_per_slot: float,
    traffic_seed: int,
    size_bits: Optional[float] = None,
) -> None:
    """Attach a Poisson source to every station: uniform destinations.

    Args:
        packets_per_slot: per-station arrival rate in packets per slot
            time (the natural load unit of the scheduling analysis).
        traffic_seed: seed for the shared traffic stream.
        size_bits: packet size (defaults to the network's configured
            size so that packets fill a quarter slot exactly).
    """
    if packets_per_slot <= 0.0:
        raise ValueError("load must be positive")
    rng = RandomStreams(traffic_seed).stream("traffic")
    rate = packets_per_slot / network.budget.slot_time
    size = size_bits if size_bits is not None else network.config.packet_size_bits
    destinations = list(range(network.station_count))
    for origin in range(network.station_count):
        network.add_traffic(
            PoissonTraffic(
                origin=origin,
                rate=rate,
                destinations=destinations,
                size_bits=size,
                rng=rng,
            )
        )


def run_loaded_network(
    station_count: int,
    packets_per_slot: float,
    duration_slots: float,
    placement_seed: int = 7,
    traffic_seed: int = 99,
    config: Optional[NetworkConfig] = None,
    mac: Union[str, MacFactory] = "shepard",
    trace: bool = False,
) -> Tuple[Network, "NetworkResult"]:
    """Build, load, and run a standard network; returns (network, result)."""
    network = standard_network(
        station_count,
        placement_seed,
        config,
        mac,
        trace=trace,
    )
    add_uniform_poisson(network, packets_per_slot, traffic_seed)
    result = network.run(duration_slots * network.budget.slot_time)
    return network, result
