#!/usr/bin/env python
"""Neighbourhood mesh: the paper's motivating deployment.

The introduction imagines spread-spectrum radios "purchased and
installed by the users" as "an alternative for running cables between
buildings": a roughly grid-like urban neighbourhood, with a couple of
dense clusters (apartment blocks), everyone reaching the internet
gateway at the corner.  This example builds that scenario end to end:

* jittered-grid placement plus two clusters, obstructed (log-normal
  shadowed) propagation rather than clean free space;
* hotspot traffic: 70% of every station's packets go to the gateway;
* imperfect clock models fitted from noisy rendezvous exchanges.

It reports how the scheme holds up: losses (still zero), the gateway's
despreader usage (Type 2 absorption at the traffic hotspot), delays by
distance from the gateway, and the route structure.

Run::

    python examples/neighborhood_mesh.py
"""

import numpy as np

import repro
from repro.net import HotspotTraffic, NetworkConfig
from repro.obs.events import Delivered
from repro.propagation import Placement, ObstructedUrban, jittered_grid
from repro.routing import trace_route
from repro.sim import RandomStreams


def build_neighborhood(seed: int = 11) -> Placement:
    """An 8x8 block grid with two apartment clusters appended."""
    rng = np.random.default_rng(seed)
    grid = jittered_grid(8, spacing=120.0, jitter=25.0, seed=seed)
    cluster_centres = np.array([[260.0, 310.0], [-330.0, -180.0]])
    cluster_points = np.vstack(
        [
            centre + rng.normal(0.0, 18.0, (6, 2))
            for centre in cluster_centres
        ]
    )
    positions = np.vstack([grid.positions, cluster_points])
    return Placement(positions, region_radius=grid.region_radius * 1.2)


def main() -> None:
    placement = build_neighborhood()
    count = placement.count
    gateway = 0  # the corner station with the wired uplink

    config = NetworkConfig(
        seed=11,
        # Real oscillators, real rendezvous: offsets modelled from
        # eight noisy exchanges, with a guard band absorbing the error.
        rendezvous_jitter=1e-3,
        rendezvous_count=8,
        guard_fraction=0.03,
        # The gateway needs headroom: many stations converge on it.
        despreader_channels=12,
    )
    def hotspot_traffic(network, _seed):
        rng = RandomStreams(13).stream("traffic")
        budget = network.budget
        for origin in range(count):
            if origin == gateway:
                continue
            network.add_traffic(
                HotspotTraffic(
                    origin=origin,
                    rate=0.03 / budget.slot_time,
                    hotspot=gateway,
                    hotspot_fraction=0.7,
                    destinations=list(range(count)),
                    size_bits=config.packet_size_bits,
                    rng=rng,
                )
            )

    outcome = repro.simulate(
        repro.Scenario(
            placement=placement,
            duration_slots=800.0,
            config=config,
            model=ObstructedUrban(
                shadowing_db=6.0, seed=3, near_field_clamp=1e-6
            ),
            traffic=hotspot_traffic,
        ),
        seed=11,
        trace=True,
    )
    network, result = outcome.network, outcome.result
    budget = network.budget

    print(f"Neighbourhood mesh: {count} stations, gateway at index {gateway}")
    print(f"  processing gain  : {budget.processing_gain_db:.1f} dB")
    print(f"  raw data rate    : {budget.data_rate_bps:,.0f} bit/s")

    print("\nTraffic outcome")
    print(f"  originated          : {result.originated}")
    print(f"  end-to-end delivered: {result.delivered_end_to_end}")
    print(f"  losses              : {result.losses_total}")
    print(f"  mean hops           : {result.mean_hops:.2f}")

    gateway_station = network.stations[gateway]
    print("\nGateway under hotspot load")
    print(f"  packets terminated  : {gateway_station.stats.delivered_to_me}")
    print(f"  peak despreader use : {gateway_station.bank.peak_busy} "
          f"of {config.despreader_channels} channels")
    print(f"  bank rejections     : {gateway_station.bank.rejections}")

    # Delay vs route length to the gateway: multihop in action.
    print("\nDelay by route length (delivered-to-gateway packets)")
    delays_by_hops = {}
    for event in network.instrumentation.events():
        if not isinstance(event, Delivered) or event.station != gateway:
            continue
        delays_by_hops.setdefault(event.hops, []).append(event.delay)
    for hops in sorted(delays_by_hops):
        delays = delays_by_hops[hops]
        print(
            f"  {hops}-hop routes: {len(delays):4d} packets, "
            f"mean delay {np.mean(delays) / budget.slot_time:6.1f} slots"
        )

    # A sample route toward the gateway.
    distances = np.sqrt(
        ((placement.positions - placement.positions[gateway]) ** 2).sum(axis=1)
    )
    far_station = int(np.argmax(distances))
    path = trace_route(network.tables, far_station, gateway)
    print(f"\nFarthest station ({far_station}, {distances[far_station]:.0f} m out) "
          f"routes via {len(path) - 1} hops: {' -> '.join(map(str, path))}")

    assert result.collision_free
    print("\nZero collisions despite shadowed propagation, hotspot "
          "convergence, and noisy clock models.")


if __name__ == "__main__":
    main()
