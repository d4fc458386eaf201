"""One-call simulation facade: scenario in, finished run out.

:func:`simulate` is the package's front door.  It wraps the full
build-load-fault-run pipeline behind a declarative :class:`Scenario`,
with the cross-cutting concerns — the seed, the fault plan, the
observability sinks — as explicit keyword arguments::

    import repro

    outcome = repro.simulate(repro.Scenario(station_count=40), seed=7)
    assert outcome.result.collision_free

    # Count the run's typed events by kind while it runs (the counters
    # themselves are in outcome.result):
    from repro.obs import Instrumentation, MetricTimelines
    timelines = MetricTimelines()
    outcome = repro.simulate(
        repro.Scenario(station_count=40),
        seed=7,
        instrumentation=Instrumentation((timelines,)),
    )
    print(timelines.kinds())

Everything stays bit-reproducible: the same scenario and seed produce
the same replay digest regardless of which sinks (if any) observe the
run, and fault plans compile through the seed tree exactly as the
experiment layer's do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from repro.net.network import (
    MacFactory,
    Network,
    NetworkConfig,
    NetworkResult,
    build_network,
)
from repro.obs.api import Instrumentation
from repro.propagation.geometry import Placement, uniform_disk
from repro.propagation.models import PropagationModel

__all__ = ["Scenario", "SimulationOutcome", "simulate"]


@dataclass(frozen=True)
class Scenario:
    """A declarative description of one simulated deployment.

    Attributes:
        station_count: number of stations (ignored when ``placement``
            is given).
        radius_m: radius of the uniform-disk deployment area (ignored
            when ``placement`` is given).
        load_packets_per_slot: per-station Poisson arrival rate in
            packets per slot (ignored when ``traffic`` is given).
        duration_slots: run length in slot times.
        config: network configuration; ``None`` derives
            ``NetworkConfig(seed=seed)`` from the simulate seed.
        model: propagation model (free space when ``None``).
        mac: which channel access scheme to run — a registered MAC
            name (see :func:`repro.mac.mac_names`) or an explicit
            per-station factory (the paper's scheme by default).
        placement: explicit station positions overriding the uniform
            disk.
        traffic: custom traffic installer called as
            ``traffic(network, seed)`` instead of the default uniform
            Poisson load; install sources with ``network.add_traffic``.
    """

    station_count: int = 100
    radius_m: float = 1000.0
    load_packets_per_slot: float = 0.05
    duration_slots: float = 500.0
    config: Optional[NetworkConfig] = None
    model: Optional[PropagationModel] = None
    mac: Union[str, MacFactory] = "shepard"
    placement: Optional[Placement] = None
    traffic: Optional[Callable[[Network, int], None]] = None

    def __post_init__(self) -> None:
        if self.placement is None and self.station_count < 2:
            raise ValueError("need at least two stations")
        if self.radius_m <= 0.0:
            raise ValueError("radius must be positive")
        if self.traffic is None and self.load_packets_per_slot <= 0.0:
            raise ValueError("load must be positive")
        if self.duration_slots <= 0.0:
            raise ValueError("duration must be positive")


@dataclass(frozen=True)
class SimulationOutcome:
    """What :func:`simulate` hands back.

    Attributes:
        network: the assembled (and now finished) network, for deeper
            inspection — routing tables, stations, the medium.
        result: the run's aggregate :class:`NetworkResult`.
        instrumentation: the facade the run emitted through; read its
            retained typed events (``events()``) or its sinks.
        injector: the installed fault injector, or ``None`` when the
            run had no faults.
    """

    network: Network
    result: NetworkResult
    instrumentation: Instrumentation
    injector: Optional[object] = None


def simulate(
    scenario: Scenario,
    *,
    seed: int,
    faults: Optional[Sequence[object]] = None,
    instrumentation: Optional[Instrumentation] = None,
    trace: bool = False,
    mac: Union[str, MacFactory, None] = None,
) -> SimulationOutcome:
    """Build, load, (optionally) fault, and run one scenario.

    Args:
        scenario: the deployment to simulate.
        seed: master seed; placement, configuration, traffic and fault
            expansion all derive from it deterministically.
        mac: override the scenario's channel access scheme for this run
            — a registered MAC name (see :func:`repro.mac.mac_names`)
            or an explicit per-station factory; ``None`` keeps
            ``scenario.mac``.  Lets one frozen scenario fan out across
            the whole MAC registry.
        faults: declarative fault specs (e.g.
            :class:`repro.faults.StationChurn`), compiled through the
            seed tree and installed before the run; ``None`` installs
            nothing (bit-identical to a run without fault support).
        instrumentation: typed-event facade whose sinks observe the
            run; ``None`` (with ``trace=False``) disables emission
            entirely at zero cost.
        trace: guarantee an in-memory sink, so
            ``outcome.instrumentation.events()`` holds the run's events.

    Returns:
        A :class:`SimulationOutcome` bundling the network, the
        aggregate result, the instrumentation facade and any installed
        fault injector.
    """
    placement = scenario.placement
    if placement is None:
        placement = uniform_disk(
            scenario.station_count, radius=scenario.radius_m, seed=seed
        )
    config = scenario.config or NetworkConfig(seed=seed)
    network = build_network(
        placement,
        config,
        model=scenario.model,
        mac=mac if mac is not None else scenario.mac,
        trace=trace,
        instrumentation=instrumentation,
    )

    if scenario.traffic is not None:
        scenario.traffic(network, seed)
    else:
        # Imported here: loading repro.experiments fills the experiment
        # registry, which a bare ``import repro`` does not need.
        from repro.experiments.simsetup import add_uniform_poisson

        add_uniform_poisson(network, scenario.load_packets_per_slot, seed + 1)

    injector = None
    if faults:
        from repro.faults import compile_plan, install_faults
        from repro.parallel.seedtree import derive_seed

        plan = compile_plan(
            list(faults),
            seed=derive_seed(seed, "simulate", "faults"),
            station_count=network.station_count,
        )
        injector = install_faults(network, plan)

    result = network.run(scenario.duration_slots * network.budget.slot_time)
    return SimulationOutcome(
        network=network,
        result=result,
        instrumentation=network.instrumentation,
        injector=injector,
    )
