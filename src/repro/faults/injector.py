"""The fault injector: a maintenance process that walks a FaultPlan.

The injector is deliberately thin — it owns no physics.  Each concrete
:class:`~repro.faults.spec.FaultEvent` dispatches to the degradation
machinery the stack itself provides (``Network.station_down``,
``Medium.scale_link``, ``Network.apply_clock_step``, ...), so the
behaviour under faults is a property of the network code, not of the
injector.  Everything the injector does is recorded in a
:class:`~repro.faults.resilience.ResilienceLog` for post-run analysis.

Install with :func:`install_faults` *before* ``network.start()`` /
``network.run()``.  An empty plan installs nothing at all: no process
is spawned and no event enters the wheel, so fault-free runs are
bit-identical to a build without this package.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.faults.resilience import ResilienceLog
from repro.faults.spec import FaultEvent, FaultPlan
from repro.net.network import Network
from repro.obs.events import FaultInject, FaultRecover
from repro.sim.process import ProcessGenerator

__all__ = ["FaultInjector", "install_faults"]


class FaultInjector:
    """Applies a compiled :class:`FaultPlan` to a running network.

    Args:
        network: the (built, not yet started) network to subject.
        plan: the compiled fault schedule; event times are slots from
            the instant the injector process starts.
    """

    def __init__(self, network: Network, plan: FaultPlan) -> None:
        self.network = network
        self.plan = plan
        self.log = ResilienceLog()

    def process(self) -> ProcessGenerator:
        """The maintenance process: sleep to each event, apply it."""
        env = self.network.env
        slot = self.network.budget.slot_time
        origin = env.now
        for event in self.plan.events:
            target = origin + event.at_slot * slot
            if target > env.now:
                yield env.timeout(target - env.now)
            self._apply(event)

    def _apply(self, event: FaultEvent) -> None:
        network = self.network
        instr = network.instrumentation
        now = network.env.now
        if event.kind == "down":
            if network.station_down(event.station):
                self.log.crashes.append((now, event.station))
                if instr.active:
                    instr.emit(FaultInject(now, "down", event.station))
        elif event.kind == "up":
            if network.station_up(event.station):
                self.log.recoveries.append((now, event.station))
                if instr.active:
                    instr.emit(FaultRecover(now, "down", event.station))
        elif event.kind == "reroute":
            network.reroute()
            self.log.reroutes.append(now)
            if instr.active:
                instr.emit(FaultRecover(now, "route"))
        elif event.kind == "fade":
            network.medium.scale_link(event.station, event.peer, event.value)
            self.log.fades.append((now, event.station, event.peer, event.value))
            if instr.active:
                instr.emit(
                    FaultInject(
                        now, "fade", event.station, event.peer, event.value
                    )
                )
            if event.extra == 1.0:  # symmetric fade
                network.medium.scale_link(event.peer, event.station, event.value)
                self.log.fades.append((now, event.peer, event.station, event.value))
                if instr.active:
                    instr.emit(
                        FaultInject(
                            now, "fade", event.peer, event.station, event.value
                        )
                    )
        elif event.kind == "clock_step":
            network.apply_clock_step(event.station, event.value, event.extra)
            self.log.clock_steps.append((now, event.station))
            if instr.active:
                instr.emit(
                    FaultInject(
                        now, "clock_step", event.station, value=event.value
                    )
                )
        elif event.kind == "refit":
            network.refit_clock_models(
                event.station, np.random.default_rng(event.seed)
            )
            self.log.refits.append((now, event.station))
            if instr.active:
                instr.emit(FaultRecover(now, "clock_step", event.station))
        elif event.kind == "corrupt_on":
            rng = np.random.default_rng(event.seed)
            probability = event.value
            network.medium.set_corruption(
                lambda _tx: bool(rng.random() < probability)
            )
            if instr.active:
                instr.emit(FaultInject(now, "corrupt", value=probability))
        elif event.kind == "corrupt_off":
            network.medium.set_corruption(None)
            if instr.active:
                instr.emit(FaultRecover(now, "corrupt"))
        else:  # pragma: no cover - compile_plan validates kinds
            raise ValueError(f"unknown fault event kind {event.kind!r}")


def install_faults(network: Network, plan: FaultPlan) -> Optional[FaultInjector]:
    """Attach a fault plan to a network before it starts.

    Returns the installed :class:`FaultInjector` (also stored as
    ``network.resilience``), or ``None`` for an empty plan — in which
    case nothing is installed and the run is bit-identical to one
    without fault support.
    """
    if plan.is_empty:
        return None
    injector = FaultInjector(network, plan)
    network.add_maintenance(injector.process)
    network.resilience = injector
    return injector
