"""Resilience bookkeeping: what the faults did and how the network coped.

The :class:`ResilienceLog` is the injector's journal — every applied
event is recorded with its simulation time, so experiments can pair a
crash with the routing re-derivation that followed it and report the
*time to reroute*.  The run's counters (losses by reason, queue drops,
ARQ retries) are in its :class:`~repro.net.network.NetworkResult`;
:func:`split_losses` splits its loss taxonomy into fault and SIR losses
by :data:`FAULT_LOSS_REASONS`, and :func:`window_ratio` reads the
delivery ratio of the window between two of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Mapping, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import NetworkResult

__all__ = ["FAULT_LOSS_REASONS", "ResilienceLog", "split_losses", "window_ratio"]


@dataclass
class ResilienceLog:
    """Chronological record of applied fault events.

    Times are global simulation seconds (the injector's clock), not
    slots; experiments convert with the link budget's slot time when
    reporting.

    Attributes:
        crashes: ``(time, station)`` per station-down event.
        recoveries: ``(time, station)`` per station-up event.
        reroutes: times at which routing tables were re-derived.
        clock_steps: ``(time, station)`` per clock-step fault.
        refits: ``(time, station)`` per neighbour-model re-fit.
        fades: ``(time, receiver, source, factor)`` per fade change.
        turnovers: ``(time, station)`` per mobility-induced
            neighbour-set turnover detection (stale receive windows).
        reacquired: ``(time, station)`` per station whose turnover was
            resolved by a §7.1 re-convergence.
        mobility_reroutes: times of re-convergences triggered by
            mobility churn rather than discrete faults.
    """

    crashes: List[Tuple[float, int]] = field(default_factory=list)
    recoveries: List[Tuple[float, int]] = field(default_factory=list)
    reroutes: List[float] = field(default_factory=list)
    clock_steps: List[Tuple[float, int]] = field(default_factory=list)
    refits: List[Tuple[float, int]] = field(default_factory=list)
    fades: List[Tuple[float, int, int, float]] = field(default_factory=list)
    turnovers: List[Tuple[float, int]] = field(default_factory=list)
    reacquired: List[Tuple[float, int]] = field(default_factory=list)
    mobility_reroutes: List[float] = field(default_factory=list)

    def reroute_latencies(self) -> List[float]:
        """Delay from each lifecycle event to the next reroute.

        Pairs every crash and recovery with the first routing
        re-derivation at or after it; events the run ended before
        rerouting around are omitted.
        """
        triggers = sorted(
            [time for time, _station in self.crashes]
            + [time for time, _station in self.recoveries]
        )
        latencies: List[float] = []
        for trigger in triggers:
            for reroute in self.reroutes:
                if reroute >= trigger:
                    latencies.append(reroute - trigger)
                    break
        return latencies

    def mean_time_to_reroute(self) -> float:
        """Mean reroute latency, or NaN when nothing was paired."""
        latencies = self.reroute_latencies()
        if not latencies:
            return math.nan
        return sum(latencies) / len(latencies)

    def rendezvous_recovery_latencies(self) -> List[float]:
        """Per-station delay from a detected neighbour-set turnover to
        the re-acquisition that resolved it.

        Pairs each ``turnovers`` entry with the first ``reacquired``
        entry for the same station at or after it; turnovers the run
        ended before resolving are omitted (they never recovered).
        """
        latencies: List[float] = []
        for turned_at, station in self.turnovers:
            for fixed_at, fixed_station in self.reacquired:
                if fixed_station == station and fixed_at >= turned_at:
                    latencies.append(fixed_at - turned_at)
                    break
        return latencies

    def mean_rendezvous_recovery(self) -> float:
        """Mean turnover-to-reacquisition delay, or NaN when nothing
        was paired."""
        latencies = self.rendezvous_recovery_latencies()
        if not latencies:
            return math.nan
        return sum(latencies) / len(latencies)


#: Loss reasons attributable to injected faults rather than SIR physics.
FAULT_LOSS_REASONS = frozenset(
    {"receiver_down", "source_down", "corrupted"}
)


def split_losses(losses_by_reason: Mapping[str, int]) -> Tuple[int, int]:
    """``(fault, sir)`` loss counts of a run's ``losses_by_reason``.

    Fault losses are those with a reason in :data:`FAULT_LOSS_REASONS`;
    every other reason is an SIR loss, so the two sum to the run's
    ``losses_total``.
    """
    fault = sum(
        count
        for reason, count in losses_by_reason.items()
        if reason in FAULT_LOSS_REASONS
    )
    return fault, sum(losses_by_reason.values()) - fault


def window_ratio(before: NetworkResult, after: NetworkResult) -> float:
    """Delivery ratio of the window between two cumulative results (NaN
    if no traffic originated in the window)."""
    originated = after.originated - before.originated
    delivered = after.delivered_end_to_end - before.delivered_end_to_end
    if originated <= 0:
        return float("nan")
    return delivered / originated
