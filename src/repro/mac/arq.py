"""Stop-and-wait ARQ: bounded retransmission under any MAC.

The paper's scheme deliberately has no per-packet acknowledgement —
the schedule makes hops collision-free, so reliability is structural.
The contention baselines are different: they lose hops routinely, and
each of their MAC loops historically retried privately and then
*silently* dropped (``self.dropped += 1`` and nothing else), which
makes lossy operation collapse invisibly at high load or under a
time-varying channel.

:class:`ArqSublayer` moves reliability out of the MACs into one
station-level link layer, pluggable under every ``MacFactory`` MAC
(enable it with ``NetworkConfig.arq_max_retries``):

* On a failed data burst the sublayer takes ownership of the packet:
  it reports the attempt as *handled* to the MAC above (so contention
  MACs do not also retry — with ARQ installed every MAC becomes a
  single-attempt channel-access behaviour) and schedules a
  retransmission after :func:`retry_delay_slots`, with a bounded number
  of retries.  The delay schedule is fully deterministic — no RNG — so
  enabling ARQ perturbs nothing but the packets it saves.
* A retransmission re-enters the transmit queue through a *fresh*
  routing-table lookup (:meth:`repro.net.station.Station.requeue`), so
  a retry after a reroute or a mobility re-convergence follows the new
  route; with a continuously fading channel a retry later than the
  coherence time sees an independent fade draw, which is exactly what
  turns transient losses into delayed deliveries.
* Exhausting the budget is *loud*: an :class:`~repro.obs.events
  .ArqGiveUp` event, a per-station counter, and a column in the
  experiment rows — never a silent drop.

Control frames (MACA's RTS/CTS handshake) bypass the sublayer
entirely; their retry logic is the MAC protocol itself.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.obs.events import ArqGiveUp, ArqRetry
from repro.routing.table import RouteError
from repro.sim.process import ProcessGenerator

if TYPE_CHECKING:  # pragma: no cover
    # Type-only: importing repro.net here would close an import cycle
    # (net.network imports this module to install the sublayer).
    from repro.net.network import NetworkConfig
    from repro.net.packet import Packet
    from repro.net.station import Station

__all__ = ["ArqSublayer", "retry_delay_slots", "TIMEOUT_SLOTS", "BACKOFF_CAP_SLOTS"]

#: Fixed wait (slots) before every retransmission: the stop-and-wait
#: acknowledgement timeout.
TIMEOUT_SLOTS = 4.0
#: Upper bound (slots) on the total per-retry delay.
BACKOFF_CAP_SLOTS = 64.0


def retry_delay_slots(attempt: int, backoff_slots: float) -> float:
    """Slots to wait before retransmission number ``attempt``: the
    timeout plus ``backoff_slots * 2**(attempt-1)``, capped.
    ``backoff_slots`` is ``NetworkConfig.arq_backoff_slots``."""
    delay = TIMEOUT_SLOTS + backoff_slots * 2.0 ** (attempt - 1)
    return min(delay, BACKOFF_CAP_SLOTS)


class ArqSublayer:
    """Per-station stop-and-wait retransmission state.

    One instance is installed per station by ``build_network`` when
    ``NetworkConfig.arq_max_retries`` is set, with that config's retry
    budget and backoff base; the station consults it from
    :meth:`~repro.net.station.Station.transmit_packet`.
    """

    def __init__(
        self, station: "Station", config: "NetworkConfig", slot_time: float
    ) -> None:
        if slot_time <= 0.0:
            raise ValueError("slot time must be positive")
        if config.arq_max_retries is None:
            raise ValueError("the config sets no ARQ retry budget")
        self.station = station
        self.max_retries = config.arq_max_retries
        self.backoff_slots = config.arq_backoff_slots
        self.slot_time = slot_time
        self.retries = 0
        self.giveups = 0
        self._attempts: Dict[int, int] = {}

    def on_success(self, packet: Packet) -> None:
        """Clear retry state for a delivered hop."""
        self._attempts.pop(packet.packet_id, None)

    def on_failure(self, packet: Packet, next_hop: int) -> bool:
        """Take ownership of a failed data burst.

        Either schedules a bounded retransmission or records a loud
        give-up.  Always returns True: the MAC above must treat the
        attempt as handled and must not retry on its own.
        """
        station = self.station
        attempt = self._attempts.get(packet.packet_id, 0) + 1
        if attempt > self.max_retries:
            self._give_up(packet, next_hop, attempt)
            return True
        self._attempts[packet.packet_id] = attempt
        self.retries += 1
        station.stats.arq_retries += 1
        if station.instr.active:
            station.instr.emit(
                ArqRetry(
                    station.env.now,
                    station.index,
                    next_hop,
                    packet.packet_id,
                    attempt,
                )
            )
        delay = retry_delay_slots(attempt, self.backoff_slots) * self.slot_time
        station.env.process(self._redeliver(packet, delay))
        return True

    def _give_up(self, packet: Packet, next_hop: int, attempts: int) -> None:
        self._attempts.pop(packet.packet_id, None)
        self.giveups += 1
        station = self.station
        station.stats.arq_giveups += 1
        if station.instr.active:
            station.instr.emit(
                ArqGiveUp(
                    station.env.now,
                    station.index,
                    next_hop,
                    packet.packet_id,
                    attempts,
                )
            )

    def _redeliver(self, packet: Packet, delay: float) -> ProcessGenerator:
        """Wait out the timeout+backoff, then re-enqueue on the packet's
        *current* best route (routes may have changed meanwhile)."""
        station = self.station
        yield station.env.timeout(delay)
        if not station.alive:
            # The retrying station crashed while holding the packet.
            self._give_up(
                packet, -1, self._attempts.get(packet.packet_id, 0)
            )
            return
        try:
            next_hop = station.table.next_hop(packet.destination)
        except RouteError:
            self._attempts.pop(packet.packet_id, None)
            station.record_no_route(packet.destination)
            return
        station.requeue(packet, next_hop)
