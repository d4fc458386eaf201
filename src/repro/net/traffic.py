"""Traffic generation: workloads for the simulated networks.

The paper's simulations load the network with randomly addressed
traffic; the experiments here need a few standard shapes:

* :class:`PoissonTraffic` — memoryless arrivals, uniformly random
  destinations (the default open-loop workload);
* :class:`CbrTraffic` — constant-bit-rate streams between fixed pairs
  (for latency measurements without arrival noise);
* :class:`HotspotTraffic` — a fraction of all traffic addressed to one
  station (a gateway or popular service), stressing Type 2 handling and
  the despreader bank.

Generators are simulation processes: they deposit packets into their
station via a sink callable supplied by the network harness.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.net.packet import Packet
from repro.sim.engine import Environment
from repro.sim.process import ProcessGenerator

__all__ = [
    "TrafficSource",
    "PacketSink",
    "PoissonTraffic",
    "CbrTraffic",
    "HotspotTraffic",
]

PacketSink = Callable[[Packet], None]


class TrafficSource:
    """Base class for traffic generators attached to one station."""

    def __init__(self, origin: int, size_bits: float) -> None:
        if size_bits <= 0.0:
            raise ValueError("packet size must be positive")
        self.origin = origin
        self.size_bits = size_bits
        self.generated = 0

    def run(self, env: Environment, sink: PacketSink) -> ProcessGenerator:
        """The generator process that emits packets into ``sink``."""
        raise NotImplementedError

    def _emit(self, env: Environment, sink: PacketSink, destination: int) -> None:
        packet = Packet(
            source=self.origin,
            destination=destination,
            size_bits=self.size_bits,
            created_at=env.now,
        )
        self.generated += 1
        sink(packet)


class PoissonTraffic(TrafficSource):
    """Poisson arrivals with destinations drawn from a candidate set.

    Args:
        origin: originating station.
        rate: mean packets per unit time.
        destinations: candidate destination stations (the origin is
            excluded automatically if present).
        size_bits: payload size.
        rng: random generator (reproducibility is the caller's duty).
        start_at: arrivals begin at this time.
        limit: stop after this many packets (None = unbounded).
    """

    def __init__(
        self,
        origin: int,
        rate: float,
        destinations: Sequence[int],
        size_bits: float,
        rng: np.random.Generator,
        start_at: float = 0.0,
        limit: Optional[int] = None,
    ) -> None:
        super().__init__(origin, size_bits)
        if rate <= 0.0:
            raise ValueError("arrival rate must be positive")
        candidates = [d for d in destinations if d != origin]
        if not candidates:
            raise ValueError("no destination candidates other than the origin")
        if limit is not None and limit < 1:
            raise ValueError("limit must be positive when given")
        self.rate = rate
        self.destinations = candidates
        self.rng = rng
        self.start_at = start_at
        self.limit = limit

    def run(self, env: Environment, sink: PacketSink) -> ProcessGenerator:
        if self.start_at > env.now:
            yield env.timeout(self.start_at - env.now)
        while self.limit is None or self.generated < self.limit:
            yield env.timeout(float(self.rng.exponential(1.0 / self.rate)))
            # The draw rng.choice(self.destinations) makes, without
            # converting the list to an array on every packet.
            index = int(self.rng.integers(len(self.destinations)))
            destination = int(self.destinations[index])
            self._emit(env, sink, destination)


class CbrTraffic(TrafficSource):
    """Constant-bit-rate stream to a fixed destination.

    Args:
        origin: originating station.
        destination: fixed destination station.
        interval: time between packets.
        size_bits: payload size.
        start_at: first packet time (jitter the phase across stations to
            avoid artificial synchronisation).
        limit: stop after this many packets (None = unbounded).
    """

    def __init__(
        self,
        origin: int,
        destination: int,
        interval: float,
        size_bits: float,
        start_at: float = 0.0,
        limit: Optional[int] = None,
    ) -> None:
        super().__init__(origin, size_bits)
        if destination == origin:
            raise ValueError("destination must differ from origin")
        if interval <= 0.0:
            raise ValueError("interval must be positive")
        if limit is not None and limit < 1:
            raise ValueError("limit must be positive when given")
        self.destination = destination
        self.interval = interval
        self.start_at = start_at
        self.limit = limit

    def run(self, env: Environment, sink: PacketSink) -> ProcessGenerator:
        if self.start_at > env.now:
            yield env.timeout(self.start_at - env.now)
        while self.limit is None or self.generated < self.limit:
            self._emit(env, sink, self.destination)
            yield env.timeout(self.interval)


class HotspotTraffic(TrafficSource):
    """Poisson arrivals biased toward one hotspot destination.

    Args:
        origin: originating station.
        rate: mean packets per unit time.
        hotspot: the favoured destination.
        hotspot_fraction: probability a packet addresses the hotspot.
        destinations: candidates for the non-hotspot remainder.
        size_bits: payload size.
        rng: random generator.
        limit: stop after this many packets (None = unbounded).
    """

    def __init__(
        self,
        origin: int,
        rate: float,
        hotspot: int,
        hotspot_fraction: float,
        destinations: Sequence[int],
        size_bits: float,
        rng: np.random.Generator,
        limit: Optional[int] = None,
    ) -> None:
        super().__init__(origin, size_bits)
        if rate <= 0.0:
            raise ValueError("arrival rate must be positive")
        if not 0.0 <= hotspot_fraction <= 1.0:
            raise ValueError("hotspot fraction must be in [0, 1]")
        if hotspot == origin:
            raise ValueError("the hotspot cannot be the origin itself")
        candidates = [d for d in destinations if d != origin]
        if not candidates:
            raise ValueError("no destination candidates other than the origin")
        self.rate = rate
        self.hotspot = hotspot
        self.hotspot_fraction = hotspot_fraction
        self.destinations = candidates
        self.rng = rng
        self.limit = limit

    def run(self, env: Environment, sink: PacketSink) -> ProcessGenerator:
        while self.limit is None or self.generated < self.limit:
            yield env.timeout(float(self.rng.exponential(1.0 / self.rate)))
            if float(self.rng.random()) < self.hotspot_fraction:
                destination = self.hotspot
            else:
                index = int(self.rng.integers(len(self.destinations)))
                destination = int(self.destinations[index])
            self._emit(env, sink, destination)
