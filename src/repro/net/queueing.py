"""Transmit queues: per-neighbour (no head-of-line blocking) and FIFO.

Section 7.2: "Even with other traffic, a station need not block the
head of the line.  Traffic to other stations may be transmitted while
waiting for a suitable time to arrive.  With no head-of-line blocking,
stations may achieve transmit duty cycles approaching 50%."

:class:`NeighborQueues` keeps one FIFO per next hop, so the scheduler
can pick whichever queued hop has the earliest feasible window.
:class:`FifoQueue` is the ablation baseline: strictly serve the oldest
packet, whatever its next hop (experiment T3).

Both are unbounded: a packet waits until its window opens, and a
station sheds its backlog only through :meth:`TransmitQueue.clear`
(the station failed, or every queued next hop is unreachable).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, List, Tuple

from repro.net.packet import Packet

__all__ = ["NeighborQueues", "FifoQueue", "TransmitQueue"]


class TransmitQueue:
    """Interface shared by the two queue disciplines."""

    def enqueue(self, next_hop: int, packet: Packet) -> None:
        """Add a packet destined (this hop) to ``next_hop``."""
        raise NotImplementedError

    def heads(self) -> List[Tuple[int, Packet]]:
        """The (next_hop, packet) pairs the scheduler may send next."""
        raise NotImplementedError

    def pop(self, next_hop: int) -> Packet:
        """Remove and return the head packet for ``next_hop``."""
        raise NotImplementedError

    def clear(self) -> int:
        """Discard every queued packet; returns how many there were."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    @property
    def is_empty(self) -> bool:
        """Whether no packet is queued."""
        return len(self) == 0


class NeighborQueues(TransmitQueue):
    """One FIFO per next hop; every queue head is eligible.

    Iteration order of :meth:`heads` follows first-use order of the
    next hops, which keeps simulations deterministic; :meth:`clear`
    keeps that order for the next hops' later packets.
    """

    def __init__(self) -> None:
        self._queues: "OrderedDict[int, Deque[Packet]]" = OrderedDict()
        self._size = 0

    def enqueue(self, next_hop: int, packet: Packet) -> None:
        self._queues.setdefault(next_hop, deque()).append(packet)
        self._size += 1

    def heads(self) -> List[Tuple[int, Packet]]:
        return [
            (next_hop, queue[0])
            for next_hop, queue in self._queues.items()
            if queue
        ]

    def pop(self, next_hop: int) -> Packet:
        queue = self._queues.get(next_hop)
        if not queue:
            raise LookupError(f"no packet queued for next hop {next_hop}")
        self._size -= 1
        return queue.popleft()

    def clear(self) -> int:
        dropped = self._size
        for queue in self._queues.values():
            queue.clear()
        self._size = 0
        return dropped

    def __len__(self) -> int:
        return self._size


class FifoQueue(TransmitQueue):
    """A single strict FIFO: only the oldest packet is eligible.

    The head-of-line-blocking baseline of experiment T3 — when the
    oldest packet's next hop has no usable window, everything waits.
    """

    def __init__(self) -> None:
        self._queue: Deque[Tuple[int, Packet]] = deque()

    def enqueue(self, next_hop: int, packet: Packet) -> None:
        self._queue.append((next_hop, packet))

    def heads(self) -> List[Tuple[int, Packet]]:
        return [self._queue[0]] if self._queue else []

    def pop(self, next_hop: int) -> Packet:
        if not self._queue:
            raise LookupError("queue is empty")
        head_hop, packet = self._queue[0]
        if head_hop != next_hop:
            raise LookupError(
                f"FIFO head is for next hop {head_hop}, not {next_hop}; "
                "head-of-line blocking forbids overtaking"
            )
        self._queue.popleft()
        return packet

    def clear(self) -> int:
        dropped = len(self._queue)
        self._queue.clear()
        return dropped

    def __len__(self) -> int:
        return len(self._queue)
