"""Tests for the transmit-queue disciplines."""

import pytest

from repro.net.packet import Packet
from repro.net.queueing import FifoQueue, NeighborQueues


def packet(destination=9):
    return Packet(source=0, destination=destination, size_bits=100.0, created_at=0.0)


class TestNeighborQueues:
    def test_one_head_per_next_hop(self):
        queues = NeighborQueues()
        first_to_a = packet()
        queues.enqueue(1, first_to_a)
        queues.enqueue(1, packet())
        second_hop = packet()
        queues.enqueue(2, second_hop)
        heads = queues.heads()
        assert (1, first_to_a) in heads
        assert (2, second_hop) in heads
        assert len(heads) == 2

    def test_no_hol_blocking(self):
        # The defining property (Section 7.2): a packet for hop 2 is
        # eligible even while older traffic for hop 1 waits.
        queues = NeighborQueues()
        queues.enqueue(1, packet())
        late = packet()
        queues.enqueue(2, late)
        assert queues.pop(2) is late

    def test_fifo_within_a_neighbor(self):
        queues = NeighborQueues()
        first, second = packet(), packet()
        queues.enqueue(1, first)
        queues.enqueue(1, second)
        assert queues.pop(1) is first
        assert queues.pop(1) is second

    def test_pop_empty_raises(self):
        with pytest.raises(LookupError):
            NeighborQueues().pop(1)

    def test_len_and_empty(self):
        queues = NeighborQueues()
        assert queues.is_empty
        queues.enqueue(1, packet())
        assert len(queues) == 1

    def test_clear_returns_the_count(self):
        queues = NeighborQueues()
        queues.enqueue(1, packet())
        queues.enqueue(2, packet())
        queues.enqueue(1, packet())
        assert queues.clear() == 3
        assert queues.is_empty
        assert queues.heads() == []
        assert queues.clear() == 0

    def test_clear_keeps_first_use_order(self):
        # A revived station's heads() must keep the order in which its
        # next hops were first used: ShepardMac breaks ties between
        # equal window starts by it.
        queues = NeighborQueues()
        queues.enqueue(5, packet())
        queues.enqueue(3, packet())
        queues.clear()
        to_three, to_five = packet(), packet()
        queues.enqueue(3, to_three)
        queues.enqueue(5, to_five)
        assert queues.heads() == [(5, to_five), (3, to_three)]


class TestFifoQueue:
    def test_single_head(self):
        queue = FifoQueue()
        first = packet()
        queue.enqueue(1, first)
        queue.enqueue(2, packet())
        assert queue.heads() == [(1, first)]

    def test_overtaking_forbidden(self):
        queue = FifoQueue()
        queue.enqueue(1, packet())
        queue.enqueue(2, packet())
        with pytest.raises(LookupError, match="head-of-line"):
            queue.pop(2)

    def test_pop_in_arrival_order(self):
        queue = FifoQueue()
        first, second = packet(), packet()
        queue.enqueue(1, first)
        queue.enqueue(2, second)
        assert queue.pop(1) is first
        assert queue.pop(2) is second

    def test_pop_empty_raises(self):
        with pytest.raises(LookupError):
            FifoQueue().pop(1)

    def test_len_and_clear(self):
        queue = FifoQueue()
        queue.enqueue(1, packet())
        queue.enqueue(2, packet())
        queue.enqueue(1, packet())
        queue.pop(1)
        assert len(queue) == 2
        assert queue.clear() == 2
        assert queue.is_empty
        assert queue.heads() == []
        assert queue.clear() == 0
