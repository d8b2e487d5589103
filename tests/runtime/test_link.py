"""Unit tests for raw links and the reliability protocol."""

import random

import pytest

from repro.errors import TransportError
from repro.runtime.link import LinkFault, RawLink, ReliableChannel
from repro.sim.distributions import Constant, Uniform
from repro.sim.kernel import Simulator, us


def make_channel(sim, delay=Constant(us(50)), **fault_kwargs):
    received = []
    fault = LinkFault(**fault_kwargs) if fault_kwargs else None
    channel = ReliableChannel(sim, random.Random(7), "test",
                              deliver=received.append, delay=delay,
                              fault=fault)
    return channel, received


class TestRawLink:
    def test_delivers_after_delay(self):
        sim = Simulator()
        got = []
        link = RawLink(sim, random.Random(1), "l", Constant(us(30)))
        link.transmit("frame", got.append)
        sim.run()
        assert got == ["frame"]
        assert sim.now == us(30)

    def test_loss(self):
        sim = Simulator()
        got = []
        link = RawLink(sim, random.Random(1), "l", Constant(0),
                       LinkFault(loss_prob=1.0))
        for _ in range(5):
            link.transmit("x", got.append)
        sim.run()
        assert got == []
        assert link.frames_dropped == 5

    def test_duplication(self):
        sim = Simulator()
        got = []
        link = RawLink(sim, random.Random(1), "l", Constant(0),
                       LinkFault(dup_prob=1.0))
        link.transmit("x", got.append)
        sim.run()
        assert got == ["x", "x"]
        assert link.frames_duplicated == 1

    def test_outage_drops_everything(self):
        sim = Simulator()
        got = []
        fault = LinkFault()
        link = RawLink(sim, random.Random(1), "l", Constant(0), fault)
        fault.down = True
        link.transmit("x", got.append)
        fault.down = False
        link.transmit("y", got.append)
        sim.run()
        assert got == ["y"]


class TestReliableChannel:
    def test_in_order_delivery_on_clean_link(self):
        sim = Simulator()
        channel, received = make_channel(sim)
        for i in range(10):
            channel.send(i)
        sim.run()
        assert received == list(range(10))

    def test_recovers_from_heavy_loss(self):
        sim = Simulator()
        channel, received = make_channel(sim, loss_prob=0.4)
        for i in range(50):
            channel.send(i)
        sim.run()
        assert received == list(range(50))
        assert channel.retransmissions > 0
        assert channel.in_flight == 0

    def test_recovers_from_duplication(self):
        sim = Simulator()
        channel, received = make_channel(sim, dup_prob=0.5)
        for i in range(30):
            channel.send(i)
        sim.run()
        assert received == list(range(30))

    def test_recovers_from_reordering(self):
        sim = Simulator()
        channel, received = make_channel(
            sim, reorder_extra=Uniform(0, us(200)))
        for i in range(30):
            channel.send(i)
        sim.run()
        assert received == list(range(30))

    def test_combined_impairments(self):
        sim = Simulator()
        channel, received = make_channel(
            sim, loss_prob=0.2, dup_prob=0.2,
            reorder_extra=Uniform(0, us(150)))
        for i in range(80):
            channel.send(i)
        sim.run()
        assert received == list(range(80))

    def test_exactly_once_within_epoch(self):
        sim = Simulator()
        channel, received = make_channel(sim, dup_prob=0.9)
        for i in range(20):
            channel.send(i)
        sim.run()
        assert len(received) == 20

    def test_reset_starts_new_epoch(self):
        sim = Simulator()
        channel, received = make_channel(sim)
        channel.send("old")
        channel.reset()
        channel.send("new-0")
        channel.send("new-1")
        sim.run()
        # The old-epoch frame may have been in flight; it must not be
        # delivered, and new-epoch seqs restart from zero.
        assert received == ["new-0", "new-1"]

    def test_stale_epoch_frames_ignored(self):
        sim = Simulator()
        channel, received = make_channel(sim, delay=Constant(us(100)))
        channel.send("doomed")
        sim.run(until=us(50))   # frame still in flight
        channel.reset()
        channel.send("fresh")
        sim.run()
        assert received == ["fresh"]

    def test_retransmission_survives_outage(self):
        sim = Simulator()
        channel, received = make_channel(sim)
        fault = channel.link_fault()
        fault.down = True
        channel.send("x")
        sim.at(us(500), lambda: setattr(fault, "down", False))
        sim.run()
        assert received == ["x"]


class TestPerfectChannel:
    def _perfect(self, sim, delay=Constant(us(50)), **kwargs):
        received = []
        channel = ReliableChannel(
            sim, random.Random(7), "p",
            deliver=lambda item: received.append((sim.now, item)),
            delay=delay, **kwargs)
        return channel, received

    def test_built_only_on_a_link_that_cannot_fault(self):
        sim = Simulator()
        assert self._perfect(sim)[0].perfect
        assert not self._perfect(sim, delay=Uniform(0, us(50)))[0].perfect
        assert not self._perfect(sim, serialize_ticks=us(1))[0].perfect
        assert not self._perfect(sim, rto=us(100))[0].perfect  # <= 2 d
        # Knobs handed in stay in the caller's hands, clean or not.
        assert not self._perfect(sim, fault=LinkFault())[0].perfect
        assert not make_channel(sim, loss_prob=0.1)[0].perfect

    def test_one_kernel_event_per_frame(self):
        sim = Simulator()
        channel, received = self._perfect(sim)
        for i in range(5):
            channel.send(i)
        sim.run()
        assert received == [(us(50), i) for i in range(5)]
        assert sim.events_executed == 5
        # Each data frame plus the ack the protocol would have sent.
        assert channel.frames_sent == 10
        assert channel.in_flight == 0

    def test_reset_makes_old_epoch_frames_stale(self):
        sim = Simulator()
        channel, received = self._perfect(sim)
        channel.send("doomed")
        sim.run(until=us(25))
        channel.reset()
        channel.send("fresh")
        sim.run()
        assert received == [(us(75), "fresh")]
        assert channel.frames_sent == 3  # no ack for the stale arrival

    def test_a_switch_with_a_frame_in_flight_raises(self):
        sim = Simulator()
        channel, _ = self._perfect(sim)
        channel.send("x")
        sim.run(until=us(25))
        with pytest.raises(TransportError, match="link p"):
            channel.link_fault()
        assert channel.perfect

    def test_a_switch_with_an_ack_in_flight_raises(self):
        sim = Simulator()
        channel, _ = self._perfect(sim)
        channel.send("x")
        sim.run(until=us(75))  # landed; its ack lands at 100 us
        with pytest.raises(TransportError):
            channel.link_fault()
        sim.run(until=us(101))
        fault = channel.link_fault()
        assert not channel.perfect
        assert fault is channel.link_fault()
        assert channel._srtt == float(2 * us(50))
