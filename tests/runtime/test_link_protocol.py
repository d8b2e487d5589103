"""Tests for the reliability protocol's congestion machinery:
serialization (finite bandwidth), adaptive RTO (Jacobson/Karn), fast
retransmit, and bounded retransmission windows."""

import random

import pytest

from repro.runtime.link import LinkFault, RawLink, ReliableChannel
from repro.sim.distributions import Constant
from repro.sim.kernel import Simulator, ms, us


class TestSerialization:
    def test_frames_queue_behind_each_other(self):
        sim = Simulator()
        got = []
        link = RawLink(sim, random.Random(0), "l", Constant(us(10)),
                       serialize_ticks=us(100))
        for i in range(3):
            link.transmit(i, lambda f: got.append((f, sim.now)))
        sim.run()
        # Arrival times: serialization 100us each + 10us propagation.
        assert got == [(0, us(110)), (1, us(210)), (2, us(310))]

    def test_link_drains_between_bursts(self):
        sim = Simulator()
        got = []
        link = RawLink(sim, random.Random(0), "l", Constant(0),
                       serialize_ticks=us(100))
        link.transmit("a", lambda f: got.append((f, sim.now)))
        sim.run()
        sim.at(ms(1), lambda: link.transmit(
            "b", lambda f: got.append((f, sim.now))))
        sim.run()
        assert got == [("a", us(100)), ("b", ms(1) + us(100))]

    def test_zero_serialization_is_parallel(self):
        sim = Simulator()
        got = []
        link = RawLink(sim, random.Random(0), "l", Constant(us(10)))
        for i in range(3):
            link.transmit(i, lambda f: got.append((f, sim.now)))
        sim.run()
        assert [t for _f, t in got] == [us(10)] * 3


class TestAdaptiveRto:
    def _channel(self, **kwargs):
        sim = Simulator()
        received = []
        channel = ReliableChannel(sim, random.Random(3), "c",
                                  deliver=received.append, **kwargs)
        return sim, channel, received

    def test_srtt_tracks_clean_round_trips(self):
        sim, channel, received = self._channel(delay=Constant(us(100)))
        for i in range(5):
            channel.send(i)
        sim.run()
        assert channel._srtt == pytest.approx(us(200), rel=0.01)
        assert channel._effective_rto() == max(channel.rto, us(400))

    def test_queueing_inflates_timeout(self):
        # A serialized link builds a queue; the measured RTT grows, so
        # the timeout grows with it instead of triggering spurious
        # retransmissions.
        sim, channel, received = self._channel(
            delay=Constant(us(50)), serialize_ticks=us(200))
        for i in range(30):
            channel.send(i)
        sim.run()
        assert received == list(range(30))
        # Everything arrived by serialization alone; with the timeout
        # adapting, retransmissions stay negligible.
        assert channel.retransmissions <= 2

    def test_no_congestion_collapse_under_overload(self):
        # Offered load far above link capacity: the channel must still
        # deliver everything without a retransmission storm (bounded
        # per-frame retransmissions).
        sim, channel, received = self._channel(
            delay=Constant(us(50)), serialize_ticks=us(200))
        for burst in range(10):
            sim.at(burst * us(100), lambda: None)
        for i in range(200):
            channel.send(i)
        sim.run()
        assert received == list(range(200))
        assert channel.retransmissions < 200  # << the old quadratic blowup


class TestFastRetransmit:
    def test_single_loss_recovers_within_a_few_frames(self):
        sim = Simulator()
        received = []
        fault = LinkFault()
        channel = ReliableChannel(sim, random.Random(1), "c",
                                  deliver=received.append,
                                  delay=Constant(us(100)), fault=fault)
        # Lose exactly the first data frame, then heal the link.
        fault.loss_prob = 1.0
        channel.send(0)
        fault.loss_prob = 0.0
        for i in range(1, 8):
            channel.send(i)
        sim.run(until=ms(1))
        # Dup-acks for the missing head trigger fast retransmit well
        # before the timeout; everything is delivered in order quickly.
        assert received == list(range(8))

    def test_sustained_loss_keeps_throughput(self):
        sim = Simulator()
        received = []
        channel = ReliableChannel(sim, random.Random(5), "c",
                                  deliver=received.append,
                                  delay=Constant(us(100)),
                                  fault=LinkFault(loss_prob=0.15))
        for i in range(300):
            sim.at(i * us(50), lambda i=i: channel.send(i))
        sim.run(until=ms(25))
        # 300 sends over 15ms; with fast retransmit, delivery finishes
        # within a comfortable margin of the send window.
        assert received == list(range(300))


class TestRetransmitTimerLifetime:
    """A retransmit timer lives exactly as long as its transmission is the
    frame's latest and unacked; nothing of a finished or dead epoch may
    linger in the kernel as phantom work."""

    def _channel(self, **kwargs):
        labels = []
        sim = Simulator(trace_hook=lambda _t, label: labels.append(label))
        received = []
        channel = ReliableChannel(sim, random.Random(3), "c",
                                  deliver=received.append, **kwargs)
        return sim, channel, received, labels

    def test_clean_channel_quiesces_with_nothing_pending(self):
        sim, channel, received, labels = self._channel(
            delay=Constant(us(100)))
        for i in range(5):
            channel.send(i)
        # Stop well before the earliest retransmit deadline (>= 400 us).
        sim.run(until=us(250))
        assert received == list(range(5))
        assert channel.in_flight == 0
        assert sim.pending() == 0
        assert sim.next_event_time() is None
        # The acked frames' timers never fired, not even as no-ops.
        sim.run()
        assert not [label for label in labels if label.startswith("retx:")]
        assert sim.now == us(250)

    def test_reset_cancels_the_dead_epochs_timers(self):
        fault = LinkFault()
        sim, channel, received, labels = self._channel(
            delay=Constant(us(100)), fault=fault)
        # An outage: every frame is dropped on the wire, so the armed
        # retransmit timers are the only events in the kernel.
        fault.down = True
        for i in range(4):
            channel.send(i)
        assert channel.in_flight == 4
        assert sim.pending() == 4
        channel.reset()
        assert channel.in_flight == 0
        assert sim.pending() == 0
        assert sim.next_event_time() is None
        # The new epoch starts clean and works.
        fault.down = False
        channel.send("fresh")
        sim.run()
        assert received == ["fresh"]
        assert not [label for label in labels if label.startswith("retx:")]

    def test_fast_retransmit_supersedes_the_original_timer(self):
        fault = LinkFault()
        sim, channel, received, labels = self._channel(
            delay=Constant(us(100)), fault=fault)
        fault.loss_prob = 1.0
        channel.send(0)
        fault.loss_prob = 0.0
        for i in range(1, 8):
            channel.send(i)
        sim.run()
        assert received == list(range(8))
        # Dup-acks resent frame 0 at 200 us, before its original timer
        # (400 us) was due; the resends' own timers died with the ack.
        assert "retx:c:0" not in labels
        assert sim.pending() == 0
        # The last event is the last ack's arrival, not a stale timer.
        assert sim.now == us(600)

    def test_ack_handling_is_linear_in_acked_frames(self):
        # One cumulative ack for a large backlog: every frame's state is
        # released and every timer cancelled in a single walk.
        sim, channel, received, labels = self._channel(
            delay=Constant(us(100)), serialize_ticks=us(1))
        for i in range(500):
            channel.send(i)
        sim.run(until=ms(2))
        assert received == list(range(500))
        assert channel.in_flight == 0
        assert sim.pending() == 0
