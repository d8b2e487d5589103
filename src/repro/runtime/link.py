"""Physical links and the reliability protocol above them.

The paper assumes "All communication in our model is guaranteed to be
reliable, FIFO, and fair", while the *failure model* includes "link
failures (causing loss, re-ordering, or duplication of messages sent over
physical links)".  Those two statements are reconciled the usual way: an
unreliable physical link under a sequence-number/ack/retransmit protocol.
This module builds both layers from scratch:

* :class:`RawLink` — delivers frames after a sampled delay, dropping,
  duplicating, and reordering them per configured probabilities.
* :class:`SendWindow` — the protocol's sender half, sans I/O; the live
  socket channel (``repro.net.channel``) runs on it too.
* :class:`ReliableChannel` — a unidirectional reliable-FIFO channel over
  two raw links (data + acks): a :class:`SendWindow`, per-frame
  retransmission, receive-side reorder buffer, exactly-once in-order
  delivery within an epoch.  Engine crashes reset the channel to a new
  epoch (the channel's state is volatile); recovery above the channel
  is TART's replay.

A channel whose link cannot fault (constant delay, no serialization,
and no fault knobs handed in by its caller) is *perfect*: it skips the
protocol and sends each frame as one kernel event stamped with the
epoch, since acks, timers and RTT samples could not change what is
delivered.  :meth:`ReliableChannel.link_fault` is the one way to its
knobs; it engages the protocol in the exact state, random stream
included, that running it all along would have left.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Any, Callable, Dict, Optional

from repro.errors import TransportError
from repro.sim.distributions import Constant, Distribution
from repro.sim.kernel import Simulator, us


class LinkFault:
    """Mutable fault-injection knobs for one raw link."""

    def __init__(self, loss_prob: float = 0.0, dup_prob: float = 0.0,
                 reorder_extra: Optional[Distribution] = None):
        self.loss_prob = float(loss_prob)
        self.dup_prob = float(dup_prob)
        self.reorder_extra = reorder_extra
        #: While True, every frame is dropped (a link outage).
        self.down = False

    @property
    def clean(self) -> bool:
        """Whether these knobs can neither drop, copy nor delay a frame."""
        return not (self.down or self.loss_prob or self.dup_prob
                    or self.reorder_extra is not None)


class RawLink:
    """An unreliable, delaying physical link.

    ``serialize_ticks`` models finite bandwidth: each frame occupies the
    link for that long before its propagation delay starts, so bursts
    queue behind each other and experienced delay grows with load —
    the physical effect the paper's load-correlated delay estimators
    (II.G.1) are meant to predict.  Zero (the default) means infinite
    bandwidth.
    """

    def __init__(self, sim: Simulator, rng: random.Random, name: str,
                 delay: Distribution, fault: Optional[LinkFault] = None,
                 serialize_ticks: int = 0):
        self.sim = sim
        self.rng = rng
        self.name = name
        self.delay = delay
        self.fault = fault or LinkFault()
        self.serialize_ticks = int(serialize_ticks)
        self._free_at = 0
        self._label = f"link:{name}"
        #: Diagnostics.
        self.frames_dropped = 0
        self.frames_duplicated = 0

    def transmit(self, frame: Any, deliver: Callable[[Any], None]) -> int:
        """Send one frame; ``deliver`` fires 0, 1, or 2 times later.

        Returns the local serialization-queue wait in ticks — the part
        of the latency the *sender's own NIC* can observe, which the
        reliability layer uses to avoid retransmitting frames that are
        still sitting in its own queue.  Loss happens "on the wire", so
        dropped frames still pay (and report) their queue wait.
        """
        sim, rng, fault = self.sim, self.rng, self.fault
        queue_wait = 0
        if self.serialize_ticks:
            start = max(sim.now, self._free_at)
            self._free_at = start + self.serialize_ticks
            queue_wait = self._free_at - sim.now
        if fault.down or rng.random() < fault.loss_prob:
            self.frames_dropped += 1
            return queue_wait
        copies = 1
        if rng.random() < fault.dup_prob:
            copies = 2
            self.frames_duplicated += 1
        for _ in range(copies):
            delay = queue_wait + self.delay.sample(rng)
            if fault.reorder_extra is not None:
                delay += fault.reorder_extra.sample(rng)
            sim.after(delay, partial(deliver, frame), self._label)
        return queue_wait


class SendWindow:
    """The sender half of a reliable FIFO channel, sans I/O: sequence
    numbers, the unacked tail and the cumulative-ack window check."""

    __slots__ = ("next_seq", "unacked")

    def __init__(self) -> None:
        self.next_seq = 0
        #: seq -> item for the seqs [frontier, next_seq), oldest first.
        self.unacked: Dict[int, Any] = {}

    @property
    def frontier(self) -> int:
        """Every seq below it is acknowledged."""
        return self.next_seq - len(self.unacked)

    def push(self, item: Any) -> int:
        """Hold ``item`` until acked under the next seq; returns it."""
        seq = self.next_seq
        self.next_seq = seq + 1
        self.unacked[seq] = item
        return seq

    def ack(self, upto: int) -> Optional[range]:
        """Release the seqs below ``upto`` and return them; None (and no
        change) when ``upto`` lies outside ``[frontier, next_seq]``."""
        unacked = self.unacked
        frontier = self.next_seq - len(unacked)
        if upto < frontier or upto > self.next_seq:
            return None
        released = range(frontier, upto)
        for seq in released:
            del unacked[seq]
        return released

    def reset(self) -> None:
        self.next_seq = 0
        self.unacked.clear()


class ReliableChannel:
    """Reliable FIFO unidirectional channel over raw links.

    ``deliver`` receives application items exactly once, in send order,
    within the current epoch.  :meth:`reset` starts a new epoch (used
    when either endpoint engine fails): unacked data is discarded and
    stale frames from the old epoch are ignored on arrival.

    A ``fault`` passed in stays in its caller's hands, so the channel
    runs the protocol from the start.  Without one, the data and ack
    links share knobs that only :meth:`link_fault` hands out, and a
    link that cannot fault skips the protocol until then (see
    :attr:`perfect`).
    """

    def __init__(self, sim: Simulator, rng: random.Random, name: str,
                 deliver: Callable[[Any], None],
                 delay: Optional[Distribution] = None,
                 fault: Optional[LinkFault] = None,
                 rto: Optional[int] = None,
                 serialize_ticks: int = 0):
        delay = delay if delay is not None else Constant(0)
        self.sim = sim
        self.name = name
        self._deliver = deliver
        held = fault is not None
        fault = fault if held else LinkFault()
        self._data_link = RawLink(sim, rng, f"{name}:data", delay, fault,
                                  serialize_ticks=serialize_ticks)
        self._ack_link = RawLink(sim, rng, f"{name}:ack", delay, fault)
        base = max(1, int(delay.mean()))
        self.rto = int(rto) if rto is not None else max(us(50), 4 * base)
        #: True while the channel skips the protocol: every frame takes
        #: exactly the constant delay, arrives once and in order, and its
        #: ack would land before the first retransmit timer fires.
        self.perfect = (not held and isinstance(delay, Constant)
                        and not serialize_ticks
                        and 2 * delay.value < self.rto)
        self._one_way = delay.value if self.perfect else 0
        self._data_label = self._data_link._label
        # When the ack of the latest current-epoch arrival on a perfect
        # channel would land; -1 when there is none.
        self._ack_due = -1

        self._epoch = 0
        self._window = SendWindow()
        # RTT estimation (Jacobson smoothing, Karn's rule: retransmitted
        # frames give no samples).  Queueing on a serialized link inflates
        # the measured RTT and with it the timeout, so congestion damps
        # retransmission instead of feeding it.
        self._srtt: Optional[float] = None
        # seq -> (last_tx, retransmitted, armed retransmit timer) of the
        # latest transmission of each unacked frame.
        self._tx_meta: Dict[int, tuple] = {}
        # Fast retransmit: repeated acks for the same prefix mean the
        # next frame was lost while later ones arrived.
        self._last_ack_value = -1
        self._dup_acks = 0
        #: Retransmission backoff cap, as a multiple of the base timeout.
        self.max_backoff = 32
        # Receiver state.
        self._recv_expected = 0
        self._recv_buffer: Dict[int, Any] = {}
        #: Diagnostics.
        self.retransmissions = 0
        self.delivered = 0
        #: Frames put on the links: data (retransmissions included) and
        #: one ack per current-epoch arrival; a perfect channel counts
        #: the same frames it skips.
        self.frames_sent = 0

    # -- sender side -----------------------------------------------------
    def send(self, item: Any) -> None:
        """Queue one item for reliable in-order delivery."""
        if self.perfect:
            self._window.next_seq += 1
            self.frames_sent += 1
            self.sim.after(self._one_way,
                           partial(self._arrive, self._epoch, item),
                           self._data_label)
        else:
            self._transmit_frame(self._window.push(item), attempt=1,
                                 first=True)

    def _effective_rto(self) -> int:
        if self._srtt is None:
            return self.rto
        return max(self.rto, int(2.0 * self._srtt))

    def _transmit_frame(self, seq: int, attempt: int, first: bool) -> None:
        """(Re)send one frame and arm its per-frame retransmit timer.

        The timer accounts for the frame's own serialization-queue wait
        (known locally) plus the adaptive round-trip timeout, backed off
        exponentially per attempt — so a congested or dead link sees a
        geometrically thinning trickle, never a flood.
        """
        self.frames_sent += 1
        if not first:
            self.retransmissions += 1
            self._tx_meta[seq][2].cancel()  # this transmission supersedes it
        frame = (self._epoch, seq, self._window.unacked[seq])
        queue_wait = self._data_link.transmit(frame, self._on_data)
        backoff = min(self._effective_rto() * (2 ** (attempt - 1)),
                      self.max_backoff * self.rto)
        # The timer lives exactly as long as this transmission is the
        # frame's latest and unacked: the ack, a newer transmission and
        # reset() each cancel it, so when it fires the frame is overdue.
        timer = self.sim.after(
            queue_wait + backoff,
            partial(self._transmit_frame, seq, attempt + 1, False),
            f"retx:{self.name}:{seq}")
        self._tx_meta[seq] = (self.sim.now, not first, timer)

    # -- receiver side ---------------------------------------------------
    def _arrive(self, epoch: int, item: Any) -> None:
        """A perfect channel's frame lands: deliver it, owe its ack."""
        if epoch != self._epoch:
            return  # stale frame from before a reset
        self._recv_expected += 1
        self.delivered += 1
        self.frames_sent += 1
        self._ack_due = self.sim.now + self._one_way
        self._deliver(item)

    def _on_data(self, frame) -> None:
        epoch, seq, item = frame
        if epoch != self._epoch:
            return  # stale frame from before a reset
        self.frames_sent += 1  # the ack sent below
        if seq >= self._recv_expected:  # else a duplicate: just re-ack
            self._recv_buffer[seq] = item
            while self._recv_expected in self._recv_buffer:
                ready = self._recv_buffer.pop(self._recv_expected)
                self._recv_expected += 1
                self.delivered += 1
                self._deliver(ready)
        # Cumulative ack of the highest in-order seq received so far.
        self._ack_link.transmit((self._epoch, self._recv_expected),
                                self._on_ack)

    # -- sender side, acks -------------------------------------------------
    def _on_ack(self, frame) -> None:
        epoch, next_expected = frame
        if epoch != self._epoch:
            return  # stale ack from before a reset
        # A reordered (stale) ack releases nothing but still counts
        # towards fast retransmit below.
        for seq in self._window.ack(next_expected) or ():
            last_tx, retransmitted, timer = self._tx_meta.pop(seq)
            timer.cancel()
            if not retransmitted:
                # Karn's rule: only unambiguous samples train the RTT.
                sample = float(self.sim.now - last_tx)
                if self._srtt is None:
                    self._srtt = sample
                else:
                    self._srtt = 0.875 * self._srtt + 0.125 * sample
        # Fast retransmit: three acks for the same prefix while the next
        # frame is outstanding mean it was lost (later frames arrived).
        if next_expected == self._last_ack_value:
            self._dup_acks += 1
            if self._dup_acks >= 3 and next_expected in self._window.unacked:
                self._dup_acks = 0
                self._transmit_frame(next_expected, attempt=1, first=False)
        else:
            self._last_ack_value = next_expected
            self._dup_acks = 0

    # -- lifecycle ---------------------------------------------------------
    def link_fault(self) -> LinkFault:
        """The link's fault knobs; the protocol runs from now on.

        A perfect channel hands over only when idle: a current-epoch
        frame or ack in flight has no window entry or timer to take
        over, so that raises :class:`~repro.errors.TransportError`.  An
        idle one draws what its raw links would have drawn (loss and
        duplication: two per data frame and per ack) and takes the
        state a clean history leaves: every frame acked once, after a
        round trip of exactly twice the delay.
        """
        if self.perfect:
            if (self._window.next_seq != self._recv_expected
                    or self.sim.now <= self._ack_due):
                raise TransportError(
                    f"link {self.name}: cannot hand its fault knobs over "
                    f"with frames in flight")
            rng = self._data_link.rng
            for _ in range(2 * self.frames_sent):
                rng.random()
            if self._recv_expected:
                self._srtt = float(2 * self._one_way)
                self._last_ack_value = self._recv_expected
            self.perfect = False
        return self._data_link.fault

    def reset(self) -> None:
        """Start a new epoch, discarding all channel state.

        Called when either endpoint fails: in-flight and unacked frames
        are lost (they belong to the dead epoch), exactly the loss that
        TART's replay protocol recovers from.
        """
        self._epoch += 1
        self._window.reset()
        for _last_tx, _retransmitted, timer in self._tx_meta.values():
            timer.cancel()
        self._tx_meta.clear()
        self._recv_expected = 0
        self._recv_buffer.clear()
        self._srtt = None
        self._last_ack_value = -1
        self._dup_acks = 0
        self._ack_due = -1

    @property
    def in_flight(self) -> int:
        """Number of unacknowledged items (diagnostic); on a perfect
        channel an item counts until it lands."""
        if self.perfect:
            return self._window.next_seq - self._recv_expected
        return len(self._window.unacked)
