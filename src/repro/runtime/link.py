"""Physical links and the reliability protocol above them.

The paper assumes "All communication in our model is guaranteed to be
reliable, FIFO, and fair", while the *failure model* includes "link
failures (causing loss, re-ordering, or duplication of messages sent over
physical links)".  Those two statements are reconciled the usual way: an
unreliable physical link under a sequence-number/ack/retransmit protocol.
This module builds both layers from scratch:

* :class:`RawLink` — delivers frames after a sampled delay, dropping,
  duplicating, and reordering them per configured probabilities.
* :class:`ReliableChannel` — a unidirectional reliable-FIFO channel over
  two raw links (data + acks): cumulative acks, periodic retransmission,
  receive-side reorder buffer, exactly-once in-order delivery within an
  epoch.  Engine crashes reset the channel to a new epoch (the channel's
  state is volatile); recovery above the channel is TART's replay.
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
        self.frames_sent = 0
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
        self.frames_sent += 1
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


class ReliableChannel:
    """Reliable FIFO unidirectional channel over raw links.

    ``deliver`` receives application items exactly once, in send order,
    within the current epoch.  :meth:`reset` starts a new epoch (used
    when either endpoint engine fails): unacked data is discarded and
    stale frames from the old epoch are ignored on arrival.
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
        self.data_link = RawLink(sim, rng, f"{name}:data", delay, fault,
                                 serialize_ticks=serialize_ticks)
        self.ack_link = RawLink(sim, rng, f"{name}:ack", delay, fault)
        base = max(1, int(delay.mean()))
        self.rto = int(rto) if rto is not None else max(us(50), 4 * base)

        self._epoch = 0
        # Sender state.
        self._send_seq = 0
        # Unacked items by seq.  Acks are cumulative, so the keys are
        # always a contiguous range ending at _send_seq.
        self._unacked: Dict[int, Any] = {}
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

    # -- sender side -----------------------------------------------------
    def send(self, item: Any) -> None:
        """Queue one item for reliable in-order delivery."""
        seq = self._send_seq
        self._send_seq += 1
        self._unacked[seq] = item
        self._transmit_frame(seq, attempt=1, first=True)

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
        if not first:
            self.retransmissions += 1
            self._tx_meta[seq][2].cancel()  # this transmission supersedes it
        frame = ("data", self._epoch, seq, self._unacked[seq])
        queue_wait = self.data_link.transmit(frame, self._on_frame)
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
    def _on_frame(self, frame) -> None:
        kind, epoch, seq, item = frame
        if epoch != self._epoch:
            return  # stale frame from before a reset
        if kind == "ack":
            self._on_ack(seq)
            return
        if kind != "data":  # pragma: no cover - defensive
            raise TransportError(f"unknown frame kind {kind!r}")
        # Cumulative ack of the highest in-order seq received so far.
        if seq < self._recv_expected:
            self._send_ack()
            return
        self._recv_buffer[seq] = item
        while self._recv_expected in self._recv_buffer:
            ready = self._recv_buffer.pop(self._recv_expected)
            self._recv_expected += 1
            self.delivered += 1
            self._deliver(ready)
        self._send_ack()

    def _send_ack(self) -> None:
        frame = ("ack", self._epoch, self._recv_expected, None)
        self.ack_link.transmit(frame, self._on_frame)

    def _on_ack(self, next_expected: int) -> None:
        seq = self._send_seq - len(self._unacked)  # lowest outstanding
        while seq < next_expected:
            del self._unacked[seq]
            last_tx, retransmitted, timer = self._tx_meta.pop(seq)
            timer.cancel()
            if not retransmitted:
                # Karn's rule: only unambiguous samples train the RTT.
                sample = float(self.sim.now - last_tx)
                if self._srtt is None:
                    self._srtt = sample
                else:
                    self._srtt = 0.875 * self._srtt + 0.125 * sample
            seq += 1
        # Fast retransmit: three acks for the same prefix while the next
        # frame is outstanding mean it was lost (later frames arrived).
        if next_expected == self._last_ack_value:
            self._dup_acks += 1
            if self._dup_acks >= 3 and next_expected in self._unacked:
                self._dup_acks = 0
                self._transmit_frame(next_expected, attempt=1, first=False)
        else:
            self._last_ack_value = next_expected
            self._dup_acks = 0

    # -- lifecycle ---------------------------------------------------------
    def reset(self) -> None:
        """Start a new epoch, discarding all channel state.

        Called when either endpoint fails: in-flight and unacked frames
        are lost (they belong to the dead epoch), exactly the loss that
        TART's replay protocol recovers from.
        """
        self._epoch += 1
        self._send_seq = 0
        self._unacked.clear()
        for _last_tx, _retransmitted, timer in self._tx_meta.values():
            timer.cancel()
        self._tx_meta.clear()
        self._recv_expected = 0
        self._recv_buffer.clear()
        self._srtt = None
        self._last_ack_value = -1
        self._dup_acks = 0

    @property
    def in_flight(self) -> int:
        """Number of unacknowledged items (diagnostic)."""
        return len(self._unacked)
