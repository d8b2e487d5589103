"""External producers, ingress timestamping, and external consumers.

The application boundary (paper II.A): "A component-based application
consists of a network of components that include at least one external
producer of input, and at least one external consumer."

* :class:`ExternalIngress` — the stable front door of one external input
  wire.  It stamps each arriving payload with the current real time as
  its virtual time, logs it (the only logging in the system), and hands
  it to the destination engine.  The ingress survives engine failure and
  serves replay requests from its log.
* :class:`PoissonProducer` — the workload generator used throughout the
  evaluation ("External clients fed messages into the Sender[i]
  components via a Poisson process").
* :class:`ExternalConsumer` — records delivered outputs, measures
  end-to-end latency, and separates *effective* output from output
  stutter (re-deliveries after failover, which "external clients can
  easily compensate for").
"""

from __future__ import annotations

import marshal
from array import array
from collections.abc import Sequence
from typing import Any, Callable, Iterator, List, Optional, Tuple

from repro.core.message import CuriosityProbe, DataMessage, ReplayRequest, SilenceAdvance, StableNotice
from repro.core.ports import WireSpec
from repro.errors import TransportError
from repro.runtime.message_log import ExternalMessageLog, unencodable
from repro.sim.distributions import Distribution, Exponential
from repro.vt.ticks import TickStreamReceiver


class ExternalIngress:
    """Stable ingress node for one external input wire."""

    def __init__(self, node_id: str, sim, network, spec: WireSpec,
                 dst_engine_id: str):
        self.node_id = node_id
        self.alive = True  # stable: never fails in the single-failure model
        self.sim = sim
        self.network = network
        self.spec = spec
        self.dst_engine_id = dst_engine_id
        self.log = ExternalMessageLog(spec.wire_id)

    def offer(self, payload: Any,
              stamp: Optional[Callable[[int, Any], Any]] = None) -> int:
        """Timestamp, log, and deliver one external message.

        The virtual time is the real arrival time — safe because the
        message is logged first.  Two arrivals in the same tick get
        consecutive virtual times (each tick on a wire carries at most
        one data tick); the bump is a deterministic function of the
        arrival sequence, so replay reproduces it from the log.
        Returns the assigned sequence number.

        ``stamp`` optionally rewrites the payload as a function of the
        assigned virtual time *before* it is logged (the gateway embeds
        ``birth = vt`` so latency is measured from the admission stamp).
        Because stamping happens pre-log, replaying the log re-delivers
        the already-stamped payload byte-identically: the log holds the
        payload's bytes as they were when offered, so neither a second
        stamp nor a handler that mutates its input can change a
        re-delivery.  A payload the log refuses raises
        :class:`~repro.errors.StateError` and is not delivered.
        """
        vt = self.sim.now
        if vt <= self.log.last_vt:
            vt = self.log.last_vt + 1
        if stamp is not None:
            payload = stamp(vt, payload)
        seq = self.log.append(vt, payload)
        self.network.send(self.node_id, self.dst_engine_id,
                          DataMessage(self.spec.wire_id, seq, vt, payload))
        return seq

    def receive(self, item: Any) -> None:
        """Handle control traffic addressed to this ingress."""
        if isinstance(item, ReplayRequest):
            for seq, vt, payload in self.log.entries_from(item.from_seq):
                self.network.send(
                    self.node_id, self.dst_engine_id,
                    DataMessage(self.spec.wire_id, seq, vt, payload))
            # Trailing advance: sound because it travels FIFO behind the
            # replayed data, and it tells the restored engine the replay
            # is complete (re-enabling its local external-horizon bound).
            self.network.send(
                self.node_id, self.dst_engine_id,
                SilenceAdvance(self.spec.wire_id, self.sim.now - 1),
            )
            return
        if isinstance(item, CuriosityProbe):
            # Any future external message is stamped >= now, so the wire
            # is provably silent through now - 1.
            self.network.send(
                self.node_id, self.dst_engine_id,
                SilenceAdvance(self.spec.wire_id, self.sim.now - 1),
            )
            return
        if isinstance(item, StableNotice):
            self.log.truncate_through(item.through_seq)
            return
        raise TransportError(f"ingress {self.node_id}: unexpected {item!r}")


class PoissonProducer:
    """Feeds an ingress from a Poisson (or arbitrary-renewal) process."""

    def __init__(self, sim, rng, ingress: ExternalIngress,
                 payload_factory: Callable[[Any, int, int], Any],
                 mean_interarrival: int,
                 interarrival: Optional[Distribution] = None,
                 max_messages: Optional[int] = None,
                 stop_at: Optional[int] = None):
        self.sim = sim
        self.rng = rng
        self.ingress = ingress
        self.payload_factory = payload_factory
        self.interarrival = interarrival or Exponential(mean_interarrival)
        self.max_messages = max_messages
        self.stop_at = stop_at
        self.produced = 0
        self._stopped = False

    def start(self) -> None:
        """Schedule the first arrival."""
        self._schedule_next()

    def stop(self) -> None:
        """Produce no further messages."""
        self._stopped = True

    def _schedule_next(self) -> None:
        gap = self.interarrival.sample(self.rng)
        self.sim.after(gap, self._produce, f"producer:{self.ingress.node_id}")

    def _produce(self) -> None:
        if self._stopped:
            return
        if self.stop_at is not None and self.sim.now >= self.stop_at:
            return
        if self.max_messages is not None and self.produced >= self.max_messages:
            return
        payload = self.payload_factory(self.rng, self.produced, self.sim.now)
        self.ingress.offer(payload)
        self.produced += 1
        self._schedule_next()


class OutputRecords(Sequence):
    """Read-only ``(seq, vt, payload, tick)`` view of a consumer's columns.

    Each record is built, and its payload decoded, when read: iterating
    yields them one at a time, and ``len`` reads the payload column.  The
    view follows the consumer as it receives more.  It compares equal to
    another view or a list holding the same records.
    """

    __slots__ = ("_vts", "_payloads", "_ticks")

    def __init__(self, vts: array, payloads: List[bytes], ticks: array):
        self._vts = vts
        self._payloads = payloads
        self._ticks = ticks

    def __len__(self) -> int:
        return len(self._payloads)

    def __iter__(self) -> Iterator[Tuple[int, int, Any, int]]:
        return zip(range(len(self._payloads)), self._vts,
                   map(marshal.loads, self._payloads), self._ticks)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        seq = range(len(self._payloads))[index]
        return (seq, self._vts[seq], marshal.loads(self._payloads[seq]),
                self._ticks[seq])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, OutputRecords):
            other = list(other)
        elif not isinstance(other, list):
            return NotImplemented
        return list(self) == other

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"OutputRecords({list(self)!r})"


class ExternalConsumer:
    """Terminal node of one external output wire.

    The effective output — the first delivery of each sequence number —
    is kept in columns: virtual times and arrival ticks in two
    ``array('q')`` and payloads, encoded by ``marshal`` on arrival, in a
    list.  The sequence number is not stored: the wire starts at 0 and a
    gap raises, so the n-th effective output has seq n.  One output
    costs its payload's bytes, a list slot and 16 bytes of ``array('q')``;
    readers get decoded copies, so the sink never aliases an object the
    sender still holds.  A payload ``marshal`` cannot hold raises
    :class:`~repro.errors.StateError` before anything is recorded.
    Re-deliveries (output stutter) are rare and keep whole records in
    :attr:`stutter_outputs`.
    """

    def __init__(self, node_id: str, sim, metrics,
                 birth_of: Optional[Callable[[Any], Optional[int]]] = None):
        self.node_id = node_id
        self.alive = True
        self.sim = sim
        self.metrics = metrics
        self.birth_of = birth_of
        self._receiver: Optional[TickStreamReceiver] = None
        self._vts = array("q")
        self._payloads: List[bytes] = []
        self._ticks = array("q")
        #: First delivery of each sequence number, as
        #: ``(seq, vt, payload, real_time)`` records built when read.
        self.effective_outputs = OutputRecords(self._vts, self._payloads,
                                               self._ticks)
        #: Every re-delivery of a sequence number already delivered:
        #: ``(seq, vt, payload, real_time)``.
        self.stutter_outputs: List[Tuple[int, int, Any, int]] = []
        #: Data messages received, stutter included.
        self.deliveries = 0

    @property
    def stutter(self) -> int:
        """Re-deliveries received (output stutter)."""
        return len(self.stutter_outputs)

    def receive(self, item: Any) -> None:
        """Record a delivered output message."""
        if not isinstance(item, DataMessage):
            return  # consumers ignore control traffic (e.g. silence)
        try:
            blob = marshal.dumps(item.payload)
        except ValueError:
            raise unencodable(item.payload, item.wire_id) from None
        if self._receiver is None:
            self._receiver = TickStreamReceiver(item.wire_id)
        self.deliveries += 1
        verdict = self._receiver.accept(item.seq, item.vt)
        if verdict == "duplicate":
            # Output stutter: a rolled-back engine re-delivered this.
            self.stutter_outputs.append(
                (item.seq, item.vt, item.payload, self.sim.now))
            self.metrics.count("output_stutter")
            return
        if verdict == "gap":
            # Engine-failure recovery always re-sends from a checkpoint at
            # or before anything delivered, and link loss is repaired by
            # the reliable channel — a gap here is a protocol bug.
            raise TransportError(
                f"consumer {self.node_id}: output gap at seq {item.seq}"
            )
        self._vts.append(item.vt)
        self._payloads.append(blob)
        self._ticks.append(self.sim.now)
        if self.birth_of is not None:
            birth = self.birth_of(item.payload)
            if birth is not None:
                self.metrics.record_latency(birth, self.sim.now)

    def payloads(self) -> List[Any]:
        """Effective output payloads in delivery order."""
        return list(map(marshal.loads, self._payloads))

    def arrival_ticks(self) -> List[int]:
        """Arrival tick of each effective output, in delivery order."""
        return self._ticks.tolist()

    def __len__(self) -> int:
        return len(self._payloads)
