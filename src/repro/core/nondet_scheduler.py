"""The non-deterministic baseline scheduler (paper's "Non-deterministic"
execution mode).

"The Merger processes messages in real-time arrival order."  This is the
conventional JVM behaviour TART's overhead is measured against: one
logical queue per component, served FIFO by *arrival* time, with no
silence tracking and no pessimism delay.

The baseline shares everything else with the deterministic runtime —
cost models, jitter, transport, metrics — so latency comparisons isolate
the cost of determinism.  Virtual times are still stamped on outputs
(they are cheap and let experiments count how often real arrival order
disagrees with virtual-time order), but they never influence scheduling.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro.core.message import DataMessage
from repro.core.scheduler import ComponentRuntime, InWireState
from repro.errors import SchedulingError


class NonDeterministicComponentRuntime(ComponentRuntime):
    """Arrival-order variant of :class:`ComponentRuntime`."""

    deterministic = False

    def __init__(self, component, processor, services, silence_policy):
        super().__init__(component, processor, services, silence_policy)
        #: Wire ids in message-arrival order; the front identifies the
        #: next message (FIFO within a wire, so the front of that wire's
        #: pending queue is the referenced message).
        self._arrival_order: Deque[int] = deque()

    def on_data(self, msg: DataMessage) -> None:
        wire = self.in_wires.get(msg.wire_id)
        if wire is None:
            raise SchedulingError(
                f"{self.component.name}: data on unknown wire {msg.wire_id}"
            )
        verdict = wire.receiver.accept(msg.seq, msg.vt)
        if verdict != "deliver":
            # The baseline has no recovery; duplicates/gaps only occur in
            # fault experiments, which run deterministically.
            self.services.metrics.count("baseline_anomalies")
            return
        if msg.vt < self._max_arrived_vt:
            self.services.metrics.count("out_of_order_arrivals")
        self._max_arrived_vt = max(self._max_arrived_vt, msg.vt)
        wire.pending.append(msg)
        self._arrival_order.append(msg.wire_id)
        for observer in self.observers:
            observer.on_arrival(self, msg)
        self.maybe_dispatch()

    def on_silence(self, adv) -> None:
        # Silence is meaningless to the baseline; tolerate and drop so a
        # deterministic upstream can coexist in mixed experiments.
        return

    def maybe_dispatch(self) -> None:
        if self._busy is not None or self.processor.busy:
            return
        nxt = self._next_arrival()
        if nxt is None:
            return
        msg, wire = nxt
        self._dispatch(msg, wire)

    def _next_arrival(self) -> Optional[Tuple[DataMessage, InWireState]]:
        while self._arrival_order:
            wire_id = self._arrival_order[0]
            wire = self.in_wires[wire_id]
            if not wire.pending:
                # Stale reference (should not happen: dispatch pops both).
                self._arrival_order.popleft()
                continue
            self._arrival_order.popleft()
            return wire.pending[0], wire
        return None
