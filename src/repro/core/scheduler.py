"""Deterministic pessimistic scheduling of one component.

:class:`ComponentRuntime` is the augmented component the paper's
deployment-time transformation produces: it wraps a user
:class:`~repro.core.component.Component` with

* per-input-wire tick accounting and pending queues,
* virtual-time-order dispatch with the pessimistic rule — the earliest
  pending message (vt *t*) runs only when every other input wire is
  accounted (data or silence) through *t* (paper II.E).  Candidate
  selection is heap-backed: a lazy min-heap of per-wire head
  :class:`~repro.vt.time.MessageKey` entries (per-wire virtual times are
  strictly increasing, so the head of each pending deque is its
  minimum), cleaned as stale entries surface, replaces the historical
  every-event scan of ``in_wires``,
* estimator-driven output timestamping,
* silence-fact computation for curiosity probes and aggressive
  heartbeats (paper II.H),
* busy/idle bookkeeping against a simulated processor, and
* checkpoint snapshot/restore of everything above.

Unlike Jefferson's Time Warp there is no rollback on the scheduling path:
"TART's scheduling algorithm is pessimistic: a scheduler processes input
messages in strict virtual time order without rollback" (II.D).  Rollback
exists only in the *recovery* path (checkpoint restore after failure).

The non-deterministic baseline lives in
:mod:`repro.core.nondet_scheduler` and shares this module's machinery,
overriding only the dispatch rule.
"""

from __future__ import annotations

import dataclasses
import heapq
from collections import deque
from dataclasses import dataclass
from functools import partial
from types import GeneratorType
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.core.component import Component, HandlerSpec
from repro.core.estimators import QueueCorrelatedDelayEstimator
from repro.core.message import (
    CallReply,
    CallRequest,
    CuriosityProbe,
    DataMessage,
    ReplayRequest,
    SilenceAdvance,
)
from repro.core.ports import CallTicket, OutputPort, ServicePort, WireSpec
from repro.errors import (
    ComponentError,
    SchedulingError,
    WiringError,
)
from repro.vt.silence import SilenceMap
from repro.vt.ticks import TickStreamReceiver, TickStreamSender
from repro.vt.time import NEVER, MessageKey


@dataclass
class RuntimeServices:
    """Everything the hosting engine provides to a component runtime.

    Bundled as callables so the core scheduler has no dependency on the
    engine/transport layer.
    """

    #: The simulation kernel (source of real time and event scheduling).
    sim: Any
    #: RNG stream used for actual-duration sampling of this component.
    rng: Any
    #: Jitter model mapping nominal to actual durations.
    jitter: Any
    #: transmit(wire_spec, message): physically send a data message.
    transmit: Callable[[WireSpec, Any], None]
    #: send_control(wire_spec, control, toward_src): send a control
    #: message along a wire, toward its source (True) or destination.
    send_control: Callable[[WireSpec, Any, bool], None]
    #: Metrics sink.
    metrics: Any
    #: Prescient probe answers (paper III.A "Prescient" mode)?
    prescient: bool = False
    #: Called after each handler completion with
    #: (runtime, handler_spec, features, estimated_ticks, actual_ticks) —
    #: hook for calibration / drift monitoring.
    on_sample: Optional[Callable] = None


class InWireState:
    """Receiver-side state of one input wire."""

    __slots__ = ("spec", "receiver", "pending", "handler_spec", "external")

    def __init__(self, spec: WireSpec, handler_spec: HandlerSpec, external: bool):
        self.spec = spec
        self.receiver = TickStreamReceiver(spec.wire_id)
        self.pending: Deque[DataMessage] = deque()
        self.handler_spec = handler_spec
        self.external = external


@dataclass
class BusyInfo:
    """What the component is currently executing (for probe answers)."""

    message: DataMessage
    handler_spec: HandlerSpec
    features: Dict[str, int]
    dequeue_vt: int
    #: Index of the execution segment currently running (generators).
    segment: int = 0
    #: Cost model of that segment (``handler_spec.cost.segment(segment)``).
    seg_cost: Any = None
    #: Virtual time reached so far (end of the last finished segment).
    partial_vt: int = 0
    #: Accumulated actual (simulated-real) execution ticks.
    actual_ticks: int = 0
    #: Real time at which the current segment started executing.
    started_real: int = 0
    #: Sampled actual duration of the current segment.
    actual_current: int = 0
    #: Live generator for multi-segment (service-calling) handlers.
    generator: Any = None
    #: True while suspended waiting for a call reply.
    awaiting_reply: bool = False
    #: The ticket of the outstanding call, if any.
    ticket: Optional[CallTicket] = None
    #: call_id of the outstanding call (matches the eventual reply).
    call_id: Optional[int] = None


class ComponentRuntime:
    """Deterministic runtime for one component on one engine."""

    deterministic = True

    def __init__(
        self,
        component: Component,
        processor,
        services: RuntimeServices,
        silence_policy,
    ):
        self.component = component
        self.processor = processor
        self.services = services
        self.policy = silence_policy
        component._runtime = self

        #: Current virtual time of the component ("Sender1 reaches a
        #: virtual time of 233000").
        self.component_vt = 0

        self.in_wires: Dict[int, InWireState] = {}
        self.out_senders: Dict[int, TickStreamSender] = {}
        self.out_specs: Dict[int, WireSpec] = {}
        # Out-wires whose delay estimator reads the recent-emission count
        # (decided at wiring, WireSpec being frozen: estimators are ABCs,
        # and an isinstance against one costs three calls per emission).
        self._load_correlated: set = set()
        self.silence = SilenceMap()

        self._busy: Optional[BusyInfo] = None
        self._outbox: List[Tuple[OutputPort, Any, Optional[int]]] = []
        self._in_handler = False
        #: Pure-observation hooks (``on_arrival`` / ``on_hold`` /
        #: ``on_dispatch`` / ``on_emit`` / ``on_complete``), e.g. the
        #: execution and replay-clock tracers; an engine replaces this
        #: with its deployment's shared list.  Observers must never feed
        #: back into scheduling, RNG draws, or the wire format: traced
        #: and untraced runs stay byte-identical.
        self.observers: list = []
        # Clone handler specs so estimator revisions (determinism faults)
        # stay local to this runtime instead of mutating class-level state
        # shared across engines, replicas, and deployments.
        self._handler_specs = {
            name: dataclasses.replace(spec, cost=spec.cost.clone())
            for name, spec in type(component).handler_specs().items()
        }

        # Processor work-item label of each handler, by method name.
        self._segment_labels = {
            spec.method_name: f"{component.name}:{spec.method_name}"
            for spec in self._handler_specs.values()
        }

        # Reply routing for two-way calls issued by this component.
        self._next_call_id = 0
        self._reply_wires: Dict[int, WireSpec] = {}
        self._reply_receivers: Dict[int, TickStreamReceiver] = {}
        # Early replies (replayed after a failover before the re-executed
        # call catches up), keyed by (wire_id, call_id).
        self._reply_buffer: Dict[Tuple[int, int], CallReply] = {}
        # Pessimism-delay bookkeeping.
        self._delay_key: Optional[MessageKey] = None
        self._delay_start = 0
        # Curiosity probe bookkeeping.
        self._probe_outstanding: Dict[int, bool] = {}
        self._probe_not_before: Dict[int, int] = {}
        self._probe_retry_scheduled: Dict[int, bool] = {}
        # Out-of-order arrival accounting.
        self._max_arrived_vt = -1
        # Wires with an outstanding replay: their arrivals may carry old
        # virtual times, so local freshness assumptions are suspended.
        self._replay_pending: set = set()
        # Lazy min-heap of head MessageKeys over the pending queues:
        # per-wire virtual times strictly increase, so each wire's head
        # is its minimum and the heap top (after discarding stale
        # entries) is the global dispatch candidate.
        self._head_heap: List[MessageKey] = []
        # Whether any in-wire is external; like ``wire.external`` itself,
        # fixed at wiring time.
        self._has_external_wire = False
        # Unique handler specs across the in-wires (many wires share one
        # handler), for the idle-case minimum-cost estimate.
        self._wired_handler_specs: List[HandlerSpec] = []
        #: What the last :meth:`capture` took (receivers, reply
        #: receivers, silence, pending, sender marks), or None: the base
        #: of the next incremental snapshot.  Without one, an incremental
        #: snapshot ships everything but the cells whole.
        self._captured: Optional[tuple] = None
        self.policy.bind(self)

    # ------------------------------------------------------------------
    # Wiring (deployment time)
    # ------------------------------------------------------------------
    def add_in_wire(self, spec: WireSpec, external: bool = False) -> None:
        """Register an input wire delivering to ``spec.dst_input``."""
        if spec.wire_id in self.in_wires:
            raise WiringError(f"duplicate in-wire {spec.wire_id}")
        handler_spec = self._handler_specs.get(spec.dst_input)
        if handler_spec is None:
            raise WiringError(
                f"{self.component.name}: no handler for input '{spec.dst_input}'"
            )
        wire = InWireState(spec, handler_spec, external)
        self.in_wires[spec.wire_id] = wire
        if external:
            self._has_external_wire = True
        if handler_spec not in self._wired_handler_specs:
            self._wired_handler_specs.append(handler_spec)
        self.silence.add_wire(spec.wire_id)
        self._probe_outstanding[spec.wire_id] = False
        self._probe_not_before[spec.wire_id] = 0

    def add_out_wire(self, spec: WireSpec) -> None:
        """Register an output wire (data, call, or reply)."""
        if spec.wire_id in self.out_senders:
            raise WiringError(f"duplicate out-wire {spec.wire_id}")
        self.out_senders[spec.wire_id] = TickStreamSender(spec.wire_id)
        self.out_specs[spec.wire_id] = spec
        if isinstance(spec.delay_estimator, QueueCorrelatedDelayEstimator):
            self._load_correlated.add(spec.wire_id)

    def add_reply_wire(self, spec: WireSpec) -> None:
        """Register a wire on which this component receives call replies.

        Reply wires are not part of the silence map: while blocked on a
        call, the one reply is the only thing the component waits for.
        """
        self._reply_wires[spec.wire_id] = spec
        self._reply_receivers[spec.wire_id] = TickStreamReceiver(spec.wire_id)

    @property
    def reply_receivers(self) -> Dict[int, TickStreamReceiver]:
        """Receivers deduplicating this component's incoming call replies."""
        return self._reply_receivers

    # ------------------------------------------------------------------
    # Inbound events (called by the engine)
    # ------------------------------------------------------------------
    def on_data(self, msg: DataMessage) -> None:
        """A data tick (one-way message or call request) arrived."""
        wire = self.in_wires.get(msg.wire_id)
        if wire is None:
            raise SchedulingError(
                f"{self.component.name}: data on unknown wire {msg.wire_id}"
            )
        verdict = wire.receiver.accept(msg.seq, msg.vt)
        if verdict == "duplicate":
            self.services.metrics.count("duplicates_discarded")
            return
        if verdict == "gap":
            # Lost messages: ask the sender to fill [next_seq, msg.seq).
            # One outstanding request per wire: the reliable channel will
            # deliver it, and the fill arrives FIFO before anything newer.
            self.services.metrics.count("replay_gaps")
            if msg.wire_id not in self._replay_pending:
                self._request_replay(wire)
            return
        self._replay_pending.discard(msg.wire_id)
        if msg.vt < self._max_arrived_vt:
            self.services.metrics.count("out_of_order_arrivals")
        else:
            self._max_arrived_vt = msg.vt
        if not wire.pending:
            # New head: appends to a non-empty queue never change the
            # head (per-wire virtual times strictly increase).
            heapq.heappush(self._head_heap, msg.key())
        wire.pending.append(msg)
        self.silence.advance(msg.wire_id, msg.vt)
        self._probe_outstanding[msg.wire_id] = False
        for observer in self.observers:
            observer.on_arrival(self, msg)
        self.policy.on_enqueued(self, msg)
        self.maybe_dispatch()

    def on_silence(self, adv: SilenceAdvance) -> None:
        """A silence advance (explicit promise or probe answer) arrived."""
        if adv.wire_id not in self.in_wires:
            raise SchedulingError(
                f"{self.component.name}: silence on unknown wire {adv.wire_id}"
            )
        self._probe_outstanding[adv.wire_id] = False
        self._replay_pending.discard(adv.wire_id)
        if not self.silence.advance(adv.wire_id, adv.through_vt):
            # The answer did not help; allow a later re-probe after backoff.
            self._probe_not_before[adv.wire_id] = (
                self.services.sim.now + self.policy.probe_backoff
            )
        self.maybe_dispatch()

    def on_reply_msg(self, msg: CallReply) -> None:
        """A call reply arrived from the network: dedup, deliver or buffer.

        After a failover the callee replays retained replies, which may
        arrive before the re-executing caller has re-issued the matching
        call; such replies are buffered and consumed when the call is
        made (the call_id sequence is checkpointed, so re-issued calls
        carry their original ids).
        """
        recv = self._reply_receivers.get(msg.wire_id)
        if recv is None:
            raise SchedulingError(
                f"{self.component.name}: reply on unknown wire {msg.wire_id}"
            )
        verdict = recv.accept(msg.seq, msg.vt)
        if verdict == "duplicate":
            self.services.metrics.count("duplicates_discarded")
            return
        if verdict == "gap":
            if msg.wire_id not in self._replay_pending:
                self._replay_pending.add(msg.wire_id)
                self.services.send_control(
                    self._reply_wires[msg.wire_id],
                    ReplayRequest(msg.wire_id, recv.next_seq),
                    True,
                )
                self.services.metrics.count("replay_requests_sent")
            return
        self._replay_pending.discard(msg.wire_id)
        busy = self._busy
        if (busy is not None and busy.awaiting_reply
                and busy.call_id == msg.call_id):
            self._resume_from_reply(msg)
        else:
            self._reply_buffer[(msg.wire_id, msg.call_id)] = msg

    def _resume_from_reply(self, msg: CallReply) -> None:
        """Resume the suspended generator with the reply payload."""
        busy = self._busy
        if busy is None or not busy.awaiting_reply:
            raise SchedulingError(
                f"{self.component.name}: unexpected call reply {msg.call_id}"
            )
        busy.awaiting_reply = False
        busy.ticket = None
        busy.call_id = None
        # Resume: the next segment is dequeued at the max of the reply's
        # virtual time and the caller's partial virtual time.
        busy.partial_vt = max(msg.vt, busy.partial_vt)
        busy.segment += 1
        self._start_segment(busy, resume_value=msg.payload)

    # ------------------------------------------------------------------
    # Dispatch (the pessimistic rule)
    # ------------------------------------------------------------------
    def maybe_dispatch(self) -> None:
        """Dispatch the earliest eligible pending message, if any."""
        if self._busy is not None or self.processor.busy:
            return
        best = self._best_candidate()
        if best is None:
            self._delay_key = None
            self.policy.on_idle(self)
            return
        msg, wire = best
        if not self.silence.silent_through(msg.vt, excluding=msg.wire_id):
            self._enter_pessimism_delay(msg)
            return
        self._dispatch(msg, wire)

    def _best_candidate(self) -> Optional[Tuple[DataMessage, InWireState]]:
        top = self._clean_head()
        if top is None:
            return None
        wire = self.in_wires[top.wire_id]
        return wire.pending[0], wire

    def _clean_head(self) -> Optional[MessageKey]:
        """The live head key on top of the heap, discarding stale entries.

        An entry is live iff it still names the head of its wire's
        pending queue; anything else (dispatched head, emptied queue) is
        stale and dropped on sight.
        """
        heap = self._head_heap
        in_wires = self.in_wires
        while heap:
            key = heap[0]
            pending = in_wires[key.wire_id].pending
            if pending:
                head = pending[0]
                if head.seq == key.seq and head.vt == key.vt:
                    return key
            heapq.heappop(heap)
        return None

    def _enter_pessimism_delay(self, msg: DataMessage) -> None:
        for observer in self.observers:
            observer.on_hold(self, msg)
        key = msg.key()
        if self._delay_key != key:
            self._delay_key = key
            self._delay_start = self.services.sim.now
            self.services.metrics.count("pessimism_events")
        blocking = self.silence.blocking_wires(msg.vt, excluding=msg.wire_id)
        self.policy.on_pessimism_delay(self, blocking, msg.vt)

    def _dispatch(self, msg: DataMessage, wire: InWireState) -> None:
        for observer in self.observers:
            observer.on_dispatch(self, msg)
        if self._delay_key is not None:
            if self._delay_key == msg.key():
                held = self.services.sim.now - self._delay_start
                self.services.metrics.add("pessimism_delay_ticks", held)
            self._delay_key = None
        wire.pending.popleft()
        if wire.pending and self.deterministic:
            heapq.heappush(self._head_heap, wire.pending[0].key())
        handler_spec = wire.handler_spec
        dequeue_vt = msg.vt if msg.vt > self.component_vt else self.component_vt
        features = handler_spec.cost.features(msg.payload)
        busy = BusyInfo(
            message=msg,
            handler_spec=handler_spec,
            features=features,
            dequeue_vt=dequeue_vt,
            partial_vt=dequeue_vt,
        )
        self._busy = busy
        self._start_segment(busy, resume_value=None, first=True)

    # ------------------------------------------------------------------
    # Segment execution
    # ------------------------------------------------------------------
    def _start_segment(self, busy: BusyInfo, resume_value: Any,
                       first: bool = False) -> None:
        """Occupy the processor for one execution segment, then run code."""
        services = self.services
        spec = busy.handler_spec
        features = busy.features
        seg_cost = busy.seg_cost = spec.cost.segment(busy.segment)
        actual = services.jitter.actual_duration(
            services.rng, seg_cost.true_nominal(features), features
        )
        busy.actual_ticks += actual
        busy.started_real = services.sim.now
        busy.actual_current = actual
        self.processor.execute(
            actual,
            partial(self._run_segment_code, busy, resume_value, first),
            label=self._segment_labels[spec.method_name],
        )

    def _run_segment_code(self, busy: BusyInfo, resume_value: Any,
                          first: bool) -> None:
        """Run the handler code for the segment that just finished."""
        est = busy.seg_cost.estimated(busy.features, busy.dequeue_vt)
        segment_end_vt = busy.partial_vt + est

        self._in_handler = True
        try:
            if first:
                handler = getattr(self.component, busy.handler_spec.method_name)
                result = handler(busy.message.payload)
                if isinstance(result, GeneratorType):
                    busy.generator = result
                    step = self._advance_generator(busy, None)
                else:
                    step = ("done", result)
            else:
                step = self._advance_generator(busy, resume_value)
        finally:
            self._in_handler = False

        busy.partial_vt = segment_end_vt
        self._flush_outbox(segment_end_vt, busy)

        if step[0] == "call":
            ticket: CallTicket = step[1]
            busy.ticket = ticket
            busy.awaiting_reply = True
            self._send_call(ticket, segment_end_vt)
            # The processor is free while blocked on the reply (the
            # component "blocks waiting for a return from a service call").
            return
        self._complete(busy, segment_end_vt, return_value=step[1])

    def _advance_generator(self, busy: BusyInfo, value: Any) -> Tuple[str, Any]:
        try:
            yielded = busy.generator.send(value)
        except StopIteration as stop:
            return ("done", stop.value)
        if not isinstance(yielded, CallTicket):
            raise ComponentError(
                f"{self.component.name}.{busy.handler_spec.method_name}: "
                f"handlers may only yield CallTickets, got {yielded!r}"
            )
        return ("call", yielded)

    def _complete(self, busy: BusyInfo, end_vt: int, return_value: Any) -> None:
        """Finish processing: advance virtual time, reply if two-way."""
        self.component_vt = end_vt
        for observer in self.observers:
            observer.on_complete(self, busy, end_vt)
        if busy.handler_spec.two_way:
            self._send_reply(busy, end_vt, return_value)
        self._busy = None
        self.services.metrics.count("messages_processed")
        if self.services.on_sample is not None:
            estimated = end_vt - busy.dequeue_vt
            self.services.on_sample(
                self, busy.handler_spec, busy.features, estimated,
                busy.actual_ticks,
            )
        self.policy.on_complete(self, end_vt)
        self.maybe_dispatch()

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def queue_send(self, port: OutputPort, payload: Any,
                   at_vt: Optional[int] = None) -> None:
        """Buffer a send issued inside a handler (released at segment end).

        ``at_vt`` carries a user-supplied virtual time (time-aware
        components, see :meth:`OutputPort.send_at`): the message is
        scheduled for that future virtual time instead of the
        estimator's completion time.
        """
        if not self._in_handler:
            raise ComponentError(
                f"{self.component.name}.{port.name}: send outside a handler"
            )
        self._outbox.append((port, payload, at_vt))

    def _comm_estimate(self, spec: WireSpec, features, at_vt: int) -> int:
        """Communication-delay estimate for an emission at ``at_vt``.

        Load-correlated estimators get the deterministic recent-emission
        count of the wire; plain estimators just see the features.
        """
        if spec.wire_id in self._load_correlated:
            sender = self.out_senders[spec.wire_id]
            return spec.delay_estimator.estimate_with_load(
                features, sender.recent_count(at_vt)
            )
        return spec.delay_estimator.estimate(features)

    def _flush_outbox(self, vt_base: int, busy: BusyInfo) -> None:
        outbox, self._outbox = self._outbox, []
        for port, payload, user_vt in outbox:
            for spec in port.wires:
                if user_vt is not None:
                    vt_out = user_vt
                    floor = vt_base + self._comm_estimate(
                        spec, busy.features, vt_base)
                    if vt_out < floor:
                        raise ComponentError(
                            f"{self.component.name}.{port.name}: send_at "
                            f"vt {user_vt} is before the earliest causally "
                            f"possible delivery {floor}"
                        )
                else:
                    vt_out = vt_base + self._comm_estimate(
                        spec, busy.features, vt_base)
                self._emit(spec, vt_out, payload)

    def _emit(self, spec: WireSpec, vt_out: int, payload: Any,
              call_meta: Optional[Tuple[int, int]] = None) -> None:
        sender = self.out_senders[spec.wire_id]
        # Deterministic floors: successive sends on one wire within one
        # handler (last_data_vt) and binding hyper-aggressive promises
        # (floor_vt) push the virtual time forward.  Both are functions
        # of the message history only, so replay reproduces them.
        vt_out = max(vt_out, sender.last_data_vt + 1, sender.floor_vt + 1)
        seq = sender.next_seq
        if call_meta is not None:
            call_id, reply_wire_id = call_meta
            msg: DataMessage = CallRequest(
                spec.wire_id, seq, vt_out, payload,
                call_id=call_id, reply_wire_id=reply_wire_id,
            )
        else:
            msg = DataMessage(spec.wire_id, seq, vt_out, payload)
        sender.emit_message(msg)
        for observer in self.observers:
            observer.on_emit(self, spec, msg)
        self.policy.on_emit(self, spec.wire_id, sender, vt_out)
        self.services.transmit(spec, msg)

    def _send_call(self, ticket: CallTicket, vt_base: int) -> None:
        port: ServicePort = ticket.port
        if not port.wires or port.reply_wire is None:
            raise WiringError(
                f"{self.component.name}.{port.name}: call port not fully wired"
            )
        spec = port.wires[0]
        call_id = self._next_call_id
        self._next_call_id += 1
        self._busy.call_id = call_id
        vt_out = vt_base + self._comm_estimate(spec, {}, vt_base)
        self._emit(spec, vt_out, ticket.payload,
                   call_meta=(call_id, port.reply_wire.wire_id))
        # A replayed reply may already be waiting (post-failover).
        buffered = self._reply_buffer.pop(
            (port.reply_wire.wire_id, call_id), None
        )
        if buffered is not None:
            self.services.sim.call_soon(
                lambda: self._resume_from_reply(buffered),
                f"{self.component.name}:buffered-reply",
            )

    def _send_reply(self, busy: BusyInfo, end_vt: int, return_value: Any) -> None:
        request = busy.message
        if not isinstance(request, CallRequest):
            raise SchedulingError(
                f"{self.component.name}: two-way handler processed a "
                f"non-call message on wire {request.wire_id}"
            )
        reply_spec = self.out_specs.get(request.reply_wire_id)
        if reply_spec is None:
            raise WiringError(
                f"{self.component.name}: unknown reply wire {request.reply_wire_id}"
            )
        sender = self.out_senders[reply_spec.wire_id]
        vt_out = end_vt + self._comm_estimate(reply_spec, {}, end_vt)
        vt_out = max(vt_out, sender.last_data_vt + 1, sender.floor_vt + 1)
        msg = CallReply(reply_spec.wire_id, sender.next_seq, vt_out,
                        return_value, call_id=request.call_id)
        sender.emit_message(msg)
        for observer in self.observers:
            observer.on_emit(self, reply_spec, msg)
        self.services.transmit(reply_spec, msg)

    # ------------------------------------------------------------------
    # Silence facts (probe answers / aggressive heartbeats) — paper II.H
    # ------------------------------------------------------------------
    def silence_fact(self, wire_id: int) -> int:
        """Latest virtual time provably silent on out-wire ``wire_id``.

        Busy case: the earliest possible next output is the current
        message's dequeue time plus the estimated cost — exact under
        prescience ("the code computes the iteration count prior to
        entering the loop"), the minimum-execution estimate otherwise.

        Idle case: "silent through [the earliest time it could become
        busy] plus the computation time of the shortest possible
        processing", where the earliest busy time accounts for pending
        messages, input-wire horizons, and — for external inputs — the
        fact that any future external message is stamped no earlier than
        the current real time.
        """
        spec = self.out_specs[wire_id]
        sender = self.out_senders[wire_id]
        comm = spec.delay_estimator.estimate({})
        busy = self._busy
        if busy is not None:
            earliest_out = self._busy_earliest_output(busy) + comm
            return max(sender.silence_promised, earliest_out - 1)

        earliest_in = self._earliest_possible_input()
        if earliest_in >= NEVER:
            return NEVER
        earliest_dequeue = max(self.component_vt, earliest_in)
        min_est = self._min_handler_estimate(earliest_dequeue)
        earliest_out = earliest_dequeue + max(1, min_est) + comm
        return max(sender.silence_promised, earliest_out - 1)

    def _busy_earliest_output(self, busy: BusyInfo) -> int:
        """Lower bound on the virtual time of the next possible output.

        Prescient senders know their remaining work exactly ("the code
        computes the iteration count prior to entering the loop").
        Non-prescient senders know only how far they have *already*
        progressed — the paper's busy sender "computes the earliest
        possible time it could compute a message based upon the known
        state of the process".  We convert observed progress through the
        current segment into virtual ticks: with fraction ``p`` of the
        segment's real duration elapsed, at least ``floor(p * est) + 1``
        estimated ticks of work exist in total, because the work already
        performed is itself evidence (the loop counter has advanced).
        The bound never reaches the full estimate while the segment is
        still running, so it stays a fact regardless of jitter.
        """
        seg_cost = busy.seg_cost
        seg_est = seg_cost.estimated(busy.features, busy.dequeue_vt)
        if busy.awaiting_reply:
            # Suspended on a call: output no earlier than the next
            # segment's minimum after the reply (reply vt > partial_vt).
            nxt = busy.handler_spec.cost.segment(busy.segment + 1)
            bound = max(1, nxt.min_estimated(busy.dequeue_vt))
            return busy.partial_vt + bound
        if self.services.prescient:
            return busy.partial_vt + max(1, seg_est)
        min_est = seg_cost.min_estimated(busy.dequeue_vt)
        if busy.actual_current > 0:
            elapsed = self.services.sim.now - busy.started_real
            progressed = (seg_est * elapsed) // busy.actual_current + 1
            bound = max(min_est, min(progressed, seg_est))
        else:
            bound = min_est
        return busy.partial_vt + max(1, bound)

    def _earliest_possible_input(self) -> int:
        """Lower bound on the vt of the next message dequeued.

        Fast path (no external wire): ``min(head_min, min_horizon
        + 1)``.  This equals the per-wire scan because an arrival
        advances its wire's horizon to at least its own vt, so a pending
        wire's head vt never exceeds that wire's horizon — pending
        wires' ``horizon + 1`` terms can never undercut ``head_min``,
        and folding them into the global minimum is harmless.  An
        external wire re-enables the scan: its local-clock freshness
        boost is per-wire state the global minimum cannot express.
        """
        if not self.in_wires:
            return NEVER
        if not self._has_external_wire:
            head = self._clean_head()
            head_min = head.vt if head is not None else NEVER
            return min(head_min, self.silence.min_horizon() + 1)
        now = self.services.sim.now
        earliest = NEVER
        for wire in self.in_wires.values():
            if wire.pending:
                candidate = wire.pending[0].vt
            else:
                horizon = self.silence.horizon(wire.spec.wire_id)
                if wire.external and wire.spec.wire_id not in self._replay_pending:
                    # External ticks are stamped with the real arrival
                    # time at the zero-delay ingress, so outside of a
                    # replay window nothing can arrive below the current
                    # real time.
                    horizon = max(horizon, now - 1)
                candidate = horizon + 1
            earliest = min(earliest, candidate)
        return earliest

    def _min_handler_estimate(self, at_vt: int) -> int:
        ests = [
            spec.cost.min_estimated(at_vt)
            for spec in self._wired_handler_specs
        ]
        return min(ests) if ests else 0

    def publish_silence(self, wire_id: int, force: bool = False) -> None:
        """Compute and transmit a fresh silence fact on one out-wire.

        With ``force`` (probe answers) the fact is sent even when it
        carries no news, so the prober's outstanding-probe flag clears
        and its backoff logic takes over; heartbeats skip no-news facts.
        """
        fact = self.silence_fact(wire_id)
        sender = self.out_senders[wire_id]
        if fact > sender.silence_promised:
            sender.promise_silence(fact)
        elif not force:
            return
        spec = self.out_specs[wire_id]
        self.services.send_control(spec, SilenceAdvance(wire_id, fact), False)
        self.services.metrics.count("silence_advances_sent")

    # ------------------------------------------------------------------
    # Curiosity probes (receiver side)
    # ------------------------------------------------------------------
    def send_probe(self, wire_id: int, want_vt: int) -> None:
        """Probe the sender of one blocking in-wire, with throttling.

        Re-probes after an unhelpful answer are spaced by the policy's
        backoff; a retry event keeps the component live when no other
        traffic would otherwise re-trigger dispatch.
        """
        now = self.services.sim.now
        if self._probe_outstanding.get(wire_id):
            return
        not_before = self._probe_not_before.get(wire_id, 0)
        if now < not_before:
            if not self._probe_retry_scheduled.get(wire_id):
                self._probe_retry_scheduled[wire_id] = True

                def _retry() -> None:
                    self._probe_retry_scheduled[wire_id] = False
                    self.maybe_dispatch()

                self.services.sim.at(
                    not_before, _retry, f"probe-retry:{wire_id}"
                )
            return
        self._probe_outstanding[wire_id] = True
        spec = self.in_wires[wire_id].spec
        self.services.send_control(spec, CuriosityProbe(wire_id, want_vt), True)
        self.services.metrics.count("curiosity_probes")

    def on_probe(self, wire_id: int, want_vt: int) -> None:
        """Answer a curiosity probe targeting one of our out-wires."""
        self.policy.on_probe(self, wire_id, want_vt)

    # ------------------------------------------------------------------
    # Introspection & checkpoint support
    # ------------------------------------------------------------------
    @property
    def busy_info(self) -> Optional[BusyInfo]:
        """The in-flight message context, if any."""
        return self._busy

    @property
    def current_vt(self) -> int:
        """The deterministic virtual "now" (the paper's timing service).

        While a handler runs this is the virtual time its current
        segment was dequeued at; between messages it is the component's
        virtual time after its last completion.
        """
        if self._busy is not None:
            return self._busy.partial_vt
        return self.component_vt

    @property
    def idle(self) -> bool:
        """True when no message is in flight and nothing is pending."""
        return self._busy is None and not any(
            w.pending for w in self.in_wires.values()
        )

    @property
    def mid_call(self) -> bool:
        """True while a multi-segment (service-calling) handler is live.

        Checkpoints are deferred in this window: generator frames are not
        serializable, so snapshots are taken at message boundaries.
        """
        return self._busy is not None and (
            self._busy.generator is not None or self._busy.awaiting_reply
        )

    def snapshot(self, incremental: bool) -> dict:
        """Checkpointable view of this runtime (message-boundary state).

        An in-flight single-segment message is included as *unprocessed*
        (prepended to its wire's pending queue) so the restored engine
        re-executes it; its state effects have not been applied yet, so
        the snapshot is consistent.

        An incremental snapshot is a delta against the last
        :meth:`capture`: dirty cells, sender entries that say what was
        emitted and trimmed since, and only the receivers, pending
        queues and silence map that differ from that capture (see
        :func:`repro.runtime.state_merge.merge_component_snapshots`).
        Taking one changes nothing, so the auditor may take its own.
        """
        return self._snapshot(incremental)[0]

    def capture(self, incremental: bool) -> dict:
        """:meth:`snapshot` for the checkpoint chain: what it captures
        becomes the base of the next incremental snapshot."""
        snap, self._captured = self._snapshot(incremental)
        self.component.state.mark_clean()
        return snap

    def _snapshot(self, incremental: bool) -> Tuple[dict, tuple]:
        """The snapshot, and the capture it would make (see
        :attr:`_captured`)."""
        if self.mid_call:
            raise SchedulingError(
                f"{self.component.name}: snapshot requested mid-call"
            )
        pending: Dict[int, list] = {}
        for wid, wire in self.in_wires.items():
            pending[wid] = [encode_message(m) for m in wire.pending]
        if self._busy is not None:
            msg = self._busy.message
            pending[msg.wire_id].insert(0, encode_message(msg))
        receivers = {w: s.receiver.snapshot() for w, s in self.in_wires.items()}
        reply_receivers = {w: r.snapshot()
                           for w, r in self._reply_receivers.items()}
        silence = self.silence.snapshot()
        senders = self.out_senders
        marks = {w: s.capture_mark() for w, s in senders.items()}
        snap = {
            "cells": (self.component.state.delta_snapshot() if incremental
                      else self.component.state.full_snapshot()),
            "cells_incremental": incremental,
            "component_vt": self.component_vt,
            "max_arrived_vt": self._max_arrived_vt,
            "next_call_id": self._next_call_id,
        }
        base = self._captured
        if incremental and base is not None:
            old_receivers, old_replies, old_silence, old_pending, old_marks = base
            for field, now, then in (
                    ("receivers", receivers, old_receivers),
                    ("reply_receivers", reply_receivers, old_replies),
                    ("pending", pending, old_pending)):
                changed = {w: v for w, v in now.items() if then[w] != v}
                if changed:
                    snap[field] = changed
            changed = {}
            for w, sender in senders.items():
                entry = sender.delta_snapshot(old_marks[w], encode_message)
                if entry is not None:
                    changed[w] = entry
            if changed:
                snap["senders"] = changed
            if silence != old_silence:
                snap["silence"] = silence
        else:
            snap["receivers"] = receivers
            snap["reply_receivers"] = reply_receivers
            snap["senders"] = {w: s.snapshot(encode_message)
                               for w, s in senders.items()}
            snap["silence"] = silence
            snap["pending"] = pending
        return snap, (receivers, reply_receivers, silence, pending, marks)

    def restore(self, snap: dict) -> None:
        """Load a full (already delta-merged) snapshot into this runtime."""
        self._captured = None
        self.component.state.restore_full(snap["cells"])
        self.component_vt = snap["component_vt"]
        self._max_arrived_vt = snap["max_arrived_vt"]
        self._next_call_id = snap.get("next_call_id", 0)
        for wid, rsnap in snap["receivers"].items():
            self.in_wires[int(wid)].receiver = TickStreamReceiver.restore(rsnap)
        for wid, rsnap in snap.get("reply_receivers", {}).items():
            self._reply_receivers[int(wid)] = TickStreamReceiver.restore(rsnap)
        self._reply_buffer.clear()
        for wid, ssnap in snap["senders"].items():
            self.out_senders[int(wid)] = TickStreamSender.restore(
                ssnap, decode_message
            )
        self.silence = SilenceMap.restore(snap["silence"])
        for wid, items in snap["pending"].items():
            self.in_wires[int(wid)].pending = deque(
                decode_message(item) for item in items
            )
        self._head_heap = [
            wire.pending[0].key()
            for wire in self.in_wires.values()
            if wire.pending
        ]
        heapq.heapify(self._head_heap)
        self._busy = None
        self._delay_key = None
        for wid in self._probe_outstanding:
            self._probe_outstanding[wid] = False
            self._probe_not_before[wid] = 0

    # ------------------------------------------------------------------
    # Replay plumbing
    # ------------------------------------------------------------------
    def _request_replay(self, wire: InWireState) -> None:
        self._replay_pending.add(wire.spec.wire_id)
        self.services.send_control(
            wire.spec,
            ReplayRequest(wire.spec.wire_id, wire.receiver.next_seq),
            True,
        )
        self.services.metrics.count("replay_requests_sent")

    def request_all_replays(self) -> None:
        """After failover: ask every upstream sender to resume our wires."""
        for wire in self.in_wires.values():
            self._request_replay(wire)
        for wire_id, spec in self._reply_wires.items():
            self.services.send_control(
                spec,
                ReplayRequest(wire_id, self._reply_receivers[wire_id].next_seq),
                True,
            )
            self.services.metrics.count("replay_requests_sent")

    def replay_out_wire(self, wire_id: int, from_seq: int) -> int:
        """Re-send retained messages >= ``from_seq``; returns the count."""
        sender = self.out_senders[wire_id]
        spec = self.out_specs[wire_id]
        resent = sender.replay_from(from_seq)
        for msg in resent:
            self.services.transmit(spec, msg)
        self.services.metrics.count("messages_replayed", len(resent))
        # Trailing fact: tells the recovering receiver the replay is
        # complete and spares it a probe round (FIFO keeps it sound).
        if spec.kind != "reply":
            self.publish_silence(wire_id, force=True)
        return len(resent)

    def trim_out_wire(self, wire_id: int, through_seq: int) -> int:
        """Drop retained messages covered by a downstream stable checkpoint."""
        return self.out_senders[wire_id].trim_through(through_seq)

    def __repr__(self) -> str:
        state = "busy" if self._busy else "idle"
        return (f"<ComponentRuntime {self.component.name} "
                f"vt={self.component_vt} {state}>")


# ----------------------------------------------------------------------
# Message (de)serialization helpers shared by snapshots and the replica.
# ----------------------------------------------------------------------
def encode_message(msg: DataMessage) -> dict:
    """Encode a wire message to plain data for checkpoints."""
    if isinstance(msg, CallRequest):
        return {"kind": "call", "wire_id": msg.wire_id, "seq": msg.seq,
                "vt": msg.vt, "payload": msg.payload, "call_id": msg.call_id,
                "reply_wire_id": msg.reply_wire_id}
    if isinstance(msg, CallReply):
        return {"kind": "reply", "wire_id": msg.wire_id, "seq": msg.seq,
                "vt": msg.vt, "payload": msg.payload, "call_id": msg.call_id}
    return {"kind": "data", "wire_id": msg.wire_id, "seq": msg.seq,
            "vt": msg.vt, "payload": msg.payload}


def decode_message(item: dict) -> DataMessage:
    """Inverse of :func:`encode_message`."""
    kind = item["kind"]
    if kind == "call":
        return CallRequest(item["wire_id"], item["seq"], item["vt"],
                           item["payload"], call_id=item["call_id"],
                           reply_wire_id=item["reply_wire_id"])
    if kind == "reply":
        return CallReply(item["wire_id"], item["seq"], item["vt"],
                         item["payload"], call_id=item["call_id"])
    return DataMessage(item["wire_id"], item["seq"], item["vt"],
                       item["payload"])
