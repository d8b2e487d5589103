"""Execution tracing and hold diagnosis.

Operating a virtual-time system raises questions ordinary middleware
doesn't: *why is this message being held?*  and *what did this component
actually process, in what order?*  This module answers both without
perturbing the runtime:

* :class:`ExecutionTracer` — a bounded ring buffer of processing events
  (dispatch, completion, pessimism hold), attachable to any
  deployment; tests and operators read or dump it.  Events carry a
  monotonically increasing per-tracer ``index``, so post-hoc ordering of
  events with equal ``real_time`` is unambiguous, and the buffer
  round-trips to disk through the canonical serializer
  (``dump(path)`` / ``load(path)``).
* :func:`explain_hold` — a point-in-time diagnosis of one component:
  which message is the scheduling candidate, which wires block it, how
  far each horizon is from the needed virtual time, and what would
  unblock it.  When a replay-clock tracer is attached the candidate
  carries its RepCl, so live hold diagnosis and time-travel ``why``
  queries speak the same vocabulary; ``render_hold_report(report,
  as_json=True)`` emits the machine-readable form.

Tracers ride ``ComponentRuntime.observers`` (pure observation), so
traced and untraced runs execute identically — asserted by test.
"""

from __future__ import annotations

import dataclasses
import json
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional

from repro.vt.repcl import ReplayClockTracer
from repro.vt.time import format_vt

#: On-disk trace format version (``ExecutionTracer.dump(path)``).
TRACE_FORMAT = 1


@dataclass(frozen=True)
class TraceEvent:
    """One observed runtime event."""

    real_time: int
    component: str
    kind: str  # "dispatch" | "complete" | "hold"
    wire_id: Optional[int] = None
    seq: Optional[int] = None
    vt: Optional[int] = None
    detail: str = ""
    #: Per-tracer monotonic sequence number, assigned by ``record``:
    #: the unambiguous post-hoc order for events sharing a real_time.
    index: int = -1


class ExecutionTracer:
    """Bounded ring buffer of :class:`TraceEvent`.

    A :class:`~repro.core.scheduler.ComponentRuntime` observer: attach
    with :meth:`attach` (a deployment, promoted engines included) or
    :meth:`attach_runtime` (one runtime's observer list).
    """

    def __init__(self, capacity: int = 10_000):
        self.capacity = capacity
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self._next_index = 0

    def attach(self, deployment) -> None:
        """Trace every component runtime a deployment builds."""
        deployment.observers.append(self)

    def attach_runtime(self, runtime) -> None:
        """Trace one runtime (an engine-built runtime shares its
        deployment's list, so this traces all of them)."""
        runtime.observers.append(self)

    # -- observer protocol --------------------------------------------
    def _observe(self, runtime, kind: str, msg, vt: int,
                 detail: str = "") -> None:
        self.record(TraceEvent(runtime.services.sim.now,
                               runtime.component.name, kind,
                               msg.wire_id, msg.seq, vt, detail))

    def on_arrival(self, runtime, msg) -> None:
        """Arrivals are not traced."""

    def on_emit(self, runtime, spec, msg) -> None:
        """Emissions are not traced."""

    def on_hold(self, runtime, msg) -> None:
        self._observe(runtime, "hold", msg, msg.vt)

    def on_dispatch(self, runtime, msg) -> None:
        self._observe(runtime, "dispatch", msg, msg.vt)

    def on_complete(self, runtime, busy, end_vt: int) -> None:
        self._observe(runtime, "complete", busy.message, end_vt,
                      f"actual={busy.actual_ticks}")

    def record(self, event: TraceEvent) -> None:
        """Append one event (oldest events fall off at capacity).

        Stamps the tracer's monotonic index; an event recorded with an
        explicit non-negative index (a reloaded one) keeps it.
        """
        if event.index < 0:
            event = dataclasses.replace(event, index=self._next_index)
        self._next_index = max(self._next_index, event.index + 1)
        self._events.append(event)

    def events(self, component: Optional[str] = None,
               kind: Optional[str] = None) -> List[TraceEvent]:
        """Events in order, optionally filtered."""
        return [
            e for e in self._events
            if (component is None or e.component == component)
            and (kind is None or e.kind == kind)
        ]

    def dump(self, path: Optional[str] = None, limit: int = 50) -> str:
        """Human-readable tail of the trace — or, with ``path``, a
        canonical-serializer file that :meth:`load` round-trips."""
        if path is not None:
            from repro.runtime import checkpoint as cpser

            doc = {
                "format": TRACE_FORMAT,
                "capacity": self.capacity,
                "next_index": self._next_index,
                "events": [dataclasses.astuple(e) for e in self._events],
            }
            with open(path, "wb") as fh:
                fh.write(cpser.dumps(doc))
            return path
        lines = []
        for e in list(self._events)[-limit:]:
            vt = format_vt(e.vt) if e.vt is not None else "-"
            lines.append(
                f"t={e.real_time / 1000:.1f}us {e.component:>12} "
                f"{e.kind:<8} wire={e.wire_id} seq={e.seq} vt={vt} "
                f"{e.detail}"
            )
        return "\n".join(lines)

    @classmethod
    def load(cls, path: str) -> "ExecutionTracer":
        """Rebuild a tracer from a :meth:`dump` file."""
        from repro.errors import TartError
        from repro.runtime import checkpoint as cpser

        with open(path, "rb") as fh:
            doc = cpser.loads(fh.read())
        if doc.get("format") != TRACE_FORMAT:
            raise TartError(f"unsupported trace format "
                            f"{doc.get('format')!r} in {path}")
        tracer = cls(capacity=doc["capacity"])
        for fields in doc["events"]:
            tracer.record(TraceEvent(*fields))
        tracer._next_index = max(tracer._next_index, doc["next_index"])
        return tracer

    def __len__(self) -> int:
        return len(self._events)


def explain_hold(runtime) -> Dict[str, Any]:
    """Diagnose why a component is (or is not) holding a message.

    Returns a structured report; ``render_hold_report`` turns it into
    text.  Safe to call at any event boundary; purely observational.
    """
    report: Dict[str, Any] = {
        "component": runtime.component.name,
        "busy": runtime.busy_info is not None,
        "holding": False,
        "candidate": None,
        "blocking_wires": [],
    }
    if runtime.busy_info is not None:
        busy = runtime.busy_info
        report["busy_message"] = {
            "wire": busy.message.wire_id, "seq": busy.message.seq,
            "dequeue_vt": busy.dequeue_vt,
            "awaiting_reply": busy.awaiting_reply,
        }
        return report
    best = runtime._best_candidate()
    if best is None:
        report["reason"] = "no pending messages"
        return report
    msg, _wire = best
    report["candidate"] = {"wire": msg.wire_id, "seq": msg.seq, "vt": msg.vt}
    clocks = next((observer for observer in runtime.observers
                   if isinstance(observer, ReplayClockTracer)), None)
    if clocks is not None:
        # A replay-clock tracer is attached: annotate the candidate with
        # its sender's RepCl (or the receiver's clock for external
        # roots) so hold diagnosis and timetravel `why` line up.
        clock = (clocks.clock_for_message(msg.wire_id, msg.seq)
                 or clocks.clock_of(runtime.component.name))
        report["candidate"]["repcl"] = clock.encode()
    blocking = runtime.silence.blocking_wires(msg.vt, excluding=msg.wire_id)
    if not blocking:
        report["reason"] = "dispatchable (will run at the next event)"
        return report
    report["holding"] = True
    for wire_id in blocking:
        horizon = runtime.silence.horizon(wire_id)
        wire = runtime.in_wires.get(wire_id)
        report["blocking_wires"].append({
            "wire": wire_id,
            "horizon": horizon,
            "needed": msg.vt,
            "shortfall": msg.vt - horizon,
            "external": bool(wire and wire.external),
            "probe_outstanding": runtime._probe_outstanding.get(wire_id,
                                                                False),
        })
    report["reason"] = (
        f"pessimism delay: waiting for silence through "
        f"{format_vt(msg.vt)} on wires "
        f"{[b['wire'] for b in report['blocking_wires']]}"
    )
    return report


def render_hold_report(report: Dict[str, Any],
                       as_json: bool = False) -> str:
    """Format an :func:`explain_hold` report for humans (or machines)."""
    if as_json:
        return json.dumps(report, indent=2, sort_keys=True)
    lines = [f"component {report['component']}:"]
    if report["busy"]:
        busy = report.get("busy_message", {})
        state = ("suspended on a service call"
                 if busy.get("awaiting_reply") else "executing")
        lines.append(
            f"  {state} message wire={busy.get('wire')} "
            f"seq={busy.get('seq')} dequeued at "
            f"{format_vt(busy.get('dequeue_vt', 0))}")
        return "\n".join(lines)
    if not report["holding"]:
        lines.append(f"  {report.get('reason', 'idle')}")
        return "\n".join(lines)
    candidate = report["candidate"]
    lines.append(
        f"  HOLDING wire={candidate['wire']} seq={candidate['seq']} at "
        f"{format_vt(candidate['vt'])}")
    if "repcl" in candidate:
        lines.append(f"    candidate repcl: "
                     f"{json.dumps(candidate['repcl'], sort_keys=True)}")
    for b in report["blocking_wires"]:
        kind = "external" if b["external"] else "internal"
        probe = " (probe in flight)" if b["probe_outstanding"] else ""
        lines.append(
            f"    blocked by {kind} wire {b['wire']}: horizon "
            f"{format_vt(b['horizon'])}, short by "
            f"{format_vt(b['shortfall'])}{probe}")
    return "\n".join(lines)
