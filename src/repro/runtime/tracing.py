"""Hold diagnosis.

Operating a virtual-time system raises a question ordinary middleware
doesn't: *why is this message being held?*  :func:`explain_hold`
answers it without perturbing the runtime: a point-in-time diagnosis of
one component — which message is the scheduling candidate, which wires
block it, how far each horizon is from the needed virtual time, and
what would unblock it.  When a replay-clock tracer is attached the
candidate carries its RepCl, so live hold diagnosis and time-travel
``why`` queries speak the same vocabulary; ``render_hold_report(report,
as_json=True)`` emits the machine-readable form.

Observing *what* a component processed, and in what order, is the
:class:`~repro.vt.repcl.ReplayClockTracer`'s job: it rides
``ComponentRuntime.observers`` (pure observation), so traced and
untraced runs execute identically — asserted by test.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.vt.repcl import ReplayClockTracer
from repro.vt.time import format_vt


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
