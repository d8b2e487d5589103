"""Post-run invariants: what "the cluster survived" actually means.

:func:`check_invariants` is the verdict of every live run kind: chaos
runs (:mod:`repro.chaos.runner`), seeded-producer runs
(:mod:`repro.net.cluster`) and gateway-fed runs
(:mod:`repro.gateway.cluster`).  A kill the harness fires itself
(``--kill-active``) is judged as one more ``kill`` event of the schedule
(:func:`judged_schedule`), so every run kind gets the same failover
window, expected host and survivability from one set of rules.  A run
passes only when the live cluster's observable behaviour is
indistinguishable from the failure-free simulation:

1. **Byte identity** — every consumer stream equals the simulated
   reference, element for element: same ``(seq, vt, payload)`` triples,
   same count (:func:`~repro.tools.verify_determinism
   .verify_trace_equivalence` with ``require_complete``).
2. **Exactly-once delivery** — each consumer's effective sequence
   numbers are exactly ``0..n-1``: no duplicate past the ack frontier,
   no gap.  (Suppressed duplicates are fine — they show up as
   ``stutter``, which is reported, not forbidden.)
3. **Incarnation convergence** — for every engine node, the
   coordinator's channel ends the run pointed at exactly one
   incarnation, hosted by the process the schedule predicts (the
   replica after an engine kill, the engine otherwise).  A ``None``
   expectation (e.g. a SIGSTOP/SIGCONT duel) only requires that *some*
   single incarnation won.
4. **Non-victim liveness** — on kill-only schedules, every sink whose
   upstream components avoid the victim's replication group must keep
   delivering during the failover window (kill tick → the victim
   group's first recovered output) wherever the reference delivers to
   it there: group failover is group-local, not a cluster-wide stall.
5. **Audit stayed clean under faults** — every audit report collected
   from a cleanly shut-down child is internally consistent (heal mode:
   every divergence healed; raise mode: no divergence at all), and
   every *delivered* state corruption whose host survived the schedule
   is accounted for by at least one heal on that engine.  Faults the
   audit cannot see (delivery failed, process later killed) are
   excluded — the invariant judges the auditor, not the fault plane.

When the schedule is unsurvivable — :meth:`ChaosSchedule.lost_state
<repro.chaos.schedule.ChaosSchedule.lost_state>` names destroyed state —
an incomplete run is the *correct* outcome, reported as a structured
:class:`~repro.errors.UnrecoverableClusterError` rather than a pass, a
hang, or a stack trace.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import UnrecoverableClusterError
from repro.chaos.schedule import ChaosEvent, ChaosSchedule
from repro.net.topology import ClusterSpec, sink_upstream_engines
from repro.sim.kernel import TICKS_PER_MS
from repro.tools.verify_determinism import verify_trace_equivalence


def incarnation_host(incarnation: Optional[str]) -> Optional[str]:
    """The process name that minted an incarnation string.

    Incarnations are ``<process>:<uuid8>#<counter>``; both suffixes are
    stripped.  ``None`` (channel never connected) stays ``None``.
    """
    if not incarnation:
        return None
    peer = incarnation.split("#", 1)[0]
    return peer.rsplit(":", 1)[0]


def exactly_once_violations(streams: Dict[str, List[Tuple]]) -> List[str]:
    """Human-readable violations of contiguous 0..n-1 delivery."""
    violations: List[str] = []
    for sink, stream in sorted(streams.items()):
        seqs = [entry[0] for entry in stream]
        if seqs == list(range(len(seqs))):
            continue
        dups = sorted({s for s in seqs if seqs.count(s) > 1})
        if dups:
            violations.append(
                f"{sink}: duplicate seq(s) past ack frontier: {dups[:5]}"
            )
        expected = set(range(len(seqs)))
        gaps = sorted(expected - set(seqs))
        if gaps:
            violations.append(f"{sink}: gap(s) in delivery: {gaps[:5]}")
        if not dups and not gaps:
            violations.append(f"{sink}: out-of-order delivery: {seqs[:8]}")
    return violations


def convergence_violations(
    spec: ClusterSpec,
    schedule: ChaosSchedule,
    incarnations: Dict[str, Optional[str]],
    result: Optional[Dict] = None,
) -> List[str]:
    """Engines whose final incarnation is not where the schedule says.

    One lawful exception: when the stream finished *complete* on a host
    in the group's succession line that the schedule then killed, the
    kill must have landed after the last byte — no traffic remained to
    force the coordinator onto the next follower in line, so ending
    pointed at the (now dead) host is correct behaviour, not a failed
    promotion.
    """
    violations: List[str] = []
    expected_hosts = schedule.expected_hosts(spec)
    complete = bool((result or {}).get("complete"))
    for engine_id, expected in sorted(expected_hosts.items()):
        incarnation = incarnations.get(engine_id)
        host = incarnation_host(incarnation)
        if host is None:
            # The coordinator only dials engines its ingresses feed;
            # engines it never talked to are unobserved, not wrong —
            # byte identity already covers their output path.
            continue
        if expected is not None and host != expected:
            line = spec.succession_line(engine_id)
            host_killed = any(e.kind == "kill" and e.target == host
                              for e in schedule.events)
            if complete and host in line and host_killed:
                continue
            violations.append(
                f"{engine_id}: converged on {host} "
                f"(incarnation {incarnation}), expected {expected}"
            )
    return violations


def liveness_violations(
    spec: ClusterSpec,
    schedule: ChaosSchedule,
    result: Dict,
    reference: Dict[str, List[Tuple]],
) -> List[str]:
    """Non-victim groups must keep delivering through each failover.

    For every engine kill the schedule lowers, the failover window runs
    from the kill tick to the first output of a sink depending on the
    victim group (its first recovered byte), or to the run's last
    arrival when the victim never recovers.  A sink *independent* of the
    victim owes a delivery inside the window only when the reference
    delivers one of its outputs there, and its stream was not already
    complete before the kill.  The reference is the unreplicated
    simulation, where each output arrives at its sink at its own ``vt``
    (tier-1 pins this), so the reference's delivery ticks are the
    ``vt`` of its ``(seq, vt, payload)`` triples.  Only enforced on
    kill-only schedules: partition/stop/latency windows legitimately
    stall innocent groups, which would turn this into a flake.
    """
    if not schedule.events or any(e.kind != "kill"
                                  for e in schedule.events):
        return []
    arrivals: Dict[str, List[int]] = result.get("arrival_ticks") or {}
    if not arrivals:
        return []
    upstream = sink_upstream_engines(spec)
    violations: List[str] = []
    for event in schedule.sim_events(spec):
        if event["kind"] != "kill":
            continue
        victim, kill_tick = event["node"], event["at_ticks"]
        victim_sinks = [s for s, deps in upstream.items() if victim in deps]
        others = [s for s, deps in upstream.items() if victim not in deps]
        if not others:
            continue
        end = min((t for sink in victim_sinks
                   for t in arrivals.get(sink, []) if t >= kill_tick),
                  default=None)
        if end is None:  # the victim group never recovered
            end = max((t for ts in arrivals.values() for t in ts),
                      default=kill_tick)
        for sink in sorted(others):
            if not any(kill_tick <= vt <= end
                       for _seq, vt, _payload in reference.get(sink, [])):
                continue  # the reference is idle there too
            ticks = arrivals.get(sink, [])
            if (len(ticks) >= len(reference[sink])
                    and all(t < kill_tick for t in ticks)):
                continue  # already complete before the kill
            if not any(kill_tick <= t <= end for t in ticks):
                violations.append(
                    f"{sink}: no delivery during {victim}'s failover "
                    f"window [{kill_tick}, {end}] ticks"
                )
    return violations


def audit_violations(
    spec: ClusterSpec,
    schedule: ChaosSchedule,
    result: Dict,
) -> List[str]:
    """Divergence-audit violations of one live run.

    ``result`` carries ``audit_reports`` (process name -> the AUDIT
    summary the child printed at clean shutdown) and, under
    ``chaos.corrupted``, the corrupt events the driver actually
    delivered.  Reports only exist for children that shut down cleanly,
    so a killed process simply contributes nothing — its corruption
    died with its state.
    """
    violations: List[str] = []
    reports = result.get("audit_reports") or {}
    for proc, report in sorted(reports.items()):
        mode = report.get("mode")
        divergences = int(report.get("divergences", 0))
        heals = int(report.get("heals", 0))
        if mode == "raise" and divergences:
            violations.append(
                f"{proc}: audit found {divergences} divergence(s) "
                f"in raise mode"
            )
        elif mode == "heal" and heals != divergences:
            violations.append(
                f"{proc}: audit healed only {heals}/{divergences} "
                f"divergence(s)"
            )

    delivered = (result.get("chaos") or {}).get("corrupted") or []
    if not delivered:
        return violations
    if not reports:
        violations.append(
            "state corruption delivered but no audit report collected "
            "(children crashed, or --audit is off)"
        )
        return violations
    by_engine = {report["engine"]: report
                 for report in reports.values() if "engine" in report}
    killed = {e.target for e in schedule.events if e.kind == "kill"}
    for entry in delivered:
        target = str(entry.get("target", ""))
        if target in killed:
            continue  # the corrupted state died with the process
        engine_id = target.split("-", 1)[-1]
        report = by_engine.get(engine_id)
        if report is None:
            violations.append(
                f"{engine_id}: state corrupted but no audit report "
                f"covers this engine"
            )
        elif (report.get("mode") == "heal"
              and int(report.get("heals", 0)) < 1):
            violations.append(
                f"{engine_id}: state corruption delivered but the "
                f"audit healed nothing"
            )
    return violations


def judged_schedule(schedule: Optional[ChaosSchedule],
                    result: Dict) -> ChaosSchedule:
    """The schedule a live run is judged against.

    ``schedule`` (an empty one when the run had none) plus, when
    ``result["killed"]`` records a kill the harness fired itself, one
    more ``kill`` of ``engine-<id>`` at the recorded ``at_ticks``.
    """
    schedule = schedule or ChaosSchedule()
    killed = result.get("killed")
    if not killed:
        return schedule
    kill = ChaosEvent("kill", killed["at_ticks"] / TICKS_PER_MS,
                      target=f"engine-{killed['engine']}")
    return ChaosSchedule(events=schedule.events + [kill],
                         seed=schedule.seed, scenario=schedule.scenario)


def check_invariants(
    spec: ClusterSpec,
    schedule: Optional[ChaosSchedule],
    reference: Dict[str, List[Tuple]],
    result: Dict,
) -> Dict:
    """Judge one live run against the simulated reference.

    ``result`` is the dict a :class:`repro.net.cluster.ClusterHarness`
    run returns (with ``streams``, ``arrival_ticks`` and
    ``incarnations`` still present); ``schedule`` is the chaos schedule
    the run had, or None.  Returns a verdict dict with ``ok``,
    per-invariant booleans, and a ``violations`` list; raises
    :class:`UnrecoverableClusterError` when the schedule destroyed
    state and the run (correctly) could not finish.
    """
    schedule = judged_schedule(schedule, result)
    streams = result.get("streams", {})
    delivered = sum(len(s) for s in streams.values())
    expected = sum(len(s) for s in reference.values())

    lost = schedule.lost_state(spec)
    if lost is not None and delivered < expected:
        raise UnrecoverableClusterError(
            lost, schedule_seed=schedule.seed,
            delivered=delivered, expected=expected,
        )

    verdict = verify_trace_equivalence(
        reference, streams,
        trial=f"chaos-seed-{schedule.seed}", require_complete=True,
    )
    violations: List[str] = []
    if not verdict.deterministic:
        violations.append(verdict.summary())

    once = exactly_once_violations(streams)
    violations.extend(once)

    converge = convergence_violations(
        spec, schedule, result.get("incarnations", {}), result
    )
    violations.extend(converge)

    liveness = liveness_violations(spec, schedule, result, reference)
    violations.extend(liveness)

    audit = audit_violations(spec, schedule, result)
    violations.extend(audit)

    if result.get("error"):
        violations.append(f"run error: {result['error']}")

    return {
        "ok": not violations,
        "byte_identical": verdict.deterministic,
        "exactly_once": not once,
        "converged": not converge,
        "liveness": not liveness,
        "audit_clean": not audit,
        "delivered": delivered,
        "expected": expected,
        "lost_state": lost,
        "violations": violations,
    }
