"""Fault injection.

Drives the paper's failure model against a deployment: fail-stop engine
crashes ("causing one or more machines to stop, losing all state and all
messages in transit") and link failures ("causing loss, re-ordering, or
duplication of messages sent over physical links").

Faults can be scheduled one call at a time, or as a whole *resolved
schedule* — the simulator-side half of the shared chaos schedule format
(:mod:`repro.chaos.schedule`): the same JSON fault script that the chaos
runner executes against a live multi-process cluster is lowered to
node-level events and applied here, so the fast deterministic simulation
doubles as the ground truth for every chaos scenario.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import ChaosError, RecoveryError
from repro.sim.kernel import ms


class FailureInjector:
    """Schedules engine crashes and link faults on a deployment."""

    def __init__(self, deployment):
        self.deployment = deployment

    # -- engine fail-stop ---------------------------------------------------
    def kill_engine(self, engine_id: str, at: Optional[int] = None,
                    detection_delay: int = ms(1)) -> None:
        """Fail-stop one engine at simulated time ``at`` (default: now).

        The engine halts (all volatile state gone), channels touching it
        reset (in-flight traffic lost), and after ``detection_delay`` the
        recovery manager promotes its replica.
        """

        def _crash() -> None:
            engine = self.deployment.engines.get(engine_id)
            if engine is None or not engine.alive:
                raise RecoveryError(f"{engine_id}: not alive at crash time")
            self._fail_stop(engine_id, detection_delay)

        self._at(at, _crash, f"kill:{engine_id}")

    def kill_host(self, engine_id: str, at: int, promote: bool) -> None:
        """A schedule's kill of whichever process hosts ``engine_id``.

        Unlike :meth:`kill_engine`, the host may be a follower that is
        still taking over: the engine is then already down, and the kill
        only ends that takeover.  ``promote`` says whether a follower is
        left to take over; without one the group stays down, its
        detector stopped.  Never raises (see
        :meth:`repro.chaos.schedule.ChaosSchedule.sim_events`).
        """

        def _crash() -> None:
            detector = self.deployment.detectors.get(engine_id)
            if detector is not None and not promote:
                detector.stop()
            engine = self.deployment.engines.get(engine_id)
            if engine is not None and engine.alive:
                self._fail_stop(engine_id, promote=promote)

        self._at(at, _crash, f"kill:{engine_id}")

    def _fail_stop(self, engine_id: str, detection_delay: int = ms(1),
                   promote: bool = True) -> None:
        self.deployment.engines[engine_id].halt()
        self.deployment.network.fail_node(engine_id)
        if promote and engine_id not in self.deployment.detectors:
            # Without a heartbeat detector nothing notices the silence
            # organically; report the death to the recovery manager.
            self.deployment.recovery.engine_failed(
                engine_id, detection_delay=detection_delay
            )

    def _at(self, at: Optional[int], fn, label: str) -> None:
        """Run ``fn`` at simulated time ``at`` (default: now)."""
        sim = self.deployment.sim
        if at is None or at <= sim.now:
            sim.call_soon(fn, label)
        else:
            sim.at(at, fn, label)

    # -- link faults ----------------------------------------------------------
    def link_outage(self, src_id: str, dst_id: str, start: int,
                    duration: int) -> None:
        """Drop every frame on src->dst during [start, start+duration).

        The reliability protocol retransmits after the outage, so the
        application sees delay, not loss — unless an engine also dies,
        in which case TART's replay takes over.
        """
        sim = self.deployment.sim
        fault = self.deployment.network.link_fault(src_id, dst_id)

        def _down() -> None:
            fault.down = True

        def _up() -> None:
            fault.down = False

        sim.at(start, _down, f"link-down:{src_id}->{dst_id}")
        sim.at(start + duration, _up, f"link-up:{src_id}->{dst_id}")

    def set_link_impairment(self, src_id: str, dst_id: str,
                            loss_prob: float = 0.0,
                            dup_prob: float = 0.0) -> None:
        """Set steady-state loss/duplication probabilities on a link."""
        fault = self.deployment.network.link_fault(src_id, dst_id)
        fault.loss_prob = float(loss_prob)
        fault.dup_prob = float(dup_prob)

    # -- shared schedule format ----------------------------------------------
    def apply_schedule(self, events: List[Dict]) -> None:
        """Apply a *resolved* chaos schedule to the simulated deployment.

        ``events`` is the node-level lowering of the shared JSON fault
        schedule (:meth:`repro.chaos.schedule.ChaosSchedule.sim_events`):
        dicts carrying ``kind``, an absolute ``at_ticks`` simulated time,
        and node-id targets.  Supported kinds:

        * ``kill`` — fail-stop whatever hosts the target engine
          (``node``), promoting a successor only if ``promote``
          (:meth:`kill_host`);
        * ``partition`` — bidirectional outage between two node groups
          (``a_nodes`` x ``b_nodes``) for ``duration_ticks``;
        * ``impair`` — steady loss/duplication on one directed link;
        * ``corrupt`` — untracked state mutation on one engine
          (``node``, optional ``component``), visible only to the
          divergence audit.

        Timing-only faults of the live plane (latency, throttle, reset,
        half-open, SIGSTOP windows that end in SIGCONT) have no
        simulator lowering: the reliability protocol hides them from
        *content*, which is exactly what the determinism oracle checks,
        so the schedule resolver drops them before calling this.
        """
        for event in events:
            kind = event.get("kind")
            at = int(event.get("at_ticks", 0))
            if kind == "kill":
                self.kill_host(event["node"], at, event["promote"])
            elif kind == "partition":
                duration = int(event["duration_ticks"])
                for a in event["a_nodes"]:
                    for b in event["b_nodes"]:
                        self.link_outage(a, b, at, duration)
                        self.link_outage(b, a, at, duration)
            elif kind == "impair":
                fault = self.deployment.network.link_fault(
                    event["src"], event["dst"]
                )
                loss = float(event.get("loss_prob", 0.0))
                dup = float(event.get("dup_prob", 0.0))
                sim = self.deployment.sim

                def _set(f=fault, lo=loss, du=dup) -> None:
                    f.loss_prob, f.dup_prob = lo, du

                sim.at(at, _set, f"impair:{event['src']}->{event['dst']}")
            elif kind == "corrupt":
                node_id = event["node"]
                component = event.get("component")

                def _corrupt(n=node_id, c=component) -> None:
                    engine = self.deployment.engines.get(n)
                    if engine is None or not engine.alive:
                        return  # corrupting a dead engine is a no-op fault
                    from repro.runtime.audit import corrupt_component_state

                    corrupt_component_state(engine, c)

                self._at(at, _corrupt, f"corrupt:{node_id}")
            else:
                raise ChaosError(f"unknown simulated fault kind {kind!r}")
