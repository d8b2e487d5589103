"""Failover orchestration (paper II.F.3-4).

"If an engine fails, its passive backup becomes active.  The checkpoint
is restored, and connections are made to sending engines.  The checkpoint
is likely to be in the past, but then the sending engine will be asked to
replay messages."

:class:`RecoveryManager` sequences that: when the failure injector (or a
detector) reports an engine dead, the manager waits the detection delay,
promotes the replica via :meth:`Deployment.rebuild_engine`, and records
recovery-time metrics.  The heavy lifting — restoring the state the
follower holds, re-instantiating components, replaying determinism faults,
requesting per-wire replay — lives in the deployment/engine/runtime
layers; this class owns the *protocol sequencing* and the bookkeeping
experiments read (failover count, recovery latency).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import FailoverInProgressError, RecoveryError
from repro.sim.kernel import ms


class RecoveryManager:
    """Promotes passive replicas of failed engines."""

    def __init__(self, deployment):
        self.deployment = deployment
        #: Completed failovers: engine_id -> list of (failed_at, active_at).
        self.history: Dict[str, List[tuple]] = {}
        self._in_progress: Dict[str, int] = {}

    def engine_failed(self, engine_id: str,
                      detection_delay: int = ms(1)) -> None:
        """React to a fail-stop: schedule replica promotion.

        ``detection_delay`` models the time for the failure to be
        noticed (heartbeat timeout); during it, arriving traffic for the
        dead engine is dropped and external inputs accumulate in their
        stable logs.

        A second report for an engine already failing over (the detector
        and the injector can race to declare the same death) raises a
        structured :class:`~repro.errors.FailoverInProgressError`
        carrying the engine id and the in-progress timestamp, so callers
        can recognise the benign duplicate and drop it.
        """
        if engine_id not in self.deployment.engines:
            raise RecoveryError(f"unknown engine {engine_id!r}")
        if engine_id in self._in_progress:
            raise FailoverInProgressError(engine_id,
                                          self._in_progress[engine_id])
        # Fencing: whatever declared the engine failed (injector or
        # heartbeat timeout), make sure the old incarnation is actually
        # silenced before a successor is built — a false-positive
        # detection must not leave two live engines with one identity.
        old = self.deployment.engines[engine_id]
        if old.alive:
            old.halt()
            self.deployment.network.fail_node(engine_id)
        failed_at = self.deployment.sim.now
        self._in_progress[engine_id] = failed_at
        self.deployment.metrics.count("engine_failures")
        self.deployment.sim.after(
            detection_delay,
            lambda: self._activate(engine_id),
            f"failover:{engine_id}",
        )

    def _activate(self, engine_id: str) -> None:
        failed_at = self._in_progress.pop(engine_id)
        self.deployment.rebuild_engine(engine_id)
        active_at = self.deployment.sim.now
        self.history.setdefault(engine_id, []).append((failed_at, active_at))
        self.deployment.metrics.count("failovers_completed")
        self.deployment.metrics.add("failover_downtime_ticks",
                                    active_at - failed_at)
        # The promoted engine's controller records what the failover
        # cost (a gauge; the interval is worked out from ticks alone).
        successor = self.deployment.engines[engine_id]
        if successor.cadence is not None:
            successor.cadence.observe_failover(active_at - failed_at)

    def in_progress(self, engine_id: str) -> bool:
        """Whether a failover for this engine is currently underway."""
        return engine_id in self._in_progress

    def failover_count(self, engine_id: Optional[str] = None) -> int:
        """Completed failovers, optionally for one engine."""
        if engine_id is not None:
            return len(self.history.get(engine_id, []))
        return sum(len(v) for v in self.history.values())
