"""Failure detection: a heartbeat timeout, and a crash confirmed at once.

The paper takes failure detection as given ("If an engine fails, its
passive backup becomes active").  This module supplies the missing
piece: each active engine sends periodic heartbeats to its passive
replica; the replica-side :class:`HeartbeatDetector` declares the engine
dead after ``miss_limit`` consecutive silent periods and triggers the
recovery manager.  With the detector enabled, a fail-stop injected by
:class:`~repro.runtime.failure.FailureInjector` (or any other cause of
engine silence) is noticed *organically* — nothing tells the recovery
path out of band.  Any traffic from the engine is proof of life: a
checkpoint re-arms the deadline like a heartbeat does, so a loaded
leader whose beat queues behind checkpoint frames is not suspected.

There are two detection paths, and both land in the same place
(:meth:`HeartbeatDetector._declare`: fence, then promote):

* **Timeout** — the only path in simulation, and the one every *stall*
  waits for: a stopped process, a blackholed or partitioned link, a
  proxied link.  It takes ``~ miss_limit * heartbeat_interval`` plus one
  transit, rank-scaled (see :attr:`HeartbeatDetector.timeout`), and it
  trades against false positives under delay spikes — the classic
  dilemma, exposed here as two knobs and measured by the detection
  ablation in :mod:`repro.experiments.ablations`.
* **Crash confirmed** (:meth:`HeartbeatDetector.confirm_crash`) — on the
  live cluster a *crash* is visible on the sockets at once: the
  connection from the engine's process ends, and every address that may
  host the engine refuses a connect.  The networked server
  (:mod:`repro.net.server`) gathers that evidence and injects the call;
  promotion then follows in milliseconds instead of after the timeout.

A refused listener is sound evidence, and detection accuracy never
carries safety anyway: promotion still fences the old incarnation
first, so a wrong verdict on either path costs a failover, never two
live engines with one identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import RecoveryError

@dataclass(frozen=True)
class Heartbeat:
    """Periodic liveness beacon from an active engine."""

    engine_id: str
    seq: int


class HeartbeatEmitter:
    """Engine-side: sends a heartbeat to the replica every interval."""

    def __init__(self, engine, interval: int):
        if interval <= 0:
            raise RecoveryError("heartbeat interval must be positive")
        self.engine = engine
        self.interval = int(interval)
        self._seq = 0

    def start(self) -> None:
        """Begin emitting."""
        self.engine.sim.after(self.interval, self._tick,
                              f"hb:{self.engine.engine_id}")

    def _tick(self) -> None:
        if not self.engine.alive:
            return  # fail-stop: the beacon dies with the engine
        targets = self.engine.config.replica_ids
        if targets:
            beat = Heartbeat(self.engine.engine_id, self._seq)
            for replica_id in targets:
                self.engine.network.send(
                    self.engine.node_id, replica_id, beat
                )
            self._seq += 1
        self.engine.sim.after(self.interval, self._tick,
                              f"hb:{self.engine.engine_id}")


class HeartbeatDetector:
    """Replica-side: declares the engine dead after missed heartbeats.

    Attach with :meth:`watch`; the detector re-arms its timeout on every
    heartbeat and checkpoint (delivered to it by the replica's
    ``receive`` hook) and fires :meth:`RecoveryManager.engine_failed`
    with zero additional detection delay — the heartbeat timeout *is*
    the detection delay, unless :meth:`confirm_crash` cuts it short.
    After a failover the new engine's emitter resumes and watching
    continues automatically.
    """

    def __init__(self, sim, recovery, engine_id: str,
                 interval: int, miss_limit: int = 3, rank: int = 0):
        if miss_limit < 1:
            raise RecoveryError("miss_limit must be >= 1")
        if rank < 0:
            raise RecoveryError("rank must be >= 0")
        self.sim = sim
        self.recovery = recovery
        self.engine_id = engine_id
        self.interval = int(interval)
        self.miss_limit = int(miss_limit)
        #: Promotion rank of the follower running this detector.  Higher
        #: ranks wait longer (see :attr:`timeout`) so rank 0 promotes
        #: first; its successor's resumed heartbeats re-arm the others
        #: before their deadlines, and a rank only acts when every rank
        #: below it died too.
        self.rank = int(rank)
        self._deadline_event = None
        self._last_seq: Optional[int] = None
        #: Number of times this detector has declared the engine dead,
        #: and how: by the timeout, or by a crash confirmed on the wire.
        self.detections = 0
        self.timeouts = 0
        self.crash_confirmed = 0
        self._watching = False

    @property
    def timeout(self) -> int:
        """Silent period after which the engine is declared dead.

        Rank-scaled: rank *r* waits ``(2r + 1)`` base timeouts, leaving
        each lower rank a full extra detection window to promote and
        resume heartbeats before the next rank concludes it died too.
        """
        return self.interval * self.miss_limit * (2 * self.rank + 1)

    def watch(self) -> None:
        """Start (or restart) watching."""
        self._watching = True
        self._arm()

    def on_heartbeat(self, beat: Heartbeat) -> None:
        """Feed one received heartbeat; re-arms the deadline."""
        if beat.engine_id != self.engine_id:
            return
        self._last_seq = beat.seq
        self.on_traffic()

    def on_traffic(self) -> None:
        """Any traffic from the watched engine is proof of life: re-arm."""
        if self._watching:
            self._arm()

    def _arm(self) -> None:
        if self._deadline_event is not None:
            self._deadline_event.cancel()
        self._deadline_event = self.sim.after(
            self.timeout, self._expired, f"hb-timeout:{self.engine_id}"
        )

    def _expired(self) -> None:
        self._deadline_event = None
        if not self._watching:
            return
        if self.recovery.in_progress(self.engine_id):
            # Promotion already underway; just keep watching.
            self._arm()
            return
        self.timeouts += 1
        self._declare()

    def confirm_crash(self) -> None:
        """The engine's process is gone: promote now, not at the timeout.

        Called (through the pump) when every address that may host the
        engine refused a connect.  A no-op while not watching, while a
        promotion is underway, and once the engine is hosted here — a
        late connection end after our own promotion says nothing about
        the engine we now run.
        """
        from repro.runtime.engine import ExecutionEngine

        if not self._watching or self.recovery.in_progress(self.engine_id):
            return
        engine = self.recovery.deployment.engines.get(self.engine_id)
        if isinstance(engine, ExecutionEngine):
            return
        self.crash_confirmed += 1
        self._declare()

    def _declare(self) -> None:
        """Declare the engine dead: fence and promote, keep watching."""
        self.detections += 1
        # Detection is over (the timeout ran, or the crash is confirmed):
        # promote now.
        self.recovery.engine_failed(self.engine_id, detection_delay=0)
        # Keep watching: the promoted engine resumes heartbeats; if IT
        # dies too, we detect again.
        self._arm()

    def stop(self) -> None:
        """Stop watching (deployment teardown)."""
        self._watching = False
        if self._deadline_event is not None:
            self._deadline_event.cancel()
            self._deadline_event = None
