"""Passive replicas.

"Each engine is associated with a backup ... a passive replica residing
on a separate execution engine, which holds checkpoints, ready to
immediately become active should the active engine fail."  A passive
replica "only holds the state; it need not do any processing" (paper
II.F.2) — so this class is deliberately dumb: it holds one folded
state, acknowledges each checkpoint, and hands that state over when the
recovery manager promotes it.

A full checkpoint replaces the held state; an incremental one is a delta
against the capture just before it and is folded into the held state on
arrival, with :func:`~repro.runtime.state_merge.fold_chain` (the rule the
divergence auditor folds its mirror with).  So the follower never keeps a
chain: it always holds exactly one valid replay starting point, the state
at its newest checkpoint (upstream senders keep every message that
checkpoint has not yet made stable), and a promotion restores it without
a fold — the bounded window of "Availability Guarantee for Deterministic
Replay Starting Points in Real-Time Systems".

With replication groups (N engines × K followers), one engine ships its
checkpoints to several replicas; each acknowledges with its own node id
so the engine can wait for the whole group before trimming upstream
buffers.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.message import CheckpointAck, CheckpointData
from repro.errors import RecoveryError
from repro.runtime import checkpoint as cpser
from repro.runtime.state_merge import fold_chain


class PassiveReplica:
    """Checkpoint store + failover source for one engine."""

    def __init__(self, node_id: str, sim, network, engine_id: str,
                 rank: int = 0):
        self.node_id = node_id
        self.alive = True
        self.sim = sim
        self.network = network
        self.engine_id = engine_id
        #: Promotion rank within the engine's replication group.
        self.rank = rank
        #: Component name -> full snapshot at :attr:`last_cp_seq`; None
        #: until the first full checkpoint arrives.
        self._held: Optional[Dict[str, dict]] = None
        self._held_seq = -1
        self.bytes_received = 0
        #: Redelivered delta checkpoints ignored (diagnostics).
        self.duplicates = 0
        #: Optional heartbeat detector fed by this replica's receive().
        self.detector = None

    def receive(self, item: Any) -> None:
        """Hold a soft checkpoint / note a heartbeat; acknowledge data.

        Both are proof that the engine lives and re-arm the detector.
        """
        from repro.runtime.detector import Heartbeat

        if isinstance(item, Heartbeat):
            if self.detector is not None:
                self.detector.on_heartbeat(item)
            return
        if not isinstance(item, CheckpointData):
            return
        if item.engine_id != self.engine_id:
            raise RecoveryError(
                f"replica {self.node_id}: checkpoint for {item.engine_id}"
            )
        if self.detector is not None:
            self.detector.on_traffic()
        decoded = cpser.loads(item.blob)["components"]
        if not item.incremental:
            self._held, self._held_seq = decoded, item.cp_seq
        elif self._held is None:
            raise RecoveryError(
                f"replica {self.node_id}: delta checkpoint {item.cp_seq} "
                f"without a base"
            )
        elif item.cp_seq > self._held_seq + 1:
            # A delta is taken against the capture just before it.
            raise RecoveryError(
                f"replica {self.node_id}: delta checkpoint {item.cp_seq} "
                f"does not follow {self._held_seq}"
            )
        elif item.cp_seq <= self._held_seq:
            # Redelivered after a reconnect (the sender resends its
            # unacked tail): folding it again would regress the state.
            self.duplicates += 1
        else:
            self._held = fold_chain(self._held, [decoded])
            self._held_seq = item.cp_seq
        self.bytes_received += len(item.blob)
        self.network.send(
            self.node_id, self.engine_id,
            CheckpointAck(self.engine_id, item.cp_seq,
                          replica_id=self.node_id),
        )

    # -- failover ----------------------------------------------------------
    @property
    def has_checkpoint(self) -> bool:
        """Whether at least one full checkpoint has arrived."""
        return self._held is not None

    @property
    def last_cp_seq(self) -> int:
        """Sequence number of the newest held checkpoint (-1 if none)."""
        return self._held_seq

    def materialize(self) -> Dict[str, dict]:
        """The held state: per-component full snapshots.

        The result maps component name to a snapshot dict directly
        restorable by
        :meth:`repro.core.scheduler.ComponentRuntime.restore`.
        """
        if self._held is None:
            raise RecoveryError(
                f"replica {self.node_id}: no checkpoint to materialize"
            )
        return self._held
