"""Passive replicas.

"Each engine is associated with a backup ... a passive replica residing
on a separate execution engine, which holds checkpoints, ready to
immediately become active should the active engine fail."  A passive
replica "only holds the state; it need not do any processing" (paper
II.F.2) — so this class is deliberately dumb: it stores checkpoint blobs,
acknowledges them, and can *materialize* the merged state (base full
checkpoint plus incremental deltas) when the recovery manager promotes
it.

With replication groups (N engines × K followers), one engine ships its
chain to several replicas; each acknowledges with its own node id so the
engine can wait for the whole group before trimming upstream buffers.
The stored chain is garbage-collected: once it grows past
``gc_fold_threshold`` entries, the prefix is folded into one synthetic
full checkpoint — bounding both entry count and retained bytes on long
runs — and the ``replica.chain_len`` / ``replica.chain_bytes`` gauges
expose the current footprint.

That bounds what a promotion pays: it folds at most ``gc_fold_threshold``
entries, each incremental one the size of what changed between two
captures, and the newest entry is always a valid replay starting point
(upstream senders keep every message it has not yet acknowledged), so
the replay covers only the inputs since that capture: the bounded
window of "Availability Guarantee for Deterministic Replay Starting
Points in Real-Time Systems".
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.message import CheckpointAck, CheckpointData
from repro.errors import RecoveryError
from repro.runtime import checkpoint as cpser
from repro.runtime.state_merge import fold_chain

#: Chain entries above which the prefix is folded into a synthetic full.
GC_FOLD_THRESHOLD = 8


class PassiveReplica:
    """Checkpoint store + failover source for one engine."""

    def __init__(self, node_id: str, sim, network, engine_id: str,
                 rank: int = 0, metrics=None,
                 gc_fold_threshold: int = GC_FOLD_THRESHOLD):
        self.node_id = node_id
        self.alive = True
        self.sim = sim
        self.network = network
        self.engine_id = engine_id
        #: Promotion rank within the engine's replication group.
        self.rank = rank
        #: Optional MetricSet the chain gauges are written to.
        self.metrics = metrics
        self.gc_fold_threshold = max(2, int(gc_fold_threshold))
        #: (cp_seq, incremental, decoded blob) in arrival order.
        self._chain: List[tuple] = []
        #: Serialized size of each chain entry, kept in step with _chain.
        self._chain_sizes: List[int] = []
        self.bytes_received = 0
        #: Chain-GC folds performed (diagnostics).
        self.gc_folds = 0
        #: Redelivered delta checkpoints ignored (diagnostics).
        self.duplicates = 0
        #: Optional heartbeat detector fed by this replica's receive().
        self.detector = None

    def receive(self, item: Any) -> None:
        """Store a soft checkpoint / heartbeat and acknowledge data.

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
        decoded = cpser.loads(item.blob)
        if not item.incremental:
            # A full checkpoint obsoletes the existing chain.
            self._chain = [(item.cp_seq, False, decoded)]
            self._chain_sizes = [len(item.blob)]
        else:
            if not self._chain:
                raise RecoveryError(
                    f"replica {self.node_id}: delta checkpoint {item.cp_seq} "
                    f"without a base"
                )
            last = self._chain[-1][0]
            if item.cp_seq > last + 1:
                # A delta is taken against the capture just before it.
                raise RecoveryError(
                    f"replica {self.node_id}: delta checkpoint {item.cp_seq} "
                    f"does not follow {last}"
                )
            if item.cp_seq <= last:
                # Redelivered after a reconnect (the sender resends its
                # unacked tail): folding it again would regress the chain.
                self.duplicates += 1
            else:
                self._chain.append((item.cp_seq, True, decoded))
                self._chain_sizes.append(len(item.blob))
        self.bytes_received += len(item.blob)
        if len(self._chain) > self.gc_fold_threshold:
            self._gc_fold()
        self._publish_gauges()
        self.network.send(
            self.node_id, self.engine_id,
            CheckpointAck(self.engine_id, item.cp_seq,
                          replica_id=self.node_id),
        )

    # -- chain garbage collection ------------------------------------------
    def _gc_fold(self) -> None:
        """Fold the whole chain prefix into one synthetic full checkpoint.

        The fold keeps the newest entry's ``cp_seq`` (the chain's replay
        starting point is unchanged) and replaces everything below it
        with the merged state, so a long run's delta tail cannot grow
        without bound even when the engine defers full captures.
        """
        last_seq = self._chain[-1][0]
        folded = self.materialize()
        blob = cpser.dumps({"components": folded})
        self._chain = [(last_seq, False, cpser.loads(blob))]
        self._chain_sizes = [len(blob)]
        self.gc_folds += 1
        if self.metrics is not None:
            self.metrics.count("replica.gc_folds")

    def _publish_gauges(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge("replica.chain_len", self.chain_len)
            self.metrics.gauge("replica.chain_bytes", self.chain_bytes)

    @property
    def chain_len(self) -> int:
        """Entries currently retained in the checkpoint chain."""
        return len(self._chain)

    @property
    def chain_bytes(self) -> int:
        """Serialized bytes currently retained in the chain."""
        return sum(self._chain_sizes)

    # -- failover ----------------------------------------------------------
    @property
    def has_checkpoint(self) -> bool:
        """Whether at least one full checkpoint has arrived."""
        return bool(self._chain)

    @property
    def last_cp_seq(self) -> int:
        """Sequence number of the newest stored checkpoint (-1 if none)."""
        return self._chain[-1][0] if self._chain else -1

    def materialize(self) -> Dict[str, dict]:
        """Merge the chain into per-component full snapshots.

        The result maps component name to a snapshot dict directly
        restorable by
        :meth:`repro.core.scheduler.ComponentRuntime.restore`.
        """
        if not self._chain:
            raise RecoveryError(
                f"replica {self.node_id}: no checkpoint to materialize"
            )
        _, incremental, base = self._chain[0]
        if incremental:  # pragma: no cover - guarded at receive()
            raise RecoveryError("chain does not start with a full checkpoint")
        try:
            return fold_chain(
                base["components"],
                (delta["components"] for _, _, delta in self._chain[1:]),
            )
        except RecoveryError as exc:
            raise RecoveryError(f"replica {self.node_id}: {exc}") from exc
