"""Node hosting: the seam between the simulated runtime and the net.

Every :mod:`repro.net` process *plans* the complete deployment from the
shared :class:`~repro.net.topology.ClusterSpec` — wire table, router,
engine configs, fault logs — and *builds* only the nodes
:func:`~repro.net.topology.plan_cluster_nodes` gives its process name,
directly on its :class:`NetTransport` (which routes locally-hosted
destinations through the local simulator and everything else through
socket channels).  :func:`host_deployment` is that one step for every
process; it returns a stock :class:`~repro.runtime.app.Deployment`,
started by ``start()`` and, on a follower process, promoted by
``rebuild_engine``.  Processes still agree on what they share: wire ids
and estimators come from the declaration order, whatever is hosted, and
RNG streams are seeded by name, not by creation order.

What :mod:`repro.runtime` objects may ask of a transport is the
:class:`~repro.runtime.transport.Transport` protocol, which
:class:`NetTransport` and the simulated
:class:`~repro.runtime.transport.Network` both implement.  Its
``ingress_shares_clock`` is false here — the ingress and the engine are
on different machines — so external input wires are wired
``external=False`` and rely on explicit silence facts (see the protocol).

The fence lives here too: a follower's deployment holds a
:class:`RemoteEngineHandle` in place of the engine it follows, so the
unmodified :class:`~repro.runtime.recovery.RecoveryManager` fences the
old leader over the wire by calling ``halt()`` on it.  The fence rides
an ordinary channel to each earlier process's ``proc:<name>`` control
node, so it is retried until the link heals and counted as a failure
only if it is still unacknowledged at teardown.

Known restriction: determinism-fault logs are process-local, so the net
runtime must run with ``calibrate=False`` (the spec's engine config
default) — recalibration events recorded on the primary would be absent
from the replica's replay.
"""

from __future__ import annotations

import sys
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import FenceDeliveryError
from repro.net import codec
from repro.net.channel import OutboundChannel, all_flushed, deposed
from repro.net.topology import (
    ClusterSpec,
    attach_workload,
    build_deployment,
    plan_cluster_nodes,
)
from repro.runtime.app import Deployment
from repro.runtime.engine import ExecutionEngine
from repro.sim.kernel import Simulator


class ControlNode:
    """Per-process node addressing cluster control messages.

    Hosted as ``proc:<process name>`` in every process, always alive, so
    the coordinator's GO/shutdown barrier, a follower's fence and the
    chaos driver's faults have a handshake target wherever the engines
    are.  The server hands each control message to :meth:`receive` at
    once, not through the pump: GO and Shutdown must work while the
    pump is not running.
    """

    def __init__(self, node_id: str, receive: Callable[[Any], None]):
        self.node_id = node_id
        self.alive = True
        #: Acts on one control message.
        self.receive = receive


class NetTransport:
    """The :class:`~repro.runtime.transport.Transport` over TCP, plus
    hosting bookkeeping for the server.

    Destinations hosted in this process are delivered through the local
    simulator (zero-delay, like co-located nodes in the simulated
    network); all others go out over an
    :class:`~repro.net.channel.OutboundChannel` to wherever the cluster
    spec says the node lives.
    """

    #: Ingresses live in the coordinator process, engines elsewhere.
    ingress_shares_clock = False

    def __init__(self, sim: Simulator, spec: ClusterSpec, peer_id: str):
        self.sim = sim
        self.spec = spec
        self.peer_id = peer_id
        #: MetricSet the per-channel counters are exported to (see
        #: :meth:`export_metrics`); :func:`host_deployment` binds the
        #: deployment's.
        self.metrics = None
        #: (engine id, process, channel) of every fence sent (see
        #: :class:`RemoteEngineHandle`).
        self.fences: List[Tuple[str, str, OutboundChannel]] = []
        self._local: Dict[str, Any] = {}
        #: node id -> incarnation string advertised in WELCOME frames.
        self.incarnations: Dict[str, str] = {}
        self._incarnation_counter = 0
        self._channels: Dict[str, OutboundChannel] = {}
        #: node id -> peer currently observed hosting it (from inbound
        #: traffic); seeds redirects for channels created later.
        self._hosts: Dict[str, str] = {}

    # -- hosting --------------------------------------------------------
    def register(self, node) -> None:
        """Host (or re-host) a node here; bumps its incarnation."""
        self._local[node.node_id] = node
        self._incarnation_counter += 1
        self.incarnations[node.node_id] = (
            f"{self.peer_id}#{self._incarnation_counter}"
        )

    def local_node(self, node_id: str):
        """The locally hosted node with this id, or None."""
        return self._local.get(node_id)

    # -- Transport protocol ---------------------------------------------
    def send(self, src_id: str, dst_id: str, item: Any) -> None:
        node = self._local.get(dst_id)
        if node is not None:
            if node.alive:
                self.sim.call_soon(partial(self.deliver, dst_id, item),
                                   f"net-local:{dst_id}")
            # else: fail-stop — traffic to a locally dead node is lost.
            return
        self.channel_to(dst_id).enqueue(src_id, item)

    def live_incarnation(self, node_id: str) -> Optional[str]:
        """The incarnation of hosted node ``node_id`` while it is alive;
        None when it is not hosted here or dead."""
        node = self._local.get(node_id)
        if node is None or not node.alive:
            return None
        return self.incarnations[node_id]

    def deliver(self, dst_id: str, item: Any) -> None:
        """Hand an item to a hosted node, from the pump (the simulator is
        at the current real tick).  A dead node drops it (fail-stop)."""
        node = self._local.get(dst_id)
        if node is not None and node.alive:
            node.receive(item)

    def fail_node(self, node_id: str) -> None:
        """Epoch-reset the channel toward a declared-failed node."""
        channel = self._channels.get(node_id)
        if channel is not None:
            channel.reset()

    def note_item_source(self, src_node: str, from_peer: str) -> None:
        """Record where traffic *from* ``src_node`` arrives from, for
        every inbound item before the pump sees it: if the node moved,
        the channel toward it is redirected now, so replies to this very
        item land in the new epoch.  A deposed host's leftovers move
        nothing."""
        channel = self._channels.get(src_node)
        adopted = channel.incarnation if channel is not None else None
        if self._hosts.get(src_node) == from_peer and (
                channel is None
                or (adopted or "").startswith(from_peer + "#")):
            return  # no news
        line = (self.spec.succession_line(src_node)
                if src_node in self.spec.engines else ())
        if deposed(line, from_peer, self._hosts.get(src_node), adopted):
            return
        self._hosts[src_node] = from_peer
        if channel is not None:
            channel.redirect(from_peer)

    def host_of(self, node_id: str) -> Optional[str]:
        """The peer that traffic *from* ``node_id`` last arrived from —
        the process hosting it now, as far as this one knows (None
        before any arrived)."""
        return self._hosts.get(node_id)

    # -- channels -------------------------------------------------------
    def channel_to(self, dst_node: str) -> OutboundChannel:
        channel = self._channels.get(dst_node)
        if channel is None:
            addresses = self.spec.addresses.get(dst_node)
            if not addresses:
                raise codec.CodecError(
                    f"{self.peer_id}: no address for node {dst_node!r}"
                )
            channel = OutboundChannel(
                self.peer_id, dst_node, addresses,
                backoff_min=self.spec.backoff_min_s,
                backoff_max=self.spec.backoff_max_s,
                connect_timeout=self.spec.connect_timeout_s,
                jitter_seed=self.spec.master_seed,
                batch_max_items=self.spec.batch_max_items,
            )
            host = self._hosts.get(dst_node)
            if host is not None:
                channel.redirect(host)
            self._channels[dst_node] = channel
            channel.start()
        return channel

    def congested(self) -> bool:
        """Whether any outbound channel is over its high-water mark."""
        return any(ch.congested() for ch in self._channels.values())

    def incarnations_adopted(self) -> Dict[str, Optional[str]]:
        """dst node -> the incarnation its channel adopted, if any."""
        return {dst: ch.incarnation for dst, ch in self._channels.items()}

    def channel_counters(self) -> Dict[str, Dict[str, int]]:
        """dst node -> its channel's fault/retransmit/epoch counters."""
        return {dst: ch.counters()
                for dst, ch in sorted(self._channels.items())}

    def export_metrics(self) -> None:
        """Flush per-channel counters into the bound :class:`MetricSet`.

        Counters land twice: per destination (``chan.<dst>.<name>``,
        read back with ``MetricSet.channel_counters``) and as cluster
        totals (``channel_<name>_total``).  Call once at teardown —
        exporting mid-run would double-count.

        A fence whose channel still holds it unacknowledged is logged as
        a :class:`~repro.errors.FenceDeliveryError` and counted in
        ``channel_fence_failures_total``: a dead primary needs no fence,
        but a partitioned-but-alive one is what operators need to see.
        """
        failed = [FenceDeliveryError(engine_id, process)
                  for engine_id, process, channel in self.fences
                  if channel.backlog()]
        for exc in failed:
            print(f"fence: {exc}", file=sys.stderr, flush=True)
        sink = self.metrics
        if sink is None:
            return
        for dst, counters in self.channel_counters().items():
            for name, value in counters.items():
                if value:
                    sink.count(f"chan.{dst}.{name}", value)
                sink.count(f"channel_{name}_total", value)
        if failed:
            sink.count("channel_fence_failures_total", len(failed))

    async def flushed(self, timeout: float) -> bool:
        """Wait until every outbound channel has its items acknowledged
        or has hung up; False if ``timeout`` seconds pass first."""
        return await all_flushed(list(self._channels.values()), timeout)

    async def close(self) -> None:
        for channel in list(self._channels.values()):
            await channel.close()
        self._channels.clear()


class RemoteEngineHandle:
    """Follower-side stand-in for the engine running in another process.

    Gives :class:`~repro.runtime.recovery.RecoveryManager` the two
    things it touches on the failed engine — ``alive`` and ``halt()`` —
    where ``halt`` becomes a *fence*: a FenceRequest enqueued on the
    channel to the ``proc:<name>`` control node of every process that
    may still host a stale incarnation.  The control node never moves
    and is never declared failed, so ``fail_node`` cannot drop the
    fence, and the fence is numbered on a stream of its own, so no
    earlier traffic to the engine can make it read as a duplicate.
    """

    def __init__(self, engine_id: str, transport: "NetTransport", rank: int):
        self.engine_id = engine_id
        self.alive = True
        self._transport = transport
        #: Promotion rank of the follower process holding this handle.
        self.rank = int(rank)

    def start(self) -> None:
        """Nothing to start: the engine runs in its own process."""

    def halt(self) -> None:
        """Fence the processes before this follower on the engine's
        succession line: the primary and every follower of a lower rank
        may have hosted it; this one and higher ranks cannot have.  A
        process with no address in the spec is not fenced."""
        self.alive = False
        transport = self._transport
        spec = transport.spec
        for process in spec.succession_line(self.engine_id)[:1 + self.rank]:
            if spec.addresses.get(f"proc:{process}"):
                channel = transport.channel_to(f"proc:{process}")
                channel.enqueue(transport.peer_id,
                                codec.FenceRequest(self.engine_id))
                transport.fences.append((self.engine_id, process, channel))


def host_deployment(name: str, transport: NetTransport) -> Deployment:
    """Process ``name``'s share of the spec's deployment, on ``transport``.

    Producers are attached where their ingresses are (the coordinator),
    so the workload is generated at exact simulated ticks from the
    deployment's seeded RNG streams.  ``start()`` it at the GO epoch.
    """
    spec = transport.spec
    deployment = build_deployment(spec, sim=transport.sim, network=transport,
                                  hosted=plan_cluster_nodes(spec)[name])
    transport.metrics = deployment.metrics
    for engine_id, group in deployment.followers.items():
        if engine_id not in deployment.engines:
            deployment.engines[engine_id] = RemoteEngineHandle(
                engine_id, transport, group[0].rank)
    if deployment.ingresses:
        attach_workload(deployment, spec)
    return deployment


def detection_counts(deployment: Deployment) -> Dict[str, int]:
    """How this process's detectors declared engines dead, by cause,
    also counted into the deployment's MetricSet as
    ``detector.crash_confirmed`` / ``detector.timeouts``.  Empty when it
    follows no engine.  Call once, at teardown."""
    if not deployment.detectors:
        return {}
    counts = {
        cause: sum(getattr(d, cause) for d in deployment.detectors.values())
        for cause in ("crash_confirmed", "timeouts")}
    for cause, n in counts.items():
        deployment.metrics.count(f"detector.{cause}", n)
    return counts


def engine_audit_report(engine: ExecutionEngine):
    """Structured audit + cadence summary of one engine (None if both
    features are off — the server then prints no AUDIT line)."""
    if engine.auditor is None and engine.cadence is None:
        return None
    report = {"engine": engine.engine_id}
    if engine.auditor is not None:
        report.update(engine.auditor.report())
    if engine.cadence is not None:
        cadence = engine.cadence
        report["cadence"] = {
            "interval_ticks": cadence.interval,
            "predicted_replay_ticks": cadence.predicted_replay_ticks(),
            "budget_ticks": cadence._budget_ticks(),
            "adjustments": cadence.adjustments,
        }
    return report
