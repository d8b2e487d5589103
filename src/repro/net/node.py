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
old leader over the wire by calling ``halt()`` on it.

Known restriction: determinism-fault logs are process-local, so the net
runtime must run with ``calibrate=False`` (the spec's engine config
default) — recalibration events recorded on the primary would be absent
from the replica's replay.
"""

from __future__ import annotations

import asyncio
import sys
from functools import partial
from typing import Any, Dict

from repro.errors import FenceDeliveryError
from repro.net import codec
from repro.net.channel import OutboundChannel, send_fence_once
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
    """Per-process node addressing the GO/shutdown barrier.

    Hosted as ``proc:<process name>`` in every process so the
    coordinator's control channel has a handshake target; the control
    messages themselves are intercepted by the server's connection loop
    (they must work before the simulator pump starts).
    """

    def __init__(self, node_id: str):
        self.node_id = node_id
        self.alive = True

    def receive(self, item: Any) -> None:  # pragma: no cover - intercepted
        pass


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
        #: Fence attempts that exhausted their retry budget (see
        #: :class:`RemoteEngineHandle`).
        self.fence_failures = 0
        self._local: Dict[str, Any] = {}
        #: node id -> incarnation string advertised in WELCOME frames.
        self.incarnations: Dict[str, str] = {}
        self._incarnation_counter = 0
        self._channels: Dict[str, OutboundChannel] = {}
        #: node id -> peer currently observed hosting it (from inbound
        #: traffic); seeds redirects for channels created later.
        self._node_hosts: Dict[str, str] = {}

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
                self.sim.call_soon(partial(self._deliver_local, dst_id, item),
                                   f"net-local:{dst_id}")
            # else: fail-stop — traffic to a locally dead node is lost.
            return
        self.channel_to(dst_id).enqueue(src_id, item)

    def _deliver_local(self, dst_id: str, item: Any) -> None:
        node = self._local.get(dst_id)
        if node is not None and node.alive:
            node.receive(item)

    def deliver(self, dst_id: str, item: Any) -> bool:
        """Hand an item arriving off the wire to a hosted node.

        Called from the pump (via ``RealtimeKernel.inject``), so the
        simulator is at the current real tick and the handler may
        schedule freely.  Returns False when the destination is not
        hosted or dead, so the server can hang up and force senders to
        re-resolve the node's location.
        """
        node = self._local.get(dst_id)
        if node is None or not node.alive:
            return False
        node.receive(item)
        return True

    def fail_node(self, node_id: str) -> None:
        """Epoch-reset the channel toward a declared-failed node."""
        channel = self._channels.get(node_id)
        if channel is not None:
            channel.reset()

    def note_item_source(self, src_node: str, from_peer: str) -> None:
        """Record where traffic *from* ``src_node`` is arriving from.

        Called by the server for every inbound ITEM, before the item is
        handed to the pump.  If we hold a channel *toward* that node and
        it is pointed at a different host, the node has moved (its
        replica was promoted) — redirect the channel now, so replies to
        this very item are enqueued into the new epoch rather than being
        dropped when the reconnect loop discovers the move later.
        """
        self._node_hosts[src_node] = from_peer
        channel = self._channels.get(src_node)
        if channel is not None:
            channel.redirect(from_peer)

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
                handshake_timeout=self.spec.handshake_timeout_s,
                jitter_seed=self.spec.master_seed,
                batch_max_items=self.spec.batch_max_items,
            )
            host = self._node_hosts.get(dst_node)
            if host is not None:
                channel.redirect(host)
            self._channels[dst_node] = channel
            channel.start()
        return channel

    def congested(self) -> bool:
        """Whether any outbound channel is over its high-water mark."""
        return any(ch.congested() for ch in self._channels.values())

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
        """
        sink = self.metrics
        if sink is None:
            return
        for dst, counters in self.channel_counters().items():
            for name, value in counters.items():
                if value:
                    sink.count(f"chan.{dst}.{name}", value)
                sink.count(f"channel_{name}_total", value)
        if self.fence_failures:
            sink.count("channel_fence_failures_total", self.fence_failures)

    async def close(self) -> None:
        for channel in list(self._channels.values()):
            await channel.close()
        self._channels.clear()


class RemoteEngineHandle:
    """Follower-side stand-in for the engine running in another process.

    Gives :class:`~repro.runtime.recovery.RecoveryManager` the two
    things it touches on the failed engine — ``alive`` and ``halt()`` —
    where ``halt`` becomes a best-effort *fence*: a one-shot FenceRequest
    fired at the engine's primary address only (never the replica-side
    address, so a completed promotion can never fence itself).  Fencing
    bypasses the normal channel on purpose: ``fail_node`` resets that
    channel, which would silently drop a fence queued through it.
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
        """Fence every process that may still host a stale incarnation.

        The engine node's address candidates are ordered primary first,
        then the follower processes in promotion (rank) order.  When
        rank *r* promotes, the engine may previously have been hosted by
        the primary or by any follower of rank < r (each earlier link in
        the succession line) — fence them all; never our own process or
        higher ranks, which cannot have hosted the engine yet.
        """
        self.alive = False
        addresses = self._transport.spec.addresses.get(self.engine_id) or []
        for idx, address in enumerate(addresses[:1 + self.rank]):
            asyncio.get_running_loop().create_task(
                self._fence(tuple(address)),
                name=f"fence:{self.engine_id}:{idx}",
            )

    async def _fence(self, address) -> None:
        """Deliver the fence within the spec's capped retry budget.

        Exhausting the budget is not fatal to the promotion (the common
        cause is that the primary is simply dead), but it is recorded:
        the structured :class:`~repro.errors.FenceDeliveryError` is
        logged and counted so a partitioned-but-alive primary shows up
        in the run report instead of vanishing into a silent False.
        """
        transport = self._transport
        try:
            await send_fence_once(
                address, transport.peer_id, self.engine_id,
                attempts=transport.spec.fence_attempts,
                gap=transport.spec.fence_gap_s,
            )
        except FenceDeliveryError as exc:
            transport.fence_failures += 1
            print(f"fence: {exc}", file=sys.stderr, flush=True)


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
