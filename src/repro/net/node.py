"""Node hosting: the seam between the simulated runtime and the net.

Every :mod:`repro.net` process builds the *complete* deployment from the
shared :class:`~repro.net.topology.ClusterSpec` — identical wire tables,
estimators, and RNG streams everywhere — then cannibalizes it: the nodes
this process hosts are kept live and rewired onto a :class:`NetTransport`
(which routes locally-hosted destinations through the local simulator and
everything else through socket channels), while the rest become inert
zombies that never start.

The engine scheduling loop is not forked: :class:`EngineHost` runs the
stock :class:`~repro.runtime.engine.ExecutionEngine` against the process
simulator pumped by :class:`~repro.net.clock.RealtimeKernel`.  The one
semantic adjustment is that external input wires are re-flagged
``external=False``: the scheduler's local-clock freshness bound ("any
future external message is stamped no earlier than the current real
time") presumes the ingress shares the engine's clock, which is untrue
across machines.  With the flag off, ingress silence travels as explicit
:class:`~repro.core.message.SilenceAdvance` facts answered to curiosity
probes — sound on any transport, and exactly the paper's pessimistic
baseline.
"""

from __future__ import annotations

import asyncio
import sys
from functools import partial
from typing import Any, Callable, Dict, Optional

from repro.errors import FenceDeliveryError
from repro.net import codec
from repro.net.channel import OutboundChannel, send_fence_once
from repro.net.topology import ClusterSpec, build_deployment
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
    """Duck-type of :class:`~repro.runtime.transport.Network` over TCP.

    Implements the surface the runtime objects actually use — ``send``,
    ``register``, ``fail_node``, ``sim`` — plus hosting bookkeeping for
    the server.  Destinations hosted in this process are delivered
    through the local simulator (zero-delay, like co-located nodes in
    the simulated network); all others go out over an
    :class:`~repro.net.channel.OutboundChannel` to wherever the cluster
    spec says the node lives.
    """

    def __init__(self, sim: Simulator, spec: ClusterSpec, peer_id: str):
        self.sim = sim
        self.spec = spec
        self.peer_id = peer_id
        #: Optional MetricSet the per-channel counters are exported to
        #: (see :meth:`export_metrics`); hosts wire their deployment's.
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

    # -- Network surface used by engines/replicas/ingresses -------------
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

    def export_metrics(self, metrics=None) -> None:
        """Flush per-channel counters into a :class:`MetricSet`.

        Counters land twice: per destination (``chan.<dst>.<name>``,
        read back with ``MetricSet.channel_counters``) and as cluster
        totals (``channel_<name>_total``).  Call once at teardown —
        exporting mid-run would double-count.
        """
        sink = metrics if metrics is not None else self.metrics
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
    """Replica-side stand-in for the engine running in another process.

    Gives :class:`~repro.runtime.recovery.RecoveryManager` the two
    things it touches on the failed engine — ``alive`` and ``halt()`` —
    where ``halt`` becomes a best-effort *fence*: a one-shot FenceRequest
    fired at the engine's primary address only (never the replica-side
    address, so a completed promotion can never fence itself).  Fencing
    bypasses the normal channel on purpose: ``fail_node`` resets that
    channel, which would silently drop a fence queued through it.
    """

    def __init__(self, engine_id: str, spec: ClusterSpec, peer_id: str,
                 transport: Optional["NetTransport"] = None, rank: int = 0):
        self.node_id = engine_id
        self.engine_id = engine_id
        self.alive = True
        self._spec = spec
        self._peer_id = peer_id
        self._transport = transport
        #: Promotion rank of the follower process holding this handle.
        self.rank = int(rank)

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
        addresses = self._spec.addresses.get(self.engine_id) or []
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
        try:
            await send_fence_once(
                address, self._peer_id, self.engine_id,
                attempts=self._spec.fence_attempts,
                gap=self._spec.fence_gap_s,
            )
        except FenceDeliveryError as exc:
            if self._transport is not None:
                self._transport.fence_failures += 1
            print(f"fence: {exc}", file=sys.stderr, flush=True)


class EngineHost:
    """One process hosting one active execution engine."""

    def __init__(self, spec: ClusterSpec, engine_id: str,
                 sim: Simulator, transport: NetTransport):
        self.spec = spec
        self.engine_id = engine_id
        self.transport = transport
        self.deployment: Deployment = build_deployment(spec, sim=sim)
        for other_id, other in self.deployment.engines.items():
            if other_id != engine_id:
                other.halt()  # zombie: never starts, never speaks
        self.engine: ExecutionEngine = self.deployment.engines[engine_id]
        self.engine.network = transport
        transport.metrics = self.deployment.metrics
        disable_external_clock_bound(self.engine)
        transport.register(self.engine)
        # A self-heal rewrites the engine's state in place; re-registering
        # turns the epoch bump into a real transport incarnation, so new
        # handshakes see a fresh identity for the healed node.
        self.engine.on_heal = lambda: transport.register(self.engine)

    def start(self) -> None:
        """Begin checkpointing and heartbeats (post-GO)."""
        self.engine.start()

    def audit_report(self):
        """Audit/cadence outcome for the teardown report line."""
        return engine_audit_report(self.engine)


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


def disable_external_clock_bound(engine: ExecutionEngine) -> None:
    """Re-flag the engine's external input wires as non-external.

    See the module docstring: the ``external`` fast path lower-bounds
    future arrivals by the local clock, which is only sound when the
    ingress timestamps with *this* engine's clock.  Over the network the
    ingress runs elsewhere, so the engine must rely on the explicit
    silence facts the ingress already answers to curiosity probes.
    """
    for runtime in engine.runtimes.values():
        for wire in runtime.in_wires.values():
            if wire.external:
                wire.external = False
