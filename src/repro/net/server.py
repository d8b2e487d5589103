"""Process runtime: TCP server + simulator pump for one cluster member.

Runnable as ``python -m repro.net.server --spec cluster.json --name
engine-e0`` (the :mod:`repro.net.cluster` coordinator spawns these).
Each process:

1. binds the listen address the spec assigns to its ``proc:<name>``
   control node and prints ``READY``;
2. waits for the coordinator's :class:`~repro.net.codec.GoSignal`, which
   carries the shared wall-clock epoch ``t0`` — every process maps real
   time to ticks from the same origin;
3. starts its share of the deployment (an engine or a follower, see
   :func:`~repro.net.node.host_deployment`) and pumps the simulator with
   :class:`~repro.net.clock.RealtimeKernel` until a
   :class:`~repro.net.codec.Shutdown` arrives.

Inbound connection protocol (the receiving half of
:class:`~repro.net.channel.OutboundChannel`): a HELLO whose ``proto``
field does not match our :data:`~repro.net.codec.WIRE_VERSION` is
answered with a structured ``FRAME_ERROR`` and hung up (version
negotiation is enforced, not advisory); a valid HELLO is answered with
WELCOME carrying the *incarnation* of the hosted destination node, or
NOT_HERE when the node is not hosted here or no longer alive — the
latter also applies mid-stream: a connection whose destination died is
simply hung up, which forces the sender to re-handshake and cycle to
the node's next address candidate (where its promoted successor lives).

Items arrive as singleton ITEM frames or as BATCH frames carrying many
item records, and are delivered to the node the connection's HELLO
named — a record carries no destination of its own.  Acknowledgements
are *coalesced*: one cumulative ACK is written per received frame — a
batch of N items costs one ack write instead of the historical N — and
the ack carries the connection's next expected sequence number either
way.

Receiver-side dedup state is keyed by (sender peer, destination node,
destination *incarnation*): a promoted node starts with a clean slate,
matching the sender's channel-sequence restart on epoch reset, while
same-incarnation reconnect replays are deduplicated exactly.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import uuid
from functools import partial
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.errors import TransportError
from repro.net import codec
from repro.net.clock import RealtimeClock, RealtimeKernel
from repro.net.node import (
    ControlNode,
    NetTransport,
    engine_audit_report,
    host_deployment,
)
from repro.net.topology import ClusterSpec, plan_cluster_nodes
from repro.runtime.engine import ExecutionEngine
from repro.sim.kernel import Simulator


#: Messages the server acts on itself instead of delivering to a node.
_CONTROL_TYPES = frozenset({codec.GoSignal, codec.Shutdown,
                            codec.FenceRequest, codec.CorruptRequest})


class ProcessRuntime:
    """Sockets, pump, and hosting state for one cluster process."""

    def __init__(self, name: str, spec: ClusterSpec):
        self.name = name
        self.spec = spec
        self.sim = Simulator()
        self.clock = RealtimeClock(spec.speed)
        self.peer_id = f"{name}:{uuid.uuid4().hex[:8]}"
        self.transport = NetTransport(self.sim, spec, self.peer_id)
        self.rtk = RealtimeKernel(self.sim, self.clock,
                                  congestion_check=self.transport.congested)
        self.control = ControlNode(f"proc:{name}")
        self.transport.register(self.control)
        #: (peer, dst node, dst incarnation) -> next expected channel seq.
        self._recv_expected: Dict[Tuple[str, str, str], int] = {}
        self.go = asyncio.Event()
        self.go_t0: Optional[float] = None
        self.stopping = asyncio.Event()
        self._server: Optional[asyncio.AbstractServer] = None
        #: Connections that died mid-frame (truncation, not clean EOF).
        self.torn_frames = 0
        #: HELLOs rejected for a mismatched ``proto`` field.
        self.proto_rejects = 0

    # -- inbound protocol ------------------------------------------------
    async def _handle_conn(self, reader, writer) -> None:
        try:
            try:
                frame = await asyncio.wait_for(codec.read_frame(reader),
                                               timeout=10.0)
            except codec.WireVersionError as exc:
                await self._reject_proto(writer, exc.version)
                return
            if frame is None or frame[0] != codec.FRAME_HELLO:
                return
            proto = frame[1].get("proto")
            if proto != codec.WIRE_VERSION:
                await self._reject_proto(writer, proto)
                return
            peer = str(frame[1].get("peer", ""))
            dst = str(frame[1].get("dst", ""))
            node = self.transport.local_node(dst)
            if node is None or not node.alive:
                writer.write(codec.encode_not_here())
                await writer.drain()
                return
            incarnation = self.transport.incarnations[dst]
            writer.write(codec.encode_welcome(incarnation))
            await writer.drain()
            await self._item_loop(reader, writer, peer, (peer, dst,
                                                         incarnation))
        except codec.CodecError:
            pass  # malformed peer: hang up
        except TransportError:
            self.torn_frames += 1  # died mid-frame: a reset, not an EOF
        except (ConnectionError, OSError, asyncio.TimeoutError):
            pass
        except asyncio.CancelledError:
            pass  # loop teardown cancels open connection handlers
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _reject_proto(self, writer, proto) -> None:
        """Version negotiation is enforced: answer a HELLO of another
        wire version (by its frame header or its ``proto`` field) with a
        structured reject so the peer can log why, then hang up before
        any WELCOME leaks an incarnation."""
        self.proto_rejects += 1
        writer.write(codec.encode_error(
            f"unsupported wire protocol {proto!r}; "
            f"{self.name} speaks {codec.WIRE_VERSION}"
        ))
        await writer.drain()

    async def _item_loop(self, reader, writer, peer: str, key) -> None:
        encoder = codec.FrameEncoder()
        while True:
            frame = await codec.read_frame(reader)
            if frame is None:
                return
            tag, body = frame
            if tag != codec.FRAME_ITEM and tag != codec.FRAME_BATCH:
                continue
            for item in codec.batch_items(body):
                if not self._accept_item(item, peer, key):
                    # Destination died under this connection: hang up so
                    # the sender re-handshakes and finds the promoted
                    # successor at the next address candidate.
                    return
            # Ack coalescing: one cumulative ACK per received frame —
            # a batch of N items costs one ack write, not N.
            writer.write(encoder.encode_ack(self._recv_expected.get(key, 0)))
            await writer.drain()

    def _accept_item(self, item, peer: str, key) -> bool:
        """Dedup + deliver one item; False when the target is gone.

        The destination is the one the connection's HELLO named
        (``key[1]``) — an item cannot address any other node — and its
        liveness is tested per item: a fence earlier in the same batch
        must stop the items behind it.
        """
        dst_node = key[1]
        target = self.transport.local_node(dst_node)
        if target is None or not target.alive:
            return False
        seq = item["seq"]
        if seq >= self._recv_expected.get(key, 0):
            # Fresh (seq == expected) — or the sender is ahead of
            # us, which only a lost dedup entry can cause: resync to
            # the sender rather than black-holing its stream.
            self._recv_expected[key] = seq + 1
            msg = codec.decode_message(item["msg"])
            if type(msg) in _CONTROL_TYPES:
                self._control_message(msg)
            else:
                self.transport.note_item_source(item["src"], peer)
                self.rtk.inject(
                    partial(self.transport.deliver, dst_node, msg))
        return True

    def _control_message(self, msg) -> None:
        """Handle one cluster-control message (``_CONTROL_TYPES``)
        synchronously.

        GO and Shutdown cannot go through the pump — it is not running
        before GO and must be stopped by Shutdown.  The fence is also
        immediate: its entire point is to silence the engine *now*, not
        at the pump's convenience.
        """
        if type(msg) is codec.GoSignal:
            self.go_t0 = msg.t0
            self.clock.speed = float(msg.speed)
            self.go.set()
        elif type(msg) is codec.Shutdown:
            self.stopping.set()
        elif type(msg) is codec.FenceRequest:
            node = self.transport.local_node(msg.engine_id)
            if node is not None and node.alive:
                node.halt()
        else:
            # Chaos fault: plant an untracked state mutation.  Injected
            # through the pump so the corruption lands at a well-defined
            # simulated instant, like every other state change.
            def _corrupt(m=msg):
                node = self.transport.local_node(m.engine_id)
                if node is None or not node.alive or not hasattr(node, "runtimes"):
                    return
                from repro.runtime.audit import corrupt_component_state

                victim = corrupt_component_state(node, m.component or None)
                print(f"chaos: corrupted {victim} on {m.engine_id}",
                      file=sys.stderr, flush=True)

            self.rtk.inject(_corrupt)

    # -- lifecycle -------------------------------------------------------
    async def serve(self) -> None:
        """Run the full process lifecycle (returns after Shutdown)."""
        listen_host, listen_port = self.spec.listen_addr(self.name)
        self._server = await asyncio.start_server(
            self._handle_conn, listen_host, listen_port
        )
        deployment = host_deployment(self.name, self.transport)
        print("READY", flush=True)
        await self.go.wait()
        self.clock.set_epoch(self.go_t0)
        deployment.start()
        pump = asyncio.get_running_loop().create_task(
            self.rtk.run(), name=f"pump:{self.name}"
        )
        await self.stopping.wait()
        # Grace period: let in-flight frames and acks drain.
        await asyncio.sleep(0.1)
        self.rtk.stop()
        await pump
        stats = self.transport.channel_counters()
        if stats:
            summary = " ".join(
                f"{dst}:r{c['reconnects']}/cf{c['connect_failures']}"
                f"/rs{c['items_resent']}/er{c['epoch_resets']}"
                for dst, c in stats.items()
            )
            print(f"channels: {summary}", file=sys.stderr, flush=True)
        if self.torn_frames or self.proto_rejects:
            print(f"inbound: torn_frames={self.torn_frames} "
                  f"proto_rejects={self.proto_rejects}",
                  file=sys.stderr, flush=True)
        for engine in deployment.engines.values():
            # A follower process holds a fence handle until it promotes.
            if not isinstance(engine, ExecutionEngine):
                continue
            report = engine_audit_report(engine)
            if report is not None:
                print("AUDIT " + json.dumps(report, sort_keys=True),
                      flush=True)
        await self.transport.close()
        self._server.close()
        await self._server.wait_closed()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.net.server",
        description="Host one engine or replica process of a repro.net "
                    "cluster (spawned by repro.net.cluster).",
    )
    parser.add_argument("--spec", required=True,
                        help="path to the cluster spec JSON")
    parser.add_argument("--name", required=True,
                        help="process name from the spec layout, "
                             "e.g. engine-e0 or replica-e0")
    args = parser.parse_args(argv)
    spec = ClusterSpec.from_json(Path(args.spec).read_text())
    children = [name for name in plan_cluster_nodes(spec)
                if name != "coordinator"]
    if args.name not in children:
        raise SystemExit(f"{parser.prog}: no process {args.name!r} in this "
                         f"spec's layout (it has: {', '.join(children)})")
    asyncio.run(ProcessRuntime(args.name, spec).serve())
    return 0


if __name__ == "__main__":
    sys.exit(main())
