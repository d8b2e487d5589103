"""Process runtime: TCP server + simulator pump for one cluster member.

Runnable as ``python -m repro.net.server --spec cluster.json --name
engine-e0`` (the :mod:`repro.net.cluster` coordinator spawns these).
Each process binds an OS-assigned port and prints ``READY <port>``;
dials no one until the coordinator's :class:`~repro.net.codec.GoSignal`
brings the shared clock epoch and the address table; pumps its share of
the deployment (:func:`~repro.net.node.host_deployment`) until a
:class:`~repro.net.codec.Shutdown`; then waits until what it sent is
acknowledged or its peer hung up, prints its DETECTOR / AUDIT lines and
exits (``docs/net.md``, "Cluster lifecycle").

The receiving half of :class:`~repro.net.channel.OutboundChannel` only
reads frames, writes answers, dials and injects; sans-I/O code in
:mod:`repro.net.channel` decides (``docs/net.md``, "Receiving side"):
:class:`~repro.net.channel.InboundState` answers each HELLO (a
structured ``FRAME_ERROR`` for another wire version, NOT_HERE, or
WELCOME with the node's incarnation) and rules on each item — deliver
it through the pump to the node the HELLO named, hand a control message
to the ``proc:<name>`` :class:`~repro.net.node.ControlNode` at once, ack
a duplicate, or hang up because the node died, so the sender finds its
successor — and :class:`~repro.net.channel.CrashProbe` decides when the
end of a connection from an engine's host is probed and whether every
candidate refusing confirms the crash: the follower then promotes
without waiting out the heartbeat timeout.
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
from repro.net.channel import (
    CONTROL,
    DELIVER,
    HANG_UP,
    NOT_HERE,
    REJECT,
    CrashProbe,
    InboundState,
    handshake,
)
from repro.net.clock import RealtimeClock, RealtimeKernel
from repro.net.node import (
    ControlNode,
    NetTransport,
    detection_counts,
    engine_audit_report,
    host_deployment,
)
from repro.net.topology import ClusterSpec, plan_cluster_nodes
from repro.runtime.engine import ExecutionEngine
from repro.sim.kernel import Simulator


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
        self.control = ControlNode(f"proc:{name}", self._control_message)
        self.transport.register(self.control)
        #: The decisions for every inbound connection and stream.
        self._inbound = InboundState()
        self.go = asyncio.Event()
        self.go_t0: Optional[float] = None
        self.stopping = asyncio.Event()
        #: This process's share of the deployment, once hosted.
        self.deployment = None
        #: engine id -> the crash probe in flight for it.
        self._probes: Dict[str, asyncio.Task] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        #: The (host, port) :meth:`listen` bound.
        self.address: Optional[Tuple[str, int]] = None
        #: Connections that died mid-frame (truncation, not clean EOF).
        self.torn_frames = 0
        #: HELLOs rejected for a mismatched ``proto`` field.
        self.proto_rejects = 0

    # -- inbound protocol ------------------------------------------------
    async def _handle_conn(self, reader, writer) -> None:
        welcomed = None  # the peer, once its HELLO was WELCOMEd
        try:
            try:
                frame = await asyncio.wait_for(codec.read_frame(reader),
                                               timeout=10.0)
            except codec.WireVersionError as exc:
                frame = codec.FRAME_HELLO, {"proto": exc.version}
            if frame is None or frame[0] != codec.FRAME_HELLO:
                return
            hello = frame[1]
            peer = str(hello.get("peer", ""))
            dst = str(hello.get("dst", ""))
            answer, key = self._inbound.hello(
                hello.get("proto"), peer, dst,
                self.transport.live_incarnation(dst))
            if answer is REJECT:
                # Say why before hanging up, and leak no incarnation.
                self.proto_rejects += 1
                writer.write(codec.encode_error(
                    f"unsupported wire protocol {hello.get('proto')!r}; "
                    f"{self.name} speaks {codec.WIRE_VERSION}"))
            elif answer is NOT_HERE:
                writer.write(codec.encode_not_here())
            else:
                writer.write(codec.encode_welcome(key[2]))
            await writer.drain()
            if key is not None:
                welcomed = peer
                await self._item_loop(reader, writer, key)
        except codec.CodecError:
            pass  # malformed peer: hang up
        except TransportError:
            self.torn_frames += 1  # died mid-frame: a reset, not an EOF
        except (ConnectionError, OSError, asyncio.TimeoutError):
            pass
        except asyncio.CancelledError:
            # Loop teardown cancels open connection handlers: our own
            # exit, not evidence about the peer.
            welcomed = None
        finally:
            writer.close()
            if welcomed is not None:
                self._suspect(welcomed)
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _item_loop(self, reader, writer, key) -> None:
        """Perform the verdict on every item of a WELCOMEd connection
        and write one cumulative ACK per received frame."""
        inbound, transport = self._inbound, self.transport
        encoder = codec.FrameEncoder()
        peer, dst, _incarnation = key
        while True:
            frame = await codec.read_frame(reader)
            if frame is None:
                return
            tag, body = frame
            if tag != codec.FRAME_ITEM and tag != codec.FRAME_BATCH:
                continue
            for item in codec.batch_items(body):
                wire = item["msg"]
                verdict = inbound.item(key, item["seq"], wire["k"],
                                       transport.live_incarnation(dst))
                if verdict is DELIVER:
                    transport.note_item_source(item["src"], peer)
                    self.rtk.inject(partial(transport.deliver, dst,
                                            codec.decode_message(wire)))
                elif verdict is CONTROL:
                    self.control.receive(codec.decode_message(wire))
                elif verdict is HANG_UP:
                    return
            writer.write(encoder.encode_ack(inbound.ack_value(key)))
            await writer.drain()

    # -- crash confirmation ---------------------------------------------
    def _suspect(self, peer: str) -> None:
        """An item connection from ``peer`` ended: start the probes
        :meth:`CrashProbe.suspects` names."""
        if self.deployment is None:
            return
        detectors = self.deployment.detectors
        hosts = {engine_id: self.transport.host_of(engine_id)
                 for engine_id in detectors}
        for engine_id in CrashProbe.suspects(peer, hosts, self._probes,
                                             self.stopping.is_set()):
            self._probes[engine_id] = asyncio.get_running_loop(
            ).create_task(self._probe(engine_id, detectors[engine_id]),
                          name=f"crash-probe:{engine_id}")

    async def _probe(self, engine_id: str, detector) -> None:
        """Dial what a :class:`CrashProbe` names; inject its verdict."""
        probe = CrashProbe(self.spec, engine_id, detector.rank)
        try:
            dial = probe.next_dial()
            while dial is not None:
                address, pause = dial
                if pause:
                    await asyncio.sleep(pause)
                try:
                    outcome = await handshake(address, self.peer_id,
                                              engine_id,
                                              self.spec.connect_timeout_s)
                except codec.CodecError:
                    outcome = None  # garbled, but an answer
                if type(outcome) is tuple:
                    outcome[1].close()
                probe.on_dial(outcome)
                dial = probe.next_dial()
            if probe.confirms(self.stopping.is_set()):
                self.rtk.inject(detector.confirm_crash)
        finally:
            del self._probes[engine_id]

    def _control_message(self, msg) -> None:
        """The control node's ``receive``: act at once, not through the
        pump, which runs only between GO and Shutdown; a fence silences
        its engine *now*."""
        if type(msg) is codec.GoSignal:
            self.go_t0 = msg.t0
            self.spec.addresses = msg.addresses
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
    async def listen(self) -> Tuple[str, int]:
        """Bind the server socket to an OS-assigned localhost port; the
        (host, port) it bound."""
        self._server = await asyncio.start_server(self._handle_conn,
                                                  "127.0.0.1", 0)
        self.address = self._server.sockets[0].getsockname()[:2]
        return self.address

    async def close(self) -> None:
        """Close every outbound channel and the listener, if bound."""
        await self.transport.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    async def serve(self) -> None:
        """Run the full process lifecycle (returns after Shutdown)."""
        _host, port = await self.listen()
        deployment = self.deployment = host_deployment(self.name,
                                                       self.transport)
        print(f"READY {port}", flush=True)
        await self.go.wait()
        self.clock.set_epoch(self.go_t0)
        deployment.start()
        pump = asyncio.get_running_loop().create_task(
            self.rtk.run(), name=f"pump:{self.name}"
        )
        await self.stopping.wait()
        # No new items once the pump stops; the ones already sent are
        # waited for until acknowledged (or their peer hangs up).
        self.rtk.stop()
        await pump
        await self.transport.flushed(self.spec.connect_timeout_s)
        for probe in list(self._probes.values()):
            probe.cancel()
        self.transport.export_metrics()  # reports unacknowledged fences
        stats = self.transport.channel_counters()
        detection = detection_counts(deployment)
        if stats:
            summary = " ".join(
                f"{dst}:r{c['reconnects']}/cf{c['connect_failures']}"
                f"/rs{c['items_resent']}/er{c['epoch_resets']}"
                for dst, c in stats.items())
            print(f"channels: {summary}", file=sys.stderr, flush=True)
        if detection:
            print("DETECTOR " + json.dumps(detection, sort_keys=True),
                  flush=True)
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
        await self.close()


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
