"""TCP fault proxy: every inter-process link, interposable.

One :class:`FaultProxy` fronts a whole cluster.  For each process it
opens a listener on a fresh port and forwards accepted connections to
the process's real listen address; :func:`proxied_spec` rewrites a
:class:`~repro.net.topology.ClusterSpec` so every *dialed* address is a
proxy port while every process still *binds* its real port (the spec's
``listen`` overrides).  No repro.net code changes behaviour — the
cluster genuinely cannot tell a proxied link from a direct one until a
fault fires.

The proxy classifies each connection by **directed link** — (source
process, destination process) — by sniffing the first frame: every
repro.net connection opens with a HELLO frame whose ``peer`` field is
``<process name>:<uuid>``.  The sniffed bytes are forwarded verbatim, so
the handshake is untouched.

Faults are per-directed-link :class:`LinkPolicy` state:

* ``delay_s`` — added one-way latency (each forwarded chunk waits);
* ``rate_bps`` — bandwidth cap (token-bucket-ish sleep per chunk);
* ``blackholed`` — partition: established connections stall (bytes stop
  flowing, TCP backpressure does the rest) and new handshakes hang;
  healing kills the stalled connections so both ends re-handshake and
  the channel protocol's retransmission + dedup takes over;
* ``half_open`` — only *new* connections hang (accept-then-stall),
  established ones keep flowing — the classic "SYN works, nothing else
  does" failure;
* :meth:`FaultProxy.reset` — one-shot hard close of the link's live
  connections.

Nothing here is seeded: the proxy is a dumb actuator.  All randomness
(which faults, when, where) lives in the seeded schedule, which is what
makes a chaos run reproducible.
"""

from __future__ import annotations

import asyncio
import struct
from typing import Dict, List, Optional, Tuple

from repro.net import codec
from repro.net.topology import ClusterSpec, plan_cluster_nodes

_LEN = struct.Struct(">I")

#: Forwarding chunk size.  Small enough that latency/throttle shaping
#: has sub-frame granularity, large enough to not throttle throughput.
_CHUNK = 65536

#: How long a sniffer waits for the first frame before treating the
#: connection as unclassifiable (it is then forwarded on the wildcard
#: policy; repro.net always sends HELLO immediately, so this only
#: triggers for foreign connections).
_SNIFF_TIMEOUT_S = 5.0


class LinkPolicy:
    """Mutable fault state of one directed link."""

    def __init__(self):
        self.delay_s: float = 0.0
        self.rate_bps: Optional[float] = None
        self.blackholed: bool = False
        self.half_open: bool = False

    def clear(self) -> None:
        self.delay_s = 0.0
        self.rate_bps = None
        self.blackholed = False
        self.half_open = False

    def impaired(self) -> bool:
        return bool(self.delay_s or self.rate_bps or self.blackholed
                    or self.half_open)


class _ProxyConn:
    """One accepted connection being forwarded (or stalled)."""

    def __init__(self, proxy: "FaultProxy", dst_proc: str,
                 client_reader, client_writer, target: Tuple[str, int]):
        self.proxy = proxy
        self.dst_proc = dst_proc
        self.src_proc = "?"
        self.client_reader = client_reader
        self.client_writer = client_writer
        self.target = target
        self.tasks: List[asyncio.Task] = []
        self._upstream_writer = None

    # -- life ------------------------------------------------------------
    async def run(self) -> None:
        try:
            sniffed = await self._sniff()
            policy = self.proxy.policy(self.src_proc, self.dst_proc)
            if policy.blackholed or policy.half_open:
                # Accept-then-stall: the dialer's handshake timeout is
                # what turns this into a retry, exactly like a SYN that
                # vanished into a partitioned network.
                self.proxy.count(self.src_proc, self.dst_proc, "stalled")
                await self._stall()
                return
            reader, writer = await asyncio.open_connection(*self.target)
            self._upstream_writer = writer
            writer.write(sniffed)
            await writer.drain()
            self.tasks = [
                asyncio.create_task(self._pump(reader, self.client_writer,
                                               self.dst_proc, self.src_proc)),
                asyncio.create_task(self._pump(self.client_reader, writer,
                                               self.src_proc, self.dst_proc)),
            ]
            # Either leg ending — EOF, reset, or a kill — ends the pair.
            done, _ = await asyncio.wait(
                self.tasks, return_when=asyncio.FIRST_COMPLETED)
            for leg in done:
                leg.result()
        except (ConnectionError, OSError, asyncio.TimeoutError,
                asyncio.IncompleteReadError, codec.CodecError):
            pass
        except asyncio.CancelledError:
            pass
        finally:
            self.close()
            self.proxy._conns.discard(self)

    async def _sniff(self) -> bytes:
        """Read exactly the first frame; classify; return its raw bytes."""
        try:
            header = await asyncio.wait_for(
                self.client_reader.readexactly(_LEN.size),
                timeout=_SNIFF_TIMEOUT_S,
            )
            (length,) = _LEN.unpack(header)
            if length > codec.MAX_FRAME_BYTES:
                raise codec.CodecError(f"frame too large: {length}")
            payload = await asyncio.wait_for(
                self.client_reader.readexactly(length),
                timeout=_SNIFF_TIMEOUT_S,
            )
        except asyncio.TimeoutError:
            return b""
        tag, body = codec.decode_frame_payload(payload)
        if tag == codec.FRAME_HELLO:
            peer = str(body.get("peer", ""))
            self.src_proc = peer.rsplit(":", 1)[0] or "?"
        elif tag == codec.FRAME_GW_HELLO:
            # Gateway client connections open with GW_HELLO; client ids
            # are "<group>:<n>", so the group ("clients") names the
            # source side of the link — one policy covers the fleet.
            client = str(body.get("client", ""))
            self.src_proc = client.rsplit(":", 1)[0] or "?"
        return header + payload

    async def _stall(self) -> None:
        """Hold the connection open, forward nothing, until killed."""
        await asyncio.Event().wait()

    async def _pump(self, reader, writer, src: str, dst: str) -> None:
        try:
            while True:
                data = await reader.read(_CHUNK)
                if not data:
                    break
                policy = self.proxy.policy(src, dst)
                if policy.blackholed:
                    # Partition fired mid-connection: stop forwarding.
                    # The unread socket fills, TCP flow control pushes
                    # back on the sender, and healing kills this
                    # connection.
                    self.proxy.count(src, dst, "stalled")
                    await self._stall()
                if policy.delay_s > 0:
                    await asyncio.sleep(policy.delay_s)
                if policy.rate_bps:
                    await asyncio.sleep(len(data) / policy.rate_bps)
                writer.write(data)
                await writer.drain()
                self.proxy.count(src, dst, "bytes", len(data))
        except (ConnectionError, OSError):
            pass  # a reset ends the leg as an EOF does

    def on_link(self, a: str, b: str) -> bool:
        return {self.src_proc, self.dst_proc} & {a, b} == {a, b} or (
            self.src_proc in (a, b) and self.dst_proc in (a, b)
        )

    def close(self) -> None:
        for task in self.tasks:
            if not task.done():
                task.cancel()
        for writer in (self.client_writer, self._upstream_writer):
            if writer is not None:
                try:
                    writer.close()
                except Exception:  # noqa: BLE001 - teardown best effort
                    pass


class FaultProxy:
    """All proxy listeners and link policies for one cluster."""

    def __init__(self):
        #: process name -> (real host, real port) forward target.
        self.targets: Dict[str, Tuple[str, int]] = {}
        #: process name -> (proxy host, proxy port).
        self.fronts: Dict[str, Tuple[str, int]] = {}
        self._servers: List[asyncio.AbstractServer] = []
        self._policies: Dict[Tuple[str, str], LinkPolicy] = {}
        self._conns: set = set()
        #: (src, dst, counter) -> value; the proxy's own diagnostics.
        self.counters: Dict[Tuple[str, str, str], int] = {}

    # -- wiring ----------------------------------------------------------
    def plan(self, process: str, target: Tuple[str, int],
             front: Tuple[str, int]) -> None:
        """Declare one process's real address and its proxy front."""
        self.targets[process] = tuple(target)
        self.fronts[process] = tuple(front)

    async def start(self) -> None:
        """Bind every planned front (call inside the event loop)."""
        for process, (host, port) in self.fronts.items():
            server = await asyncio.start_server(
                self._make_handler(process), host, port
            )
            self._servers.append(server)

    def _make_handler(self, process: str):
        async def handle(reader, writer):
            conn = _ProxyConn(self, process, reader, writer,
                              self.targets[process])
            self._conns.add(conn)
            await conn.run()
        return handle

    async def close(self) -> None:
        for conn in list(self._conns):
            conn.close()
        self._conns.clear()
        for server in self._servers:
            server.close()
            await server.wait_closed()
        self._servers.clear()

    # -- policy plane ----------------------------------------------------
    def policy(self, src: str, dst: str) -> LinkPolicy:
        """The directed-link policy (created on first touch)."""
        key = (src, dst)
        policy = self._policies.get(key)
        if policy is None:
            policy = self._policies[key] = LinkPolicy()
        return policy

    def count(self, src: str, dst: str, name: str, n: int = 1) -> None:
        key = (src, dst, name)
        self.counters[key] = self.counters.get(key, 0) + n

    def _kill_link_conns(self, a: str, b: str) -> None:
        for conn in list(self._conns):
            if conn.src_proc in (a, b) and conn.dst_proc in (a, b):
                conn.close()
                self._conns.discard(conn)

    def partition(self, a: str, b: str) -> None:
        """Blackhole both directions of the a<->b link."""
        self.policy(a, b).blackholed = True
        self.policy(b, a).blackholed = True
        self.count(a, b, "partitions")

    def heal_link(self, a: str, b: str) -> None:
        """Clear a<->b faults; stalled connections die so both ends
        re-handshake cleanly (retransmission recovers the traffic)."""
        self.policy(a, b).clear()
        self.policy(b, a).clear()
        self._kill_link_conns(a, b)

    def heal_all(self) -> None:
        """Clear every fault on every link."""
        stalled = [key for key, policy in self._policies.items()
                   if policy.blackholed or policy.half_open]
        for policy in self._policies.values():
            policy.clear()
        for a, b in stalled:
            self._kill_link_conns(a, b)

    def set_latency(self, a: str, b: str, delay_s: float) -> None:
        self.policy(a, b).delay_s = float(delay_s)
        self.policy(b, a).delay_s = float(delay_s)

    def set_throttle(self, a: str, b: str, rate_bps: float) -> None:
        self.policy(a, b).rate_bps = float(rate_bps)
        self.policy(b, a).rate_bps = float(rate_bps)

    def set_half_open(self, a: str, b: str, on: bool = True) -> None:
        self.policy(a, b).half_open = bool(on)
        self.policy(b, a).half_open = bool(on)

    def reset(self, a: str, b: str) -> None:
        """Hard-close the link's live connections once."""
        self.count(a, b, "resets")
        self._kill_link_conns(a, b)

    # -- reporting -------------------------------------------------------
    def report(self) -> Dict[str, Dict[str, int]]:
        """``"src->dst" -> {counter: value}`` (stable keys, diffable)."""
        out: Dict[str, Dict[str, int]] = {}
        for (src, dst, name), value in sorted(self.counters.items()):
            out.setdefault(f"{src}->{dst}", {})[name] = value
        return out


def proxied_spec(spec: ClusterSpec,
                 port_of=None) -> Tuple[ClusterSpec, FaultProxy]:
    """Front every address of ``spec`` with a fault proxy.

    ``spec`` must already carry real addresses (see
    ``repro.net.cluster.with_addresses``).  Returns a deep-copied spec in
    which every dialed address is a proxy front and each process binds
    its real port via ``spec.listen``, plus the planned (not yet
    started) :class:`FaultProxy`.  ``port_of`` is injectable for tests;
    it defaults to OS-assigned free ports.
    """
    if port_of is None:
        from repro.net.cluster import free_port

        def port_of(_process):
            return ("127.0.0.1", free_port())

    run_spec = ClusterSpec.from_json(spec.to_json())
    proxy = FaultProxy()
    mapping: Dict[Tuple[str, int], Tuple[str, int]] = {}
    for process in plan_cluster_nodes(run_spec):
        real = tuple(run_spec.addresses[f"proc:{process}"][0])
        front = tuple(port_of(process))
        proxy.plan(process, real, front)
        mapping[real] = front
        run_spec.listen[process] = real
    run_spec.addresses = {
        node: [mapping.get(tuple(addr), tuple(addr)) for addr in addrs]
        for node, addrs in run_spec.addresses.items()
    }
    return run_spec, proxy
