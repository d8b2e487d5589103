"""Crash-confirmed failover on real localhost sockets, one event loop.

A follower process (:class:`~repro.net.server.ProcessRuntime` with its
hosted share) sees an item connection from the engine's host end, dials
the engine's candidate hosts, and promotes at once only when every one
refuses; anything that still answers leaves the heartbeat timeout in
charge (set far beyond each test here, so any promotion is the crash
path's).
"""

import asyncio
import socket
import time

from repro.chaos.proxy import FaultProxy
from repro.net import codec
from repro.net.channel import CRASH_PROBE_TRIES
from repro.net.node import host_deployment
from repro.net.server import ProcessRuntime
from repro.net.topology import (
    assign_addresses,
    pipeline_spec,
    plan_cluster_nodes,
)
from repro.runtime.detector import Heartbeat
from repro.runtime.engine import ExecutionEngine

from tests.net.test_channel import wait_until

ENGINE_PEER = "engine-e0:feed"


def refused_address():
    """A localhost address nothing listens on."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()


async def listen(handler):
    server = await asyncio.start_server(handler, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[:2]


class Follower:
    """A follower process's runtime, share and pump, on this loop.

    ``at`` maps process names to listen addresses; the follower's own
    and every unnamed process get an address nothing listens on (the
    follower's server is reached by port, not by the spec).
    """

    def __init__(self, name="replica-e0", replicas=1, at=None):
        self.spec = pipeline_spec(
            engines=2, replicas=replicas, heartbeat_interval_ms=1e6,
            connect_timeout_s=0.5,
            backoff_max_s=0.05)
        ports = {process: (at or {}).get(process) or refused_address()
                 for process in plan_cluster_nodes(self.spec)}
        assign_addresses(self.spec, ports)
        self.runtime = ProcessRuntime(name, self.spec)
        self.runtime.deployment = host_deployment(name,
                                                  self.runtime.transport)
        self.deployment = self.runtime.deployment
        self.detector = self.deployment.detectors["e0"]

    async def __aenter__(self):
        self.server, (_host, self.port) = await listen(
            self.runtime._handle_conn)
        self.runtime.clock.set_epoch(time.time())
        self.deployment.start()
        self.pump = asyncio.get_running_loop().create_task(
            self.runtime.rtk.run())
        return self

    async def __aexit__(self, *exc):
        self.runtime.rtk.stop()
        await self.pump
        for probe in list(self.runtime._probes.values()):
            probe.cancel()
        await self.runtime.transport.close()
        self.server.close()
        await self.server.wait_closed()

    async def connection_ends(self, peer=ENGINE_PEER, beat=True):
        """A connection from ``peer`` for our replica node that (with
        ``beat``) carries one heartbeat from ``e0``, then ends."""
        reader, writer = await asyncio.open_connection("127.0.0.1",
                                                       self.port)
        writer.write(codec.encode_hello(peer, self.replica_node))
        await writer.drain()
        assert (await codec.read_frame(reader))[0] == codec.FRAME_WELCOME
        if beat:
            writer.write(codec.encode_item(0, "e0", Heartbeat("e0", 0)))
            await writer.drain()
            assert (await codec.read_frame(reader))[0] == codec.FRAME_ACK
            assert self.runtime.transport.host_of("e0") == peer
        writer.close()
        await writer.wait_closed()

    @property
    def replica_node(self):
        return next(r.node_id for r in self.deployment.followers["e0"])

    def promotions(self):
        return self.deployment.recovery.failover_count("e0")

    async def settle(self):
        """Let the server see the end, every probe in flight finish and
        the pump run after it."""
        await asyncio.sleep(0.05)
        await wait_until(lambda: not self.runtime._probes)
        await asyncio.sleep(0.05)


async def answering_primary():
    """A live primary: hosts ``e0`` and answers HELLO with WELCOME."""
    primary = ProcessRuntime("engine-e0", pipeline_spec(engines=2))

    class Engine:
        node_id, alive = "e0", True

        def receive(self, item):
            pass

    primary.transport.register(Engine())
    hellos = []

    async def handler(reader, writer):
        hellos.append(1)
        await primary._handle_conn(reader, writer)

    server, address = await listen(handler)
    return server, address, hellos


async def dropping_listener(accepted, drop, listens_for, on_accept=()):
    """A listener that takes each connection down unanswered (``drop``:
    ``"reset"`` or ``"eof"``) and stops listening after ``listens_for``
    accepts (None: never) — a dying process, or a proxy front whose
    upstream is gone.  Calls each of ``on_accept`` at every accept."""
    async def handler(reader, writer):
        accepted.append(1)
        for hook in on_accept:
            hook()
        if drop == "reset":
            writer.transport.abort()
        else:
            writer.close()
        if len(accepted) == listens_for:
            server.close()

    server, address = await listen(handler)
    return server, address


def test_refused_primary_promotes_exactly_once():
    async def scenario():
        async with Follower() as follower:
            await follower.connection_ends()
            await wait_until(lambda: follower.promotions() == 1)
            await follower.settle()
            promoted = follower.deployment.engines["e0"]
            # A late second EOF from the dead host: probed, refused
            # again, but the engine is hosted here now.
            confirmed = []
            real = follower.detector.confirm_crash
            follower.detector.confirm_crash = lambda: (confirmed.append(1),
                                                       real())
            await follower.connection_ends(beat=False)
            await follower.settle()
            return follower, promoted, confirmed

    follower, promoted, confirmed = asyncio.run(scenario())
    detector = follower.detector
    assert follower.promotions() == 1
    assert (detector.crash_confirmed, detector.timeouts) == (1, 0)
    assert confirmed == [1]
    assert isinstance(promoted, ExecutionEngine)
    assert promoted.alive and follower.deployment.engines["e0"] is promoted


def test_stopping_probes_and_promotes_nothing():
    """After a Shutdown, connection ends are our own teardown: no probe
    is dialled; and a Shutdown arriving while a probe is in flight
    stops its verdict from being injected."""
    for shutdown in ("before the end", "during the probe"):
        accepted, on_accept = [], []

        async def scenario():
            server, address = await dropping_listener(accepted, "eof", 1,
                                                      on_accept)
            try:
                async with Follower(at={"engine-e0": address}) as follower:
                    stopping = follower.runtime.stopping
                    if shutdown == "before the end":
                        stopping.set()
                    else:
                        on_accept.append(stopping.set)
                    await follower.connection_ends()
                    await follower.settle()
                    return follower
            finally:
                server.close()
                await server.wait_closed()

        follower = asyncio.run(scenario())
        assert accepted == ([] if shutdown == "before the end" else [1])
        assert follower.promotions() == 0, shutdown
        assert follower.detector.detections == 0, shutdown


def test_answering_primary_promotes_nothing():
    async def scenario():
        server, address, hellos = await answering_primary()
        try:
            async with Follower(at={"engine-e0": address}) as follower:
                await follower.connection_ends()
                await wait_until(lambda: hellos)
                await follower.settle()
                return follower, hellos
        finally:
            server.close()
            await server.wait_closed()

    follower, hellos = asyncio.run(scenario())
    assert hellos == [1]  # one probe, answered WELCOME
    assert follower.promotions() == 0
    assert follower.detector.detections == 0


def test_rank_one_waits_for_rank_zero_to_refuse():
    async def scenario():
        # Rank 0's process, alive and not yet promoted: NOT_HERE.
        rank0 = ProcessRuntime("replica-e0", pipeline_spec(engines=2))
        server, address = await listen(rank0._handle_conn)
        async with Follower("replica-e0.1", replicas=2,
                            at={"replica-e0": address}) as follower:
            assert follower.detector.rank == 1
            await follower.connection_ends()
            await follower.settle()
            before = follower.promotions()
            # Rank 0 promoted (its traffic now comes as e0), then died.
            server.close()
            await server.wait_closed()
            await follower.connection_ends(peer="replica-e0:beef")
            await wait_until(lambda: follower.promotions() == 1)
            return follower, before

    follower, before = asyncio.run(scenario())
    assert before == 0
    assert follower.promotions() == 1
    assert follower.detector.crash_confirmed == 1


def test_accept_then_drop_is_retried_then_confirmed():
    for drop in ("reset", "eof"):
        accepted = []

        async def scenario():
            server, address = await dropping_listener(accepted, drop, 2)
            async with Follower(at={"engine-e0": address}) as follower:
                await follower.connection_ends()
                await wait_until(lambda: follower.promotions() == 1)
                return follower

        follower = asyncio.run(scenario())
        # Neither drop was read as a refusal nor as a live answer: the
        # probe dialled again until the listener was gone.
        assert len(accepted) == 2, drop
        assert follower.detector.crash_confirmed == 1, drop


def test_front_that_always_drops_leaves_the_timeout_in_charge():
    accepted = []

    async def scenario():
        server, address = await dropping_listener(accepted, "eof", None)
        try:
            async with Follower(at={"engine-e0": address}) as follower:
                await follower.connection_ends()
                await wait_until(lambda: accepted)
                await follower.settle()
                return follower
        finally:
            server.close()
            await server.wait_closed()

    follower = asyncio.run(scenario())
    assert len(accepted) == CRASH_PROBE_TRIES
    assert follower.promotions() == 0


def test_proxy_front_of_a_dead_process_confirms_the_crash():
    """A chaos link's front accepts for a dead upstream once, fails to
    reach it and stops listening: the probe's redial is refused."""
    async def scenario():
        proxy = FaultProxy()
        front = await proxy.front("engine-e0", refused_address())
        try:
            async with Follower(at={"engine-e0": front}) as follower:
                await follower.connection_ends()
                await wait_until(lambda: follower.promotions() == 1)
                return follower
        finally:
            await proxy.close()

    follower = asyncio.run(scenario())
    assert follower.detector.crash_confirmed == 1
    assert follower.detector.timeouts == 0


def test_silent_front_leaves_the_timeout_in_charge():
    """A listener that accepts and never answers (a stopped process, a
    blackholed link) may be alive: the probe times out, nothing is
    promoted."""
    accepted = []

    async def scenario():
        async def silent(reader, writer):
            accepted.append(1)
            await reader.read()  # holds the connection until the dialler quits
            writer.close()

        server, address = await listen(silent)
        try:
            async with Follower(at={"engine-e0": address}) as follower:
                await follower.connection_ends()
                await wait_until(lambda: accepted)
                await follower.settle()
                return follower
        finally:
            server.close()
            await server.wait_closed()

    follower = asyncio.run(scenario())
    assert accepted == [1]  # one connect, one handshake timeout
    assert follower.promotions() == 0
