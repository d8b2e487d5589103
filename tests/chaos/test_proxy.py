"""The TCP fault proxy against a loopback echo pair."""

import asyncio
import gc
import socket
import struct
import time

from repro.chaos.proxy import FaultProxy, proxied_spec
from repro.net import codec
from repro.net.cluster import free_port, with_addresses
from repro.net.topology import ClusterSpec, plan_cluster_nodes

from tests.net.test_channel import wait_until

HELLO = codec.encode_hello("client:ab12cd34", "n")


async def start_echo():
    """An echo server standing in for a cluster process."""
    async def handle(reader, writer):
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                writer.write(data)
                await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


async def proxy_for(echo_port):
    proxy = FaultProxy()
    proxy.plan("echo", ("127.0.0.1", echo_port),
               ("127.0.0.1", free_port()))
    await proxy.start()
    return proxy


async def dial(proxy):
    """Connect through the proxy and identify as process ``client``."""
    reader, writer = await asyncio.open_connection(*proxy.fronts["echo"])
    writer.write(HELLO)
    await writer.drain()
    return reader, writer


async def read_exactly(reader, n, timeout=5.0):
    return await asyncio.wait_for(reader.readexactly(n), timeout=timeout)


def test_passthrough_preserves_bytes():
    async def scenario():
        server, port = await start_echo()
        proxy = await proxy_for(port)
        reader, writer = await dial(proxy)
        echoed = await read_exactly(reader, len(HELLO))
        writer.write(b"payload-123")
        await writer.drain()
        body = await read_exactly(reader, len(b"payload-123"))
        writer.close()
        await proxy.close()
        server.close()
        return echoed, body, dict(proxy.counters)

    echoed, body, counters = asyncio.run(scenario())
    assert echoed == HELLO
    assert body == b"payload-123"
    # The sniffed HELLO classified the directed link by process names.
    assert any(key[:2] == ("client", "echo") for key in counters)


def test_latency_delays_round_trip():
    async def scenario():
        server, port = await start_echo()
        proxy = await proxy_for(port)
        reader, writer = await dial(proxy)
        await read_exactly(reader, len(HELLO))
        proxy.set_latency("client", "echo", 0.15)
        started = time.monotonic()
        writer.write(b"x")
        await writer.drain()
        await read_exactly(reader, 1)
        elapsed = time.monotonic() - started
        writer.close()
        await proxy.close()
        server.close()
        return elapsed

    elapsed = asyncio.run(scenario())
    # One-way latency both directions: >= 2 * 0.15 on the round trip.
    assert elapsed >= 0.25


def test_throttle_bounds_bandwidth():
    async def scenario():
        server, port = await start_echo()
        proxy = await proxy_for(port)
        reader, writer = await dial(proxy)
        await read_exactly(reader, len(HELLO))
        blob = b"z" * 100_000
        proxy.set_throttle("client", "echo", 500_000)  # bytes/second
        started = time.monotonic()
        writer.write(blob)
        await writer.drain()
        await read_exactly(reader, len(blob))
        elapsed = time.monotonic() - started
        writer.close()
        await proxy.close()
        server.close()
        return elapsed

    # 100 kB each way at 500 kB/s: at least ~0.2s seconds of shaping.
    assert asyncio.run(scenario()) >= 0.2


def test_partition_blackholes_then_heal_kills_conns():
    async def scenario():
        server, port = await start_echo()
        proxy = await proxy_for(port)
        reader, writer = await dial(proxy)
        await read_exactly(reader, len(HELLO))

        proxy.partition("client", "echo")
        writer.write(b"lost")
        await writer.drain()
        stalled = False
        try:
            await read_exactly(reader, 1, timeout=0.3)
        except asyncio.TimeoutError:
            stalled = True

        # New connections hang in the handshake during the partition.
        r2, w2 = await asyncio.open_connection(*proxy.fronts["echo"])
        w2.write(HELLO)
        await w2.drain()
        new_conn_stalled = False
        try:
            await read_exactly(r2, 1, timeout=0.3)
        except asyncio.TimeoutError:
            new_conn_stalled = True

        proxy.heal_link("client", "echo")
        # The stalled connections are killed by the heal: EOF/reset.
        dead = False
        try:
            data = await asyncio.wait_for(reader.read(1), timeout=2.0)
            dead = data == b""
        except (ConnectionError, OSError, asyncio.TimeoutError):
            dead = True

        # A fresh connection works again after the heal.
        r3, w3 = await dial(proxy)
        await read_exactly(r3, len(HELLO))
        for w in (writer, w2, w3):
            w.close()
        await proxy.close()
        server.close()
        return stalled, new_conn_stalled, dead

    stalled, new_conn_stalled, dead = asyncio.run(scenario())
    assert stalled
    assert new_conn_stalled
    assert dead


def test_half_open_stalls_only_new_connections():
    async def scenario():
        server, port = await start_echo()
        proxy = await proxy_for(port)
        reader, writer = await dial(proxy)
        await read_exactly(reader, len(HELLO))

        proxy.set_half_open("client", "echo")
        # Established connection keeps working ...
        writer.write(b"still-alive")
        await writer.drain()
        alive = await read_exactly(reader, len(b"still-alive"))

        # ... but a new one is accepted and never answered.
        r2, w2 = await asyncio.open_connection(*proxy.fronts["echo"])
        w2.write(HELLO)
        await w2.drain()
        new_conn_stalled = False
        try:
            await read_exactly(r2, 1, timeout=0.3)
        except asyncio.TimeoutError:
            new_conn_stalled = True

        proxy.heal_link("client", "echo")
        r3, w3 = await dial(proxy)
        await read_exactly(r3, len(HELLO))
        for w in (writer, w2, w3):
            w.close()
        await proxy.close()
        server.close()
        return alive, new_conn_stalled

    alive, new_conn_stalled = asyncio.run(scenario())
    assert alive == b"still-alive"
    assert new_conn_stalled


def test_reset_closes_live_connections():
    async def scenario():
        server, port = await start_echo()
        proxy = await proxy_for(port)
        reader, writer = await dial(proxy)
        await read_exactly(reader, len(HELLO))
        proxy.reset("client", "echo")
        dead = False
        try:
            data = await asyncio.wait_for(reader.read(1), timeout=2.0)
            dead = data == b""
        except (ConnectionError, OSError, asyncio.TimeoutError):
            dead = True
        writer.close()
        await proxy.close()
        server.close()
        return dead, proxy.report()

    dead, report = asyncio.run(scenario())
    assert dead
    assert report["client->echo"]["resets"] == 1


def test_upstream_reset_mid_stream_leaks_no_task_exception():
    """A SIGKILLed upstream resets the reverse leg; that must end the
    pair quietly, not as "Task exception was never retrieved"."""
    async def scenario():
        async def handle(reader, writer):
            writer.write(await reader.read(65536))  # echo the HELLO
            await writer.drain()
            await reader.read(1)  # the client's cue
            writer.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            writer.transport.abort()  # RST, as the kernel does on SIGKILL

        upstream = await asyncio.start_server(handle, "127.0.0.1", 0)
        proxy = await proxy_for(upstream.sockets[0].getsockname()[1])
        recorded = []
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: recorded.append(context))
        reader, writer = await dial(proxy)
        await read_exactly(reader, len(HELLO))  # both legs are pumping
        writer.write(b"x")
        await writer.drain()
        # Either leg's death closes the pair: the client sees the end.
        assert await asyncio.wait_for(reader.read(1), timeout=5.0) == b""
        await wait_until(lambda: not proxy._conns)
        writer.close()
        await proxy.close()
        upstream.close()
        gc.collect()  # an unretrieved exception is reported at task GC
        await asyncio.sleep(0)
        return recorded

    assert asyncio.run(scenario()) == []


def test_proxied_spec_rewrites_dial_addresses_only():
    spec = with_addresses(ClusterSpec(
        engines=["e0", "e1"], replicas=1,
        workload={"readings": {"n_messages": 10,
                               "mean_interarrival_ms": 1.0}},
    ))
    run_spec, proxy = proxied_spec(spec)
    processes = list(plan_cluster_nodes(spec))
    assert sorted(proxy.fronts) == sorted(processes)
    for process in processes:
        real = tuple(spec.addresses[f"proc:{process}"][0])
        # The process still binds its real port ...
        assert run_spec.listen_addr(process) == real
        assert proxy.targets[process] == real
        # ... while everyone dials the proxy front.
        dialed = tuple(run_spec.addresses[f"proc:{process}"][0])
        assert dialed == tuple(proxy.fronts[process])
        assert dialed != real
    # Engine nodes keep both candidates, each remapped to a front.
    fronts = set(proxy.fronts.values())
    for engine in spec.engines:
        assert [tuple(a) for a in run_spec.addresses[engine]] == [
            tuple(proxy.fronts[f"engine-{engine}"]),
            tuple(proxy.fronts[f"replica-{engine}"]),
        ]
        assert all(tuple(a) in fronts
                   for a in run_spec.addresses[engine])


def test_gw_hello_classifies_client_group():
    """Gateway client connections are sniffed by their GW_HELLO: the
    client id's group prefix names the source side of the link, so one
    proxy policy covers the whole fleet."""
    gw_hello = codec.encode_gw_hello("clients:5")

    async def scenario():
        server, port = await start_echo()
        proxy = await proxy_for(port)
        reader, writer = await asyncio.open_connection(
            *proxy.fronts["echo"])
        writer.write(gw_hello)
        await writer.drain()
        echoed = await read_exactly(reader, len(gw_hello))
        proxy.reset("clients", "echo")
        dead = False
        try:
            data = await asyncio.wait_for(reader.read(1), timeout=2.0)
            dead = data == b""
        except (ConnectionError, OSError, asyncio.TimeoutError):
            dead = True
        writer.close()
        await proxy.close()
        server.close()
        return echoed, dead, dict(proxy.counters), proxy.report()

    echoed, dead, counters, report = asyncio.run(scenario())
    assert echoed == gw_hello
    # "clients:5" classified the link source as the "clients" group.
    assert any(key[:2] == ("clients", "echo") for key in counters)
    # ... so a reset aimed at the group killed this connection.
    assert dead
    assert report["clients->echo"]["resets"] == 1
