"""Inbound protocol of :class:`~repro.net.server.ProcessRuntime`:
version negotiation, batch delivery, ack coalescing, torn frames."""

import asyncio
import json
import socket
import sys
import time

import pytest

from repro.core.message import SilenceAdvance
from repro.net import codec
from repro.net.channel import OutboundChannel
from repro.net.server import ProcessRuntime, main
from repro.net.topology import ClusterSpec

from tests.net.test_channel import wait_until


class StubNode:
    """Minimal hosted destination (alive, swallows deliveries)."""

    def __init__(self, node_id="sink"):
        self.node_id = node_id
        self.alive = True
        self.received = []

    def receive(self, item):
        self.received.append(item)


async def _serve(runtime):
    server = await asyncio.start_server(
        runtime._handle_conn, "127.0.0.1", 0
    )
    return server, server.sockets[0].getsockname()[1]


def test_wrong_proto_hello_gets_structured_error():
    async def scenario():
        runtime = ProcessRuntime("engine-e0", ClusterSpec())
        server, port = await _serve(runtime)
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(codec.encode_hello("old-peer", "sink", proto=99))
        await writer.drain()
        frame = await codec.read_frame(reader)
        eof = await codec.read_frame(reader)  # server hangs up after it
        writer.close()
        server.close()
        await server.wait_closed()
        return runtime, frame, eof

    runtime, frame, eof = asyncio.run(scenario())
    assert frame is not None
    tag, body = frame
    assert tag == codec.FRAME_ERROR
    assert "unsupported wire protocol 99" in body["error"]
    assert body["proto"] == codec.WIRE_VERSION
    assert eof is None  # rejected before any WELCOME leaked
    assert runtime.proto_rejects == 1


def test_channel_parks_on_proto_reject(monkeypatch):
    """A channel speaking another wire version is rejected once and
    parks instead of hammering the host with doomed handshakes."""
    real_hello = codec.encode_hello
    monkeypatch.setattr(
        codec, "encode_hello",
        lambda peer, dst, proto=codec.WIRE_VERSION: real_hello(
            peer, dst, proto=99),
    )

    async def scenario():
        runtime = ProcessRuntime("engine-e0", ClusterSpec())
        server, port = await _serve(runtime)
        channel = OutboundChannel("sender:1", "sink",
                                  [("127.0.0.1", port)])
        channel.start()
        channel.enqueue("src", SilenceAdvance(wire_id=1, through_vt=0))
        await wait_until(lambda: channel.last_error is not None)
        await asyncio.sleep(0.05)  # would-be retry window
        hellos = runtime.proto_rejects
        await channel.close()
        server.close()
        await server.wait_closed()
        return runtime, channel, hellos

    runtime, channel, hellos = asyncio.run(scenario())
    assert isinstance(channel.last_error, codec.CodecError)
    assert "rejected handshake" in str(channel.last_error)
    assert channel.proto_rejects == 1
    assert hellos == 1  # parked: no reconnect storm after the reject
    assert channel.counters()["items_acked"] == 0


def test_batch_frame_delivers_items_with_one_ack():
    async def scenario():
        runtime = ProcessRuntime("engine-e0", ClusterSpec())
        sink = StubNode()
        runtime.transport.register(sink)
        server, port = await _serve(runtime)
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(codec.encode_hello("peer-x", "sink"))
        await writer.drain()
        welcome = await codec.read_frame(reader)
        encoder = codec.FrameEncoder()
        bodies = [codec.item_body(i, "src", "sink",
                                  SilenceAdvance(wire_id=1, through_vt=i))
                  for i in range(3)]
        writer.write(encoder.encode_batch(bodies))
        await writer.drain()
        ack = await codec.read_frame(reader)
        # A duplicate singleton replay of seq 1 is deduplicated but
        # still acked (cumulative, one ack per frame).
        writer.write(codec.encode_item(
            1, "src", SilenceAdvance(wire_id=1, through_vt=1)))
        await writer.drain()
        ack2 = await codec.read_frame(reader)
        writer.close()
        server.close()
        await server.wait_closed()
        return runtime, welcome, ack, ack2

    runtime, welcome, ack, ack2 = asyncio.run(scenario())
    assert welcome[0] == codec.FRAME_WELCOME
    assert ack == (codec.FRAME_ACK, {"upto": 3})  # one ack for 3 items
    assert ack2 == (codec.FRAME_ACK, {"upto": 3})  # duplicate: no regress
    key = ("peer-x", "sink", runtime.transport.incarnations["sink"])
    assert runtime._inbound.expected[key] == 3


def test_torn_item_frame_counts_as_reset_not_eof():
    async def scenario():
        runtime = ProcessRuntime("engine-e0", ClusterSpec())
        sink = StubNode()
        runtime.transport.register(sink)
        server, port = await _serve(runtime)
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(codec.encode_hello("peer-x", "sink"))
        await writer.drain()
        assert (await codec.read_frame(reader))[0] == codec.FRAME_WELCOME
        raw = codec.encode_item(
            0, "src", SilenceAdvance(wire_id=1, through_vt=0))
        writer.write(raw[: len(raw) - 2])  # header + partial payload
        await writer.drain()
        writer.close()
        await wait_until(lambda: runtime.torn_frames == 1)
        server.close()
        await server.wait_closed()
        return runtime

    runtime = asyncio.run(scenario())
    assert runtime.torn_frames == 1
    assert runtime.proto_rejects == 0


def _v1_frame(frame_tag, body):
    """A frame as wire version 1 wrote it: every body canonical JSON."""
    payload = bytes([1, frame_tag]) + json.dumps(
        body, sort_keys=True, separators=(",", ":")).encode()
    return len(payload).to_bytes(4, "big") + payload


async def _handshaken(port, dst):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(codec.encode_hello("peer-x", dst))
    await writer.drain()
    assert (await codec.read_frame(reader))[0] == codec.FRAME_WELCOME
    return reader, writer


def test_v1_hello_gets_structured_error():
    """A peer still on wire version 1 is told so, not just hung up on."""
    async def scenario():
        runtime = ProcessRuntime("engine-e0", ClusterSpec())
        runtime.transport.register(StubNode())
        server, port = await _serve(runtime)
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(_v1_frame(codec.FRAME_HELLO, {
            "peer": "old-peer", "dst": "sink", "proto": 1}))
        await writer.drain()
        frame = await codec.read_frame(reader)
        eof = await codec.read_frame(reader)
        writer.close()
        server.close()
        await server.wait_closed()
        return runtime, frame, eof

    runtime, frame, eof = asyncio.run(scenario())
    assert frame is not None
    tag, body = frame
    assert tag == codec.FRAME_ERROR
    assert "unsupported wire protocol 1" in body["error"]
    assert body["proto"] == codec.WIRE_VERSION == 3
    assert eof is None  # no WELCOME, no incarnation leaked
    assert runtime.proto_rejects == 1


def test_items_reach_only_the_handshaken_node():
    """Two nodes hosted, HELLO for one: nothing a peer can put on that
    connection is delivered to the other (a v1 item named its own
    ``dst``, and the server looked it up per item)."""
    async def scenario():
        runtime = ProcessRuntime("engine-e0", ClusterSpec())
        chosen, other = StubNode("chosen"), StubNode("other")
        runtime.transport.register(chosen)
        runtime.transport.register(other)
        server, port = await _serve(runtime)
        pump = asyncio.get_running_loop().create_task(runtime.rtk.run())
        runtime.clock.set_epoch(time.time())
        reader, writer = await _handshaken(port, "chosen")
        writer.write(codec.FrameEncoder().encode_batch([
            codec.item_body(i, "src", "other",
                            SilenceAdvance(wire_id=1, through_vt=i))
            for i in range(2)]))
        writer.write(codec.encode_item(
            2, "other", SilenceAdvance(wire_id=1, through_vt=2)))
        await writer.drain()
        await wait_until(lambda: len(chosen.received) == 3)
        # The v1 form of "deliver this to the other node" is no longer
        # a frame at all: the connection is dropped.
        writer.write(_v1_frame(codec.FRAME_ITEM, {
            "seq": 3, "src": "src", "dst": "other",
            "msg": {"k": 4, "f": {"wire_id": 1, "through_vt": 3}}}))
        await writer.drain()
        while await codec.read_frame(reader) is not None:
            pass  # drain the acks up to the hang-up
        writer.close()
        runtime.rtk.stop()
        await pump
        server.close()
        await server.wait_closed()
        return runtime, chosen, other

    runtime, chosen, other = asyncio.run(scenario())
    assert [m.through_vt for m in chosen.received] == [0, 1, 2]
    assert other.received == []
    assert list(runtime._inbound.expected) == [
        ("peer-x", "chosen", runtime.transport.incarnations["chosen"])]


def test_fence_inside_a_batch_stops_the_items_behind_it():
    class Engine(StubNode):
        def halt(self):
            self.alive = False

    async def scenario():
        runtime = ProcessRuntime("engine-e0", ClusterSpec())
        engine = Engine("e0")
        runtime.transport.register(engine)
        server, port = await _serve(runtime)
        reader, writer = await _handshaken(port, "e0")
        messages = [SilenceAdvance(wire_id=1, through_vt=0),
                    codec.FenceRequest("e0"),
                    SilenceAdvance(wire_id=1, through_vt=2)]
        writer.write(codec.FrameEncoder().encode_batch([
            codec.item_body(i, "src", "e0", m)
            for i, m in enumerate(messages)]))
        await writer.drain()
        closed = await codec.read_frame(reader)  # hung up, never acked
        writer.close()
        server.close()
        await server.wait_closed()
        return runtime, engine, closed

    runtime, engine, closed = asyncio.run(scenario())
    assert closed is None
    assert not engine.alive
    key = ("peer-x", "e0", runtime.transport.incarnations["e0"])
    assert runtime._inbound.expected[key] == 2  # the third item was refused


def test_garbage_item_frame_hangs_up_without_crashing_the_handler():
    async def scenario():
        runtime = ProcessRuntime("engine-e0", ClusterSpec())
        runtime.transport.register(StubNode())
        server, port = await _serve(runtime)
        reader, writer = await _handshaken(port, "sink")
        payload = bytes([codec.WIRE_VERSION, codec.FRAME_BATCH]) + b"\xff" * 9
        writer.write(len(payload).to_bytes(4, "big") + payload)
        await writer.drain()
        closed = await codec.read_frame(reader)
        writer.close()
        server.close()
        await server.wait_closed()
        return runtime, closed

    runtime, closed = asyncio.run(scenario())
    assert closed is None
    assert runtime.torn_frames == 0  # malformed, not torn


@pytest.mark.parametrize("name", ["engine-nope", "replica-e0.7", "replica-e9",
                                  "coordinator", "e0"])
def test_unknown_process_name_exits_naming_the_valid_ones(name, tmp_path):
    """The layout table is the role: a name outside it is refused in one
    line, before any socket is bound (this spec has no addresses)."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(ClusterSpec().to_json())
    with pytest.raises(SystemExit) as exit_info:
        main(["--spec", str(spec_path), "--name", name])
    message = str(exit_info.value.code)
    assert "\n" not in message and repr(name) in message
    assert "engine-e0, replica-e0, engine-e1, replica-e1" in message


def _refused_port():
    """A localhost port with nothing listening on it."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_redirect_ends_the_reconnect_backoff():
    """A redirect names where the node went; the channel must not sleep
    out a backoff that predates that news (at 2 s it would take >= 1 s)."""
    async def scenario():
        runtime = ProcessRuntime("replica-e0", ClusterSpec())
        runtime.transport.register(StubNode("e0"))
        server, port = await _serve(runtime)
        channel = OutboundChannel(
            "sender:1", "e0",
            [("127.0.0.1", _refused_port()), ("127.0.0.1", port)],
            backoff_min=2.0, backoff_max=2.0)
        channel.start()
        await wait_until(lambda: channel.connect_failures == 1)  # asleep
        started = time.monotonic()
        channel.redirect(runtime.peer_id)
        await wait_until(lambda: channel.connected, timeout=3.0)
        elapsed = time.monotonic() - started
        await channel.close()
        server.close()
        await server.wait_closed()
        return channel, elapsed

    channel, elapsed = asyncio.run(scenario())
    assert elapsed < 0.3, elapsed
    assert channel.connect_failures == 1


def test_enqueue_and_reset_do_not_end_the_backoff():
    """A parked channel must not redial once per message."""
    async def scenario():
        channel = OutboundChannel(
            "sender:1", "e0", [("127.0.0.1", _refused_port())],
            backoff_min=2.0, backoff_max=2.0)
        channel.start()
        await wait_until(lambda: channel.connect_failures == 1)  # asleep
        for i in range(50):
            channel.enqueue("src", SilenceAdvance(wire_id=1, through_vt=i))
            await asyncio.sleep(0)
        channel.reset()
        await asyncio.sleep(0.2)
        failures = channel.connect_failures
        await channel.close()
        return failures, channel

    failures, channel = asyncio.run(scenario())
    assert failures == 1
    assert channel.backlog() == 0  # the reset discarded the 50


def sleeps_awaited_by(monkeypatch, module):
    """Make ``asyncio.sleep`` record each delay that code of ``module``
    awaits; returns the list it fills (a count, not a stopwatch)."""
    delays = []
    real_sleep = asyncio.sleep

    async def recording(delay, *args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__") == module:
            delays.append(delay)
        return await real_sleep(delay, *args, **kwargs)

    monkeypatch.setattr(asyncio, "sleep", recording)
    return delays


@pytest.mark.parametrize("pending", [True, False])
def test_shutdown_flushes_unacked_items_before_serve_returns(pending,
                                                             monkeypatch):
    """After Shutdown the pump stops and ``serve()`` waits until what was
    already sent is acknowledged, on the ack itself — with nothing
    pending it sleeps not at all.  ``connect_timeout_s``, the bound on
    that wait, is far beyond the test's own timeouts."""
    from tests.net.test_channel import FakeHost

    slept = sleeps_awaited_by(monkeypatch, "repro.net.server")

    async def scenario():
        host = FakeHost()
        await host.start()
        if pending:
            host.hold_acks = asyncio.Event()
        spec = ClusterSpec(engines=["e0"], replicas=0, speed=1.0)
        spec.connect_timeout_s = 60.0
        runtime = ProcessRuntime("engine-e0", spec)
        serving = asyncio.get_running_loop().create_task(runtime.serve())
        await wait_until(lambda: runtime.deployment is not None)
        control = OutboundChannel("coordinator:1", "proc:engine-e0",
                                  [runtime.address])
        control.start()
        control.enqueue("coordinator", codec.GoSignal(
            t0=time.time(), addresses={"probe": [("127.0.0.1", host.port)]}))
        await wait_until(runtime.go.is_set)
        probe = runtime.transport.channel_to("probe")
        if pending:
            probe.enqueue("e0", SilenceAdvance(wire_id=1, through_vt=0))
            await wait_until(lambda: len(host.items) == 1)  # ack held
        control.enqueue("coordinator", codec.Shutdown("test"))
        await wait_until(runtime.stopping.is_set)
        waited = None
        if pending:
            await asyncio.sleep(0.3)
            waited = not serving.done()
            host.hold_acks.set()
        await asyncio.wait_for(serving, 10.0)
        await control.close()
        await host.stop()
        return waited, probe.items_acked

    waited, acked = asyncio.run(scenario())
    assert (waited, acked) == ((True, 1) if pending else (None, 0))
    assert [delay for delay in slept if delay >= 0.01] == []
