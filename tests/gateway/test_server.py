"""GatewayServer protocol behaviour over real loopback sockets.

The simulator side is the stock pipeline deployment run purely in
process; ``inject`` is either immediate (the offer executes inline,
standing in for a pump iteration) or deferred into a list so tests can
hold submissions in flight and watch the admission ledger.
"""

import asyncio

from repro.net import codec
from repro.net.topology import ClusterSpec, build_deployment
from repro.gateway.server import GatewayConfig, GatewayServer


def make_world(config=None, defer_inject=False):
    dep = build_deployment(ClusterSpec(workload={}))
    pending = []
    inject = pending.append if defer_inject else (lambda fn: fn())
    gateway = GatewayServer(
        "gw", dict(dep.ingresses), inject, dep.metrics,
        config or GatewayConfig(),
    )
    return dep, gateway, pending


async def connect(port, client_id="t:0"):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(codec.encode_gw_hello(client_id))
    await writer.drain()
    frame = await asyncio.wait_for(codec.read_frame(reader), timeout=5.0)
    return reader, writer, frame


async def submit(reader, writer, req, payload, input_id="readings"):
    writer.write(codec.encode_gw_submit(req, input_id, payload))
    await writer.drain()
    return await asyncio.wait_for(codec.read_frame(reader), timeout=5.0)


PAYLOAD = {"device": "dev1", "fields": [1, 2, 3]}


def test_welcome_advertises_inputs():
    async def scenario():
        dep, gateway, _ = make_world()
        _, port = await gateway.start()
        try:
            _, writer, (tag, body) = await connect(port)
            assert tag == codec.FRAME_GW_WELCOME
            assert body == {"gateway": "gw", "inputs": ["readings"]}
            writer.close()
        finally:
            await gateway.close()

    asyncio.run(scenario())


def test_submit_stamps_birth_and_logs_once():
    async def scenario():
        dep, gateway, _ = make_world()
        _, port = await gateway.start()
        try:
            reader, writer, _ = await connect(port)
            tag, body = await submit(reader, writer, 0, PAYLOAD)
            assert tag == codec.FRAME_GW_ACCEPT
            assert body["req"] == 0
            log = dep.ingresses["readings"].log
            entries = log.entries_from(0)
            assert [(s, v) for s, v, _ in entries] \
                == [(body["seq"], body["vt"])]
            stamped = entries[0][2]
            # The ingress stamp rewrote the payload pre-log: birth = vt.
            assert stamped["birth"] == body["vt"]
            assert stamped["device"] == PAYLOAD["device"]
            assert gateway.shadow["readings"] == [
                (body["seq"], body["vt"], stamped)
            ]
            writer.close()
        finally:
            await gateway.close()

    asyncio.run(scenario())


def test_duplicate_req_is_reanswered_never_restamped():
    async def scenario():
        dep, gateway, _ = make_world()
        _, port = await gateway.start()
        try:
            reader, writer, _ = await connect(port)
            _, first = await submit(reader, writer, 7, PAYLOAD)
            _, again = await submit(reader, writer, 7, PAYLOAD)
            assert again == first
            assert len(dep.ingresses["readings"].log.entries_from(0)) == 1
            assert gateway.metrics.counter("gateway.duplicates") == 1
            assert gateway.metrics.counter("gateway.accepted") == 1
            writer.close()
        finally:
            await gateway.close()

    asyncio.run(scenario())


def test_session_survives_reconnect():
    async def scenario():
        dep, gateway, _ = make_world()
        _, port = await gateway.start()
        try:
            reader, writer, _ = await connect(port, "c:9")
            _, first = await submit(reader, writer, 3, PAYLOAD)
            writer.close()
            await writer.wait_closed()
            # Same client id, fresh connection: the retransmitted req
            # must come back from the dedup table byte-identically.
            reader, writer, _ = await connect(port, "c:9")
            _, again = await submit(reader, writer, 3, PAYLOAD)
            assert again == first
            assert len(dep.ingresses["readings"].log.entries_from(0)) == 1
            writer.close()
        finally:
            await gateway.close()

    asyncio.run(scenario())


def test_rate_limit_answers_busy_rate():
    async def scenario():
        config = GatewayConfig(rate_msgs_per_s=1e-9, rate_burst=1.0,
                               retry_ms=33.0)
        dep, gateway, _ = make_world(config)
        _, port = await gateway.start()
        try:
            reader, writer, _ = await connect(port)
            tag, _ = await submit(reader, writer, 0, PAYLOAD)
            assert tag == codec.FRAME_GW_ACCEPT
            tag, body = await submit(reader, writer, 1, PAYLOAD)
            assert tag == codec.FRAME_GW_BUSY
            assert body == {"req": 1, "reason": "rate", "retry_ms": 33.0}
            assert gateway.metrics.counter("gateway.rate_limited") == 1
            # Nothing global was consumed by the limited submission.
            assert gateway.admission.admitted == 1
            writer.close()
        finally:
            await gateway.close()

    asyncio.run(scenario())


def test_admission_cap_sheds_and_releases():
    async def scenario():
        config = GatewayConfig(max_inflight_msgs=1)
        dep, gateway, pending = make_world(config, defer_inject=True)
        _, port = await gateway.start()
        try:
            reader, writer, _ = await connect(port)
            writer.write(codec.encode_gw_submit(0, "readings", PAYLOAD))
            writer.write(codec.encode_gw_submit(1, "readings", PAYLOAD))
            await writer.drain()
            # req 0 is admitted (held in the fake pump); req 1 must shed.
            tag, body = await asyncio.wait_for(codec.read_frame(reader),
                                               timeout=5.0)
            assert (tag, body["req"], body["reason"]) \
                == (codec.FRAME_GW_BUSY, 1, "shed")
            assert gateway.metrics.counter("gateway.shed") == 1
            assert gateway.admission.inflight_msgs == 1
            # Pump runs: req 0 stamps, the charge is released, ACCEPT
            # lands, and the controller can admit again.
            pending.pop(0)()
            tag, body = await asyncio.wait_for(codec.read_frame(reader),
                                               timeout=5.0)
            assert (tag, body["req"]) == (codec.FRAME_GW_ACCEPT, 0)
            assert gateway.admission.inflight_msgs == 0
            # The freed slot admits again: req 2 is held by the fake
            # pump, so the very next submission sheds once more.
            writer.write(codec.encode_gw_submit(2, "readings", PAYLOAD))
            writer.write(codec.encode_gw_submit(3, "readings", PAYLOAD))
            await writer.drain()
            tag, body = await asyncio.wait_for(codec.read_frame(reader),
                                               timeout=5.0)
            assert (tag, body["req"], body["reason"]) \
                == (codec.FRAME_GW_BUSY, 3, "shed")
            writer.close()
        finally:
            await gateway.close()

    asyncio.run(scenario())


def test_unknown_input_and_malformed_submit_are_errors():
    async def scenario():
        dep, gateway, _ = make_world()
        _, port = await gateway.start()
        try:
            reader, writer, _ = await connect(port)
            tag, _ = await submit(reader, writer, 0, PAYLOAD,
                                  input_id="nope")
            assert tag == codec.FRAME_ERROR
            writer.write(codec.encode_gw_submit(1, "readings",
                                                "not-a-dict"))
            await writer.drain()
            tag2 = (await asyncio.wait_for(codec.read_frame(reader),
                                           timeout=5.0))[0]
            assert tag2 == codec.FRAME_ERROR
            assert gateway.metrics.counter("gateway.rejected") >= 2
        finally:
            await gateway.close()

    asyncio.run(scenario())


def test_non_gateway_hello_is_rejected():
    async def scenario():
        dep, gateway, _ = make_world()
        _, port = await gateway.start()
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           port)
            writer.write(codec.encode_hello("engine-e0:abcd1234", "e0"))
            await writer.drain()
            frame = await asyncio.wait_for(codec.read_frame(reader),
                                           timeout=5.0)
            assert frame is None  # hung up without a WELCOME
            assert gateway.metrics.counter("gateway.rejected") == 1
        finally:
            await gateway.close()

    asyncio.run(scenario())


def test_wire_version_mismatch_is_refused():
    async def scenario():
        dep, gateway, _ = make_world()
        _, port = await gateway.start()
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           port)
            writer.write(codec.encode_gw_hello("c:0", proto=999))
            await writer.drain()
            tag = (await asyncio.wait_for(codec.read_frame(reader),
                                          timeout=5.0))[0]
            assert tag == codec.FRAME_ERROR
        finally:
            await gateway.close()

    asyncio.run(scenario())


def _raw_frame(frame_tag, body: bytes) -> bytes:
    payload = bytes([codec.WIRE_VERSION, frame_tag]) + body
    return len(payload).to_bytes(4, "big") + payload


def test_garbage_on_the_public_port_is_rejected_not_crashed(caplog):
    """Malformed bodies — before or after the handshake — close the
    connection and count as ``gateway.rejected``; none of them escapes
    the connection handler as an unhandled exception."""
    garbage = [
        _raw_frame(codec.FRAME_GW_SUBMIT, b"{not json"),
        _raw_frame(codec.FRAME_GW_SUBMIT, b"\xff\xfe"),
        _raw_frame(codec.FRAME_GW_SUBMIT, b'{"__t__":"t"}'),
        _raw_frame(codec.FRAME_GW_SUBMIT, b'{"__t__":"zz"}'),
        _raw_frame(codec.FRAME_GW_SUBMIT, b"[" * 50_000),
        _raw_frame(codec.FRAME_BATCH, b"\xff" * 20),
        _raw_frame(codec.FRAME_ACK, b"{}"),
    ]

    async def scenario():
        dep, gateway, _ = make_world()
        _, port = await gateway.start()
        try:
            for i, frame in enumerate(garbage):
                # As the very first frame ...
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port)
                writer.write(frame)
                await writer.drain()
                assert await asyncio.wait_for(
                    codec.read_frame(reader), timeout=5.0) is None
                writer.close()
                # ... and inside an established session.
                reader, writer, (tag, _) = await connect(port, f"t:{i}")
                assert tag == codec.FRAME_GW_WELCOME
                writer.write(frame)
                await writer.drain()
                assert await asyncio.wait_for(
                    codec.read_frame(reader), timeout=5.0) is None
                writer.close()
            return gateway.metrics.counter("gateway.rejected")
        finally:
            await gateway.close()

    rejected = asyncio.run(scenario())
    assert rejected == 2 * len(garbage)
    assert "exception" not in caplog.text.lower()
