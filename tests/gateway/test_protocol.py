"""Gateway wire frames, sized reads, and spec plumbing."""

import asyncio
import dataclasses

import pytest

from repro.gateway.server import GatewayConfig
from repro.net import codec
from repro.net.cluster import with_addresses
from repro.net.topology import ClusterSpec


def decode(frame: bytes):
    return codec.decode_frame_payload(frame[4:])


class TestGatewayFrames:
    def test_tags_are_registered(self):
        for tag in (codec.FRAME_GW_HELLO, codec.FRAME_GW_WELCOME,
                    codec.FRAME_GW_SUBMIT, codec.FRAME_GW_ACCEPT,
                    codec.FRAME_GW_BUSY):
            assert tag in codec._FRAME_TAGS

    def test_hello_roundtrip(self):
        tag, body = decode(codec.encode_gw_hello("clients:7"))
        assert tag == codec.FRAME_GW_HELLO
        assert body == {"client": "clients:7",
                        "proto": codec.WIRE_VERSION}

    def test_welcome_sorts_inputs(self):
        tag, body = decode(codec.encode_gw_welcome("gw", ["b", "a"]))
        assert tag == codec.FRAME_GW_WELCOME
        assert body == {"gateway": "gw", "inputs": ["a", "b"]}

    def test_submit_roundtrip(self):
        payload = {"device": "dev3", "fields": [1, 2, 3]}
        tag, body = decode(codec.encode_gw_submit(42, "readings", payload))
        assert tag == codec.FRAME_GW_SUBMIT
        assert body == {"req": 42, "input": "readings",
                        "payload": payload}

    def test_accept_and_busy_roundtrip(self):
        tag, body = decode(codec.encode_gw_accept(5, 17, 12345))
        assert (tag, body) == (codec.FRAME_GW_ACCEPT,
                               {"req": 5, "seq": 17, "vt": 12345})
        tag, body = decode(codec.encode_gw_busy(6, "shed", 25.0))
        assert (tag, body) == (codec.FRAME_GW_BUSY,
                               {"req": 6, "reason": "shed",
                                "retry_ms": 25.0})


class TestReadFrameSized:
    def run(self, coro):
        return asyncio.run(coro)

    def test_returns_wire_size(self):
        frame = codec.encode_gw_hello("c:0")

        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(frame)
            reader.feed_eof()
            got = await codec.read_frame_sized(reader)
            tag, body, nbytes = got
            assert tag == codec.FRAME_GW_HELLO
            assert body["client"] == "c:0"
            assert nbytes == len(frame)
            assert await codec.read_frame_sized(reader) is None

        self.run(scenario())

    def test_wrapper_agrees_with_read_frame(self):
        frame = codec.encode_gw_accept(1, 2, 3)

        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(frame + frame)
            reader.feed_eof()
            plain = await codec.read_frame(reader)
            sized = await codec.read_frame_sized(reader)
            assert plain == sized[:2]
            assert sized[2] == len(frame)

        self.run(scenario())

    def test_torn_frame_raises(self):
        from repro.errors import TransportError

        frame = codec.encode_gw_hello("c:1")

        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(frame[:len(frame) - 3])
            reader.feed_eof()
            with pytest.raises(TransportError):
                await codec.read_frame_sized(reader)

        self.run(scenario())


class TestSpecPlumbing:
    def test_gateway_json_roundtrip(self):
        spec = ClusterSpec(gateway={
            "host": "127.0.0.1", "port": 9999,
            "max_inflight_msgs": 64, "rate_msgs_per_s": 100.0,
        })
        back = ClusterSpec.from_json(spec.to_json())
        assert back.gateway_enabled()
        assert back.gateway["port"] == 9999

    def test_disabled_by_default(self):
        assert not ClusterSpec().gateway_enabled()

    def test_config_from_spec_casts_over_the_defaults(self):
        assert GatewayConfig.from_spec(ClusterSpec(gateway={})) \
            == GatewayConfig()
        full = {"host": "0.0.0.0", "port": 9999, "max_inflight_msgs": 64,
                "max_inflight_bytes": 4096, "rate_msgs_per_s": 100,
                "rate_burst": 5, "retry_ms": 20}
        config = GatewayConfig.from_spec(ClusterSpec(gateway=full))
        assert dataclasses.asdict(config) == full
        assert [type(getattr(config, key)) for key in full] \
            == [str, int, int, int, float, float, float]

    def test_with_addresses_skips_disabled_gateway(self):
        run_spec = with_addresses(ClusterSpec(workload={}))
        assert not run_spec.gateway_enabled()
