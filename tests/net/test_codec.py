"""Wire codec: frames, message tags, and failure modes."""

import pytest

from repro.core.message import (
    CheckpointData,
    DataMessage,
    SilenceAdvance,
    WIRE_MESSAGE_TYPES,
)
from repro.net import codec
from repro.errors import TransportError
from repro.runtime.detector import Heartbeat

from tests.helpers import item_roundtrip, read_frames


def test_frame_roundtrips():
    cases = [
        codec.encode_hello("peer-a", "e0"),
        codec.encode_welcome("peer-b#3"),
        codec.encode_not_here(),
        codec.encode_item(7, "ext:in",
                          DataMessage(wire_id=1, seq=7, vt=1000,
                                      payload={"x": 1})),
        codec.encode_ack(42),
    ]
    expected_tags = [codec.FRAME_HELLO, codec.FRAME_WELCOME,
                     codec.FRAME_NOT_HERE, codec.FRAME_ITEM,
                     codec.FRAME_ACK]
    for raw, want_tag in zip(cases, expected_tags):
        tag, body = codec.decode_frame_payload(raw[4:])
        assert tag == want_tag
        assert isinstance(body, dict)


def test_item_frame_carries_message():
    msg = DataMessage(wire_id=3, seq=9, vt=555, payload=[1, "two", 3.0])
    raw = codec.encode_item(9, "src-node", msg)
    tag, body = codec.decode_frame_payload(raw[4:])
    assert tag == codec.FRAME_ITEM
    (item,) = codec.batch_items(body)
    # The destination is the connection's, not the item's.
    assert set(item) == {"seq", "src", "msg"}
    assert item["seq"] == 9
    assert item["src"] == "src-node"
    assert codec.decode_message(item["msg"]) == msg
    assert b"dst" not in raw


def test_item_frame_holds_exactly_one_record():
    items = [codec.item_body(i, "a", "b", SilenceAdvance(1, i))
             for i in range(2)]
    for bad in ([], items):
        with pytest.raises(codec.CodecError, match="ITEM frame of"):
            codec.encode_frame(codec.FRAME_ITEM, {"items": bad})
    batch = bytearray(codec.FrameEncoder().encode_batch(items)[4:])
    batch[1] = codec.FRAME_ITEM
    with pytest.raises(codec.CodecError, match="ITEM frame of 2"):
        codec.decode_frame_payload(bytes(batch))
    with pytest.raises(codec.CodecError, match="ITEM frame of 0"):
        codec.decode_frame_payload(bytes(batch[:2]))


def test_version_mismatch_rejected():
    raw = codec.encode_ack(1)
    payload = bytearray(raw[4:])
    payload[0] = codec.WIRE_VERSION + 1
    with pytest.raises(codec.WireVersionError,
                       match="version mismatch") as info:
        codec.decode_frame_payload(bytes(payload))
    assert info.value.version == codec.WIRE_VERSION + 1
    assert isinstance(info.value, codec.CodecError)


def test_unknown_frame_tag_rejected():
    raw = codec.encode_ack(1)
    payload = bytearray(raw[4:])
    payload[1] = 99
    with pytest.raises(codec.CodecError, match="unknown frame tag"):
        codec.decode_frame_payload(bytes(payload))
    with pytest.raises(codec.CodecError, match="unknown frame tag"):
        codec.encode_frame(99, {})


def test_truncated_frame_rejected():
    with pytest.raises(codec.CodecError, match="truncated"):
        codec.decode_frame_payload(b"\x01")


def test_unknown_message_tag_rejected():
    with pytest.raises(codec.CodecError, match="unknown message tag"):
        codec.decode_message({"k": 9999, "f": {}})
    with pytest.raises(codec.CodecError, match="malformed"):
        codec.decode_message("not a dict")


def test_non_wire_type_rejected():
    with pytest.raises(codec.CodecError, match="not a wire message type"):
        codec.encode_message(object())


def test_every_wire_type_has_a_permanent_tag():
    tagged = set(codec.MESSAGE_TAGS.values())
    for cls in WIRE_MESSAGE_TYPES:
        assert cls in tagged
    assert Heartbeat in tagged
    # Core types occupy 1..N in registry order — renumbering is a wire
    # format break, so pin the assignment.
    for i, cls in enumerate(WIRE_MESSAGE_TYPES):
        assert codec.MESSAGE_TAGS[i + 1] is cls


def test_message_bytes_roundtrip():
    msg = CheckpointData(engine_id="e0", cp_seq=4, incremental=True,
                         blob=b"\x00\x01state")
    raw, restored = item_roundtrip(msg)
    assert restored == msg
    assert type(restored) is CheckpointData
    # Canonical: re-encoding the decoded message is byte-identical.
    assert item_roundtrip(restored)[0] == raw


def test_corrupt_request_roundtrip_and_pinned_tag():
    msg = codec.CorruptRequest(engine_id="e0", component="enricher")
    _raw, restored = item_roundtrip(msg)
    assert restored == msg
    assert type(restored) is codec.CorruptRequest
    # Tag 35 is permanent: renumbering is a wire format break.
    assert codec.MESSAGE_TAGS[35] is codec.CorruptRequest
    # Empty component (= auto-pick) survives the trip.
    bare = codec.CorruptRequest(engine_id="e1")
    assert item_roundtrip(bare)[1] == bare


def test_splitter_reassembles_byte_by_byte():
    frames = [
        codec.encode_hello("p", "n"),
        codec.encode_item(0, "a", SilenceAdvance(wire_id=2,
                                                 through_vt=500)),
        codec.encode_ack(1),
    ]
    out = read_frames(*(bytes([byte]) for byte in b"".join(frames)))
    assert [tag for tag, _ in out] == [codec.FRAME_HELLO,
                                       codec.FRAME_ITEM,
                                       codec.FRAME_ACK]
    assert out[0][1] == {"peer": "p", "dst": "n",
                         "proto": codec.WIRE_VERSION}
    (item,) = codec.batch_items(out[1][1])
    assert (item["seq"], item["src"]) == (0, "a")
    assert codec.decode_message(item["msg"]) == SilenceAdvance(
        wire_id=2, through_vt=500)
    assert out[2][1] == {"upto": 1}


def test_splitter_handles_coalesced_frames():
    frames = b"".join(codec.encode_ack(i) for i in range(10))
    out = read_frames(frames)
    assert [body["upto"] for _, body in out] == list(range(10))


def test_oversized_frame_rejected():
    header = (codec.MAX_FRAME_BYTES + 1).to_bytes(4, "big")
    with pytest.raises(codec.CodecError, match="too large"):
        read_frames(header)

def test_batch_frame_roundtrip():
    encoder = codec.FrameEncoder()
    bodies = [codec.item_body(i, "src", "dst",
                              SilenceAdvance(wire_id=1, through_vt=i * 10))
              for i in range(5)]
    raw = encoder.encode_batch(bodies)
    tag, body = codec.decode_frame_payload(raw[4:])
    assert tag == codec.FRAME_BATCH
    items = codec.batch_items(body)
    assert [it["seq"] for it in items] == [0, 1, 2, 3, 4]
    assert [codec.decode_message(it["msg"]).through_vt
            for it in items] == [0, 10, 20, 30, 40]


def test_batch_and_error_tags_pinned():
    # 6 and 7 are permanent: renumbering is a wire format break.
    assert codec.FRAME_BATCH == 6
    assert codec.FRAME_ERROR == 7


def test_malformed_batch_rejected():
    with pytest.raises(codec.CodecError, match="malformed batch"):
        codec.batch_items({"itms": []})
    with pytest.raises(codec.CodecError, match="malformed batch"):
        codec.batch_items({"items": "not-a-list"})


def test_frame_encoder_bytes_identical_to_encode_frame():
    encoder = codec.FrameEncoder()
    msg = DataMessage(wire_id=3, seq=9, vt=555, payload={"k": [1, (2, 3)]})
    one = {"items": [codec.item_body(9, "a", "b", msg)]}
    assert (encoder.encode(codec.FRAME_ITEM, one)
            == codec.encode_frame(codec.FRAME_ITEM, one)
            == codec.encode_item(9, "a", msg))
    assert encoder.encode_ack(42) == codec.encode_ack(42)
    # One encoder serves differently-sized frames of every kind.
    big = codec.item_body(1, "a", "b",
                          DataMessage(wire_id=1, seq=1, vt=1,
                                      payload="x" * 2048))
    many = one["items"] + [big]
    assert encoder.encode_batch(many) == codec.encode_frame(
        codec.FRAME_BATCH, {"items": many})
    assert encoder.encode(codec.FRAME_HELLO, {"peer": "p"}) \
        == codec.encode_frame(codec.FRAME_HELLO, {"peer": "p"})
    assert encoder.encode_ack(0) == codec.encode_ack(0)


def test_error_frame_roundtrip():
    raw = codec.encode_error("unsupported wire protocol 9")
    tag, body = codec.decode_frame_payload(raw[4:])
    assert tag == codec.FRAME_ERROR
    assert body["proto"] == codec.WIRE_VERSION
    assert "unsupported" in body["error"]


def test_splitter_eof_mid_frame_raises():
    raw = codec.encode_ack(7)
    # A whole frame, then a full header + 1 payload byte of the next.
    with pytest.raises(TransportError, match="mid-frame: 1 of 10"):
        read_frames(raw, raw[:5])


def test_splitter_eof_on_boundary_is_clean():
    raw = codec.encode_ack(7)
    assert read_frames(raw[:5], raw[5:]) == [(codec.FRAME_ACK, {"upto": 7})]


def _socketpair_streams():
    """(reader, raw send socket) over a real connected socket pair."""
    import asyncio
    import socket

    async def build():
        s1, s2 = socket.socketpair()
        reader, writer = await asyncio.open_connection(sock=s1)
        return reader, writer, s2

    return build


def test_read_frame_clean_eof_returns_none():
    import asyncio

    async def scenario():
        reader, writer, peer = await _socketpair_streams()()
        raw = codec.encode_ack(3)
        peer.sendall(raw)
        peer.close()  # EOF exactly on the frame boundary
        first = await codec.read_frame(reader)
        second = await codec.read_frame(reader)
        writer.close()
        return first, second

    first, second = asyncio.run(scenario())
    assert first == (codec.FRAME_ACK, {"upto": 3})
    assert second is None


def test_read_frame_torn_mid_payload_raises():
    import asyncio

    async def scenario():
        reader, writer, peer = await _socketpair_streams()()
        raw = codec.encode_item(0, "a",
                                SilenceAdvance(wire_id=1, through_vt=5))
        peer.sendall(raw[: len(raw) - 3])  # full header, partial payload
        peer.close()
        with pytest.raises(TransportError, match="payload bytes"):
            await codec.read_frame(reader)
        writer.close()

    asyncio.run(scenario())


def test_read_frame_torn_mid_header_raises():
    import asyncio

    async def scenario():
        reader, writer, peer = await _socketpair_streams()()
        peer.sendall(codec.encode_ack(1)[:2])  # partial length prefix
        peer.close()
        with pytest.raises(TransportError, match="header bytes"):
            await codec.read_frame(reader)
        writer.close()

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# Wire v2: pinned bytes, range checks, hostile input
# ----------------------------------------------------------------------


def test_v2_layout_golden_bytes():
    """The record layout, byte for byte (all integers big-endian)."""
    from repro.vt.time import NEVER

    batch = codec.FrameEncoder().encode_batch([
        codec.item_body(5, "ext:readings", "e0", DataMessage(
            wire_id=2, seq=5, vt=1_000_005,
            payload={"device": "dev3", "fields": (7, 8),
                     "birth": 1_000_005})),
        codec.item_body(6, "ext:readings", "e0", DataMessage(
            wire_id=2, seq=6, vt=-1, payload=None)),
    ])
    assert batch.hex() == (
        "000000ac" "02" "06"                    # length, version, BATCH
        "00000070" "0000000000000005" "03" "0c"  # rec_len, seq, tag, src_len
        "6578743a72656164696e6773"               # "ext:readings"
        "0000000000000002" "0000000000000005" "00000000000f4245"
        # {"birth":1000005,"device":"dev3","fields":{"__t__":"t","v":[7,8]}}
        "7b226269727468223a313030303030352c22646576696365223a2264657633"
        "222c226669656c6473223a7b225f5f745f5f223a2274222c2276223a5b372c"
        "385d7d7d"
        "00000032" "0000000000000006" "03" "0c"
        "6578743a72656164696e6773"
        "0000000000000002" "0000000000000006" "ffffffffffffffff"
        "6e756c6c"                               # null
    )
    silence = codec.encode_item(
        7, "e0", SilenceAdvance(wire_id=2, through_vt=NEVER))
    assert silence.hex() == (
        "00000022" "02" "04"
        "0000001c" "0000000000000007" "04" "02" "6530"
        "0000000000000002" "4000000000000000"
    )
    heartbeat = codec.encode_item(0, "e0", Heartbeat(engine_id="e0", seq=3))
    assert heartbeat.hex() == (
        "0000002c" "02" "04"
        "00000026" "0000000000000000" "1f" "02" "6530"
        # {"engine_id":"e0","seq":3}
        "7b22656e67696e655f6964223a226530222c22736571223a337d"
    )
    assert codec.encode_ack(8).hex() == "0000000a" "02" "05" "0000000000000008"


@pytest.mark.parametrize("build", [
    lambda: codec.encode_item(0, "a", SilenceAdvance(1, 2**63)),
    lambda: codec.encode_item(0, "a", DataMessage(-(2**63) - 1, 0, 0, None)),
    lambda: codec.encode_item(0, "a", DataMessage(0, 0, "soon", None)),
    lambda: codec.encode_item(-1, "a", SilenceAdvance(1, 1)),
    lambda: codec.encode_item(0, "n" * 256, SilenceAdvance(1, 1)),
    lambda: codec.encode_ack(-1),
    lambda: codec.encode_ack(2**64),
    lambda: codec.encode_item(0, "a", SilenceAdvance(2**63, 0)),
])
def test_out_of_range_fields_are_codec_errors_at_encode(build):
    with pytest.raises(codec.CodecError):
        build()


def _payload(frame_tag, body=b""):
    return bytes([codec.WIRE_VERSION, frame_tag]) + body


def _record(seq=0, tag=4, src=b"a", tail=b"\0" * 16, rec_len=None):
    body = (seq.to_bytes(8, "big") + bytes([tag, len(src)]) + src + tail)
    if rec_len is None:
        rec_len = len(body)
    return rec_len.to_bytes(4, "big") + body


HOSTILE_PAYLOADS = {
    # JSON bodies (every tag but ITEM / ACK / BATCH).
    "bad json": _payload(codec.FRAME_GW_SUBMIT, b"{not json"),
    "bad utf-8": _payload(codec.FRAME_GW_SUBMIT, b"\xff\xfe"),
    "tag without value": _payload(codec.FRAME_GW_SUBMIT, b'{"__t__":"t"}'),
    "unknown cpser tag": _payload(codec.FRAME_GW_SUBMIT, b'{"__t__":"zz"}'),
    "bytes tag, bad base64": _payload(codec.FRAME_HELLO,
                                      b'{"__t__":"b","v":"!"}'),
    "dict tag, not pairs": _payload(codec.FRAME_HELLO,
                                    b'{"__t__":"d","v":[1]}'),
    "dict tag, list key": _payload(codec.FRAME_HELLO,
                                   b'{"__t__":"d","v":[[[1],2]]}'),
    "body is a list": _payload(codec.FRAME_HELLO, b"[1,2]"),
    "body is a tagged tuple": _payload(codec.FRAME_HELLO,
                                       b'{"__t__":"t","v":[]}'),
    "empty body": _payload(codec.FRAME_WELCOME),
    "nested past the recursion limit": _payload(codec.FRAME_GW_HELLO,
                                                b"[" * 100_000),
    # Item records.
    "truncated record header": _payload(codec.FRAME_BATCH, _record()[:9]),
    "record overruns its frame": _payload(codec.FRAME_BATCH,
                                          _record(rec_len=500)),
    "record cut short": _payload(codec.FRAME_BATCH, _record()[:-3]),
    "src overruns its record": _payload(
        codec.FRAME_BATCH, _record(src=b"abc", tail=b"", rec_len=11) + b"xx"),
    "rec_len below the header": _payload(codec.FRAME_ITEM,
                                         _record(rec_len=4)),
    "short silence tail": _payload(codec.FRAME_ITEM, _record(tail=b"\0" * 15)),
    "long silence tail": _payload(codec.FRAME_ITEM, _record(tail=b"\0" * 17)),
    "short data tail": _payload(codec.FRAME_ITEM,
                                _record(tag=3, tail=b"\0" * 23)),
    "data without a payload": _payload(codec.FRAME_ITEM,
                                       _record(tag=3, tail=b"\0" * 24)),
    "data with a bad payload": _payload(
        codec.FRAME_ITEM, _record(tag=3, tail=b"\0" * 24 + b"{oops")),
    "bad utf-8 in src": _payload(codec.FRAME_ITEM, _record(src=b"\xff")),
    "generic tail, bad json": _payload(codec.FRAME_ITEM,
                                       _record(tag=31, tail=b"{")),
    "generic tail, not a dict": _payload(codec.FRAME_ITEM,
                                         _record(tag=31, tail=b"[1]")),
    "second record torn": _payload(codec.FRAME_BATCH,
                                   _record() + _record()[:20]),
    "two records in an ITEM": _payload(codec.FRAME_ITEM,
                                       _record() + _record(seq=1)),
    "no record in an ITEM": _payload(codec.FRAME_ITEM),
    # ACK.
    "short ack": _payload(codec.FRAME_ACK, b"\0" * 7),
    "long ack": _payload(codec.FRAME_ACK, b"\0" * 9),
    "v1 json ack": _payload(codec.FRAME_ACK, b'{"upto":3}'),
}


@pytest.mark.parametrize("name", sorted(HOSTILE_PAYLOADS))
def test_malformed_bodies_raise_codec_error_only(name):
    with pytest.raises(codec.CodecError):
        codec.decode_frame_payload(HOSTILE_PAYLOADS[name])


def test_hostile_table_helpers_build_valid_records():
    """The table above is hostile by its *mutations*: the unmutated
    helper output decodes."""
    tag, body = codec.decode_frame_payload(
        _payload(codec.FRAME_BATCH, _record() + _record(seq=1)))
    assert [item["seq"] for item in codec.batch_items(body)] == [0, 1]
    tag, body = codec.decode_frame_payload(_payload(codec.FRAME_BATCH))
    assert codec.batch_items(body) == []


def test_message_of_unknown_tag_parses_then_fails_at_decode_message():
    raw = _payload(codec.FRAME_ITEM, _record(tag=200, tail=b"{}"))
    _tag, body = codec.decode_frame_payload(raw)
    (item,) = codec.batch_items(body)
    with pytest.raises(codec.CodecError, match="unknown message tag 200"):
        codec.decode_message(item["msg"])
