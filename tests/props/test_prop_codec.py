"""Property tests: the wire codec is a lossless canonical codec.

Two properties for every message type that can cross a socket, sent
the one way a message is encoded, in an ITEM frame:

* **round-trip identity** — decoding an encoded message restores an
  equal message of the exact same type;
* **byte stability** — equal messages encode to identical bytes, no
  matter how their payload dicts were built (insertion order must not
  leak into the wire format, because the byte-level determinism checks
  compare across processes).

Frames are read back with :func:`repro.net.codec.read_frame`, whatever
chunks the byte stream arrives in.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.message import (
    CallReply,
    CallRequest,
    CheckpointAck,
    CheckpointData,
    CuriosityProbe,
    DataMessage,
    DeterminismFaultRecord,
    ReplayRequest,
    SilenceAdvance,
    StableNotice,
)
from repro.net import codec
from repro.runtime import checkpoint as cpser
from repro.runtime.detector import Heartbeat

from tests.helpers import item_roundtrip, read_frames

ids = st.integers(min_value=0, max_value=2**31)
vts = st.integers(min_value=0, max_value=2**62)
names = st.text(min_size=1, max_size=12)  # <= 48 UTF-8 bytes: fits src_len

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=16),  # full unicode, surrogates excluded by default
    st.binary(max_size=16),
)

payloads = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=20,
)

messages = st.one_of(
    st.builds(DataMessage, wire_id=ids, seq=ids, vt=vts, payload=payloads),
    st.builds(CallRequest, wire_id=ids, seq=ids, vt=vts, payload=payloads,
              call_id=ids, reply_wire_id=ids),
    st.builds(CallReply, wire_id=ids, seq=ids, vt=vts, payload=payloads,
              call_id=ids),
    st.builds(SilenceAdvance, wire_id=ids, through_vt=vts),
    st.builds(CuriosityProbe, wire_id=ids, want_vt=vts),
    st.builds(ReplayRequest, wire_id=ids, from_seq=ids),
    st.builds(StableNotice, wire_id=ids, through_seq=ids),
    st.builds(CheckpointData, engine_id=names, cp_seq=ids,
              incremental=st.booleans(), blob=st.binary(max_size=64)),
    st.builds(CheckpointAck, engine_id=names, cp_seq=ids,
              replica_id=names),
    st.builds(DeterminismFaultRecord, component=names, handler=names,
              effective_vt=vts,
              coefficients=st.tuples(st.integers(0, 1000),
                                     st.integers(0, 1000)),
              intercept=st.integers(0, 10**6)),
    st.builds(Heartbeat, engine_id=names, seq=ids),
)


@given(messages)
def test_roundtrip_identity(msg):
    _raw, restored = item_roundtrip(msg)
    assert restored == msg
    assert type(restored) is type(msg)


@given(messages)
def test_byte_stability(msg):
    raw, restored = item_roundtrip(msg)
    assert item_roundtrip(restored)[0] == raw


@given(st.dictionaries(st.text(max_size=6), scalars,
                       min_size=2, max_size=6), ids, ids, vts)
def test_dict_insertion_order_never_reaches_the_wire(payload, wire, seq,
                                                     vt):
    forward = DataMessage(wire_id=wire, seq=seq, vt=vt, payload=payload)
    shuffled = DataMessage(
        wire_id=wire, seq=seq, vt=vt,
        payload=dict(reversed(list(payload.items()))),
    )
    assert (codec.encode_item(0, "src", forward)
            == codec.encode_item(0, "src", shuffled))


@settings(max_examples=40)
@given(messages, st.integers(0, 2**64 - 1), names)
def test_item_frame_roundtrip(msg, seq, src):
    raw = codec.encode_item(seq, src, msg)
    (frame,) = read_frames(raw)
    tag, body = frame
    assert tag == codec.FRAME_ITEM
    (item,) = codec.batch_items(body)
    assert item == codec.item_body(seq, src, "anywhere", msg)
    restored = codec.decode_message(item["msg"])
    assert restored == msg
    assert type(restored) is type(msg)
    # The decoded body is what the encoder takes: one canonical form.
    assert codec.encode_frame(tag, body) == raw


@settings(max_examples=25)
@given(payloads, payloads, st.integers(0, 100), names)
def test_checkpoint_chain_roundtrip(full_state, delta_state, cp_seq,
                                    engine_id):
    """Full + incremental checkpoints survive the wire byte-exactly."""
    chain = [
        CheckpointData(engine_id=engine_id, cp_seq=cp_seq,
                       incremental=False, blob=cpser.dumps(full_state)),
        CheckpointData(engine_id=engine_id, cp_seq=cp_seq + 1,
                       incremental=True, blob=cpser.dumps(delta_state)),
    ]
    for cp in chain:
        _raw, restored = item_roundtrip(cp)
        assert restored == cp
        assert cpser.loads(restored.blob) == cpser.loads(cp.blob)


def _item_payload(tag: int, tail: bytes) -> bytes:
    """An ITEM frame payload holding one record from ``e0`` with ``tail``."""
    body = (0).to_bytes(8, "big") + bytes([tag, 2]) + b"e0" + tail
    return (bytes([codec.WIRE_VERSION, codec.FRAME_ITEM])
            + len(body).to_bytes(4, "big") + body)


@given(st.builds(CheckpointData, engine_id=names, cp_seq=ids,
                 incremental=st.booleans(), blob=st.binary(max_size=32)),
       st.data())
def test_hostile_checkpoint_tails_raise_codec_error_only(msg, data):
    """A checkpoint record's fixed tail, cut short; an engine-id length
    that overruns the record; bad UTF-8 in the engine id: each is a
    :class:`CodecError`, and the unmutated record decodes."""
    tag, blob = codec.message_tag(msg), msg.blob
    fixed = msg.cp_seq.to_bytes(8, "big") + bytes([msg.incremental])
    engine_id = msg.engine_id.encode("utf-8")
    whole = fixed + bytes([len(engine_id)]) + engine_id + blob
    _tag, body = codec.decode_frame_payload(_item_payload(tag, whole))
    (item,) = codec.batch_items(body)
    assert codec.decode_message(item["msg"]) == msg

    cut = data.draw(st.integers(0, len(fixed)), label="cut")
    overrun = data.draw(st.integers(len(engine_id + blob) + 1, 255),
                        label="id_len")
    bad_id = data.draw(st.sampled_from([b"\xff", b"\xc3", b"a\xed\xa0\x80"]),
                       label="bad_id")
    for tail in (whole[:cut],
                 fixed + bytes([overrun]) + engine_id + blob,
                 fixed + bytes([len(bad_id)]) + bad_id + blob):
        try:
            codec.decode_frame_payload(_item_payload(tag, tail))
        except codec.CodecError:
            continue
        raise AssertionError(f"decoded a hostile tail {tail!r}")


@settings(max_examples=30)
@given(
    st.lists(
        st.tuples(st.booleans(), st.lists(messages, min_size=1,
                                          max_size=5)),
        min_size=1, max_size=6,
    ),
    st.data(),
)
def test_batch_and_item_interleaving_roundtrip(bursts, data):
    """Any interleaving of BATCH and singleton ITEM frames reassembles
    into the original message sequence, whatever the chunk boundaries.

    Each burst is either one FRAME_BATCH of N items or N singleton
    FRAME_ITEMs; the byte stream is re-split at arbitrary points before
    it reaches ``read_frame``, so frames straddle the chunks, and it
    ends on a frame boundary: a clean EOF.
    """
    encoder = codec.FrameEncoder()
    wire = bytearray()
    expected = []  # (expected_tag, seq, msg) per item, in send order
    seq = 0
    for as_batch, msgs in bursts:
        bodies = [codec.item_body(seq + i, "src", "dst", m)
                  for i, m in enumerate(msgs)]
        if as_batch and len(bodies) > 1:
            wire += encoder.encode_batch(bodies)
            tag = codec.FRAME_BATCH
        else:
            for body in bodies:
                wire += encoder.encode(codec.FRAME_ITEM, {"items": [body]})
            tag = codec.FRAME_ITEM
        expected.extend((tag, seq + i, m) for i, m in enumerate(msgs))
        seq += len(msgs)

    chunks = []
    cursor = 0
    while cursor < len(wire):
        step = data.draw(st.integers(1, max(1, len(wire) - cursor)),
                         label="chunk")
        chunks.append(bytes(wire[cursor:cursor + step]))
        cursor += step
    got = read_frames(*chunks)

    items = [(tag, item) for tag, body in got
             for item in codec.batch_items(body)]
    assert len(items) == len(expected)
    for (tag, body), (exp_tag, exp_seq, exp_msg) in zip(items, expected):
        assert tag == exp_tag
        assert body["seq"] == exp_seq
        restored = codec.decode_message(body["msg"])
        assert restored == exp_msg
        assert type(restored) is type(exp_msg)
