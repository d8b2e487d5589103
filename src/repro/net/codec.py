"""Canonical binary wire format (wire version 2).

Every frame on a :mod:`repro.net` socket is::

    uint32   length    -- big-endian byte count of everything after it
    uint8    version   -- WIRE_VERSION; receivers reject mismatches
    uint8    frame tag -- FRAME_* below
    bytes    body      -- per tag: item records, one u64, or JSON

All integers are big-endian.  The three frames on the per-message path
have fixed binary bodies; everything exchanged at handshake rate, and
everything a public client may send, keeps a canonical
:mod:`repro.runtime.checkpoint` (``cpser``) JSON dict as its body.
Either way identical values always produce identical bytes — the
property the determinism tests assert at the byte level carries over to
the wire unchanged.

Frame tags (handshake and transport control):

====================  ===  =================================================
``FRAME_HELLO``       1    opens a channel: ``{"peer", "dst", "proto"}``
``FRAME_WELCOME``     2    accepts: ``{"incarnation"}`` of the hosted node
``FRAME_NOT_HERE``    3    the destination node is not hosted here (yet)
``FRAME_ITEM``        4    exactly one item record
``FRAME_ACK``         5    cumulative receipt: ``u64 upto`` (next expected)
``FRAME_BATCH``       6    any number of item records, back to back
``FRAME_ERROR``       7    structured reject: ``{"error", "proto"}``
====================  ===  =================================================

Gateway frame tags (the public client protocol of ``repro.gateway``;
same framing, same version byte, disjoint tag block, JSON bodies):

====================  ===  =================================================
``FRAME_GW_HELLO``    8    client opens: ``{"client", "proto"}``
``FRAME_GW_WELCOME``  9    gateway accepts: ``{"gateway", "inputs"}``
``FRAME_GW_SUBMIT``   10   one submission: ``{"req", "input", "payload"}``
``FRAME_GW_ACCEPT``   11   stamped + logged: ``{"req", "seq", "vt"}``
``FRAME_GW_BUSY``     12   shed/ratelimited: ``{"req", "reason", "retry_ms"}``
====================  ===  =================================================

**Item records.**  One message in flight is one self-delimiting record::

    uint32   rec_len      -- byte count of the record after this field
    uint64   seq          -- channel sequence number
    uint8    message tag  -- see MESSAGE_TAGS
    uint8    src_len
    bytes    src          -- source node id, UTF-8, src_len bytes
    bytes    tail         -- by message tag:

    DataMessage      int64 wire_id, int64 seq, int64 vt, cpser(payload)
    SilenceAdvance   int64 wire_id, int64 through_vt
    any other tag    cpser(field dict)

The two messages a busy wire is made of get a fixed layout and pay the
serializer only for the application payload; heartbeats, checkpoints
and control messages are rare and keep a schema-free field dict.  The
destination node is *not* in the record: the HELLO binds a connection to
one destination and its incarnation, and the receiver delivers there.
``repro.vt.time.NEVER`` (``2**62``) fits the signed 64-bit fields; a
value that does not is a :class:`CodecError` at encode time.

In memory an item is the dict ``{"seq", "src", "msg": {"k", "f"}}`` on
both sides (``k`` the message tag, ``f`` the field dict) —
:func:`item_body` builds one, :func:`encode_frame` /
:class:`FrameEncoder` turn a list of them into records, and a decoded
ITEM or BATCH body is ``{"items": [...]}``; ACK decodes to
``{"upto": n}``, so every decoded body is a dict.

Message tags are assigned from
:data:`repro.core.message.WIRE_MESSAGE_TYPES` plus the transport types
defined here; see :data:`MESSAGE_TAGS`.  Tags are permanent: new types
append, existing tags are never renumbered.

**Batching.**  A ``FRAME_BATCH`` carries any number of records in
sender-sequence order; receivers process them exactly as if each had
arrived in its own ``FRAME_ITEM``, then acknowledge the whole frame
with **one** cumulative ACK (the ack-coalescing contract: at least one
ACK per frame, never one per item).  Because acks are cumulative, a
coalesced ack acknowledges every item of the batch at once; senders
must accept any ``upto`` between their ack frontier and their next
unassigned sequence number and reject everything else (a stale host
answering after a promotion must not regress or overrun the frontier).

**Malformed input.**  :func:`decode_frame_payload` raises
:class:`CodecError` for every body it cannot decode — a record that
overruns its frame, a short fixed tail, bad UTF-8, bad JSON, a corrupt
cpser tag — and nothing else, so connection handlers that catch
:class:`CodecError` hang up on hostile bytes instead of dying.

**Versioning.**  Version 1 carried every body, items included, as one
cpser JSON dict (with a per-item ``dst``).  No process speaks both: a
frame with another version byte is refused at the header with
:class:`WireVersionError`, and the server answers a HELLO that
mismatches — by version byte or by its ``proto`` field — with a
structured ``FRAME_ERROR`` naming both versions before hanging up.

**Truncation vs EOF.**  A byte stream may end cleanly only on a frame
boundary.  :func:`read_frame` returns ``None`` for that case alone; a
connection that dies after part of a frame was read (mid-header or
mid-payload) raises :class:`~repro.errors.TransportError`, so transports
count a reset instead of mistaking a torn frame for an orderly close.
"""

from __future__ import annotations

import asyncio
import struct
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Type

from repro.core.message import (
    WIRE_MESSAGE_TYPES,
    DataMessage,
    SilenceAdvance,
    message_fields,
)
from repro.errors import StateError, TransportError
from repro.runtime import checkpoint as cpser
from repro.runtime.detector import Heartbeat

#: Version byte carried by every frame.  Bump on incompatible changes.
WIRE_VERSION = 2

#: Hard cap on one frame's byte count (a corrupt length prefix must not
#: make a reader allocate gigabytes).
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LEN = struct.Struct(">I")
#: Frame header as written: length prefix, version byte, frame tag.
_FRAME_HEAD = struct.Struct(">IBB")
#: Record header: rec_len, channel seq, message tag, src_len.
_REC_HEAD = struct.Struct(">IQBB")
#: The part of a record header that ``rec_len`` counts.
_REC_HEAD_COUNTED = _REC_HEAD.size - 4
_DATA_TAIL = struct.Struct(">qqq")  # wire_id, seq, vt
_SILENCE_TAIL = struct.Struct(">qq")  # wire_id, through_vt
_ACK_BODY = struct.Struct(">Q")  # upto

FRAME_HELLO = 1
FRAME_WELCOME = 2
FRAME_NOT_HERE = 3
FRAME_ITEM = 4
FRAME_ACK = 5
FRAME_BATCH = 6
FRAME_ERROR = 7
# Gateway client protocol (public ingress plane).  Tags are permanent:
# new frames append, existing tags are never renumbered.
FRAME_GW_HELLO = 8
FRAME_GW_WELCOME = 9
FRAME_GW_SUBMIT = 10
FRAME_GW_ACCEPT = 11
FRAME_GW_BUSY = 12

_FRAME_TAGS = {FRAME_HELLO, FRAME_WELCOME, FRAME_NOT_HERE,
               FRAME_ITEM, FRAME_ACK, FRAME_BATCH, FRAME_ERROR,
               FRAME_GW_HELLO, FRAME_GW_WELCOME, FRAME_GW_SUBMIT,
               FRAME_GW_ACCEPT, FRAME_GW_BUSY}


class CodecError(TransportError):
    """A frame or message could not be encoded or decoded."""


class WireVersionError(CodecError):
    """A frame carried another wire version in its header."""

    def __init__(self, version: int):
        super().__init__(
            f"wire version mismatch: got {version}, expect {WIRE_VERSION}"
        )
        self.version = version


# ----------------------------------------------------------------------
# Transport-level message types (cluster control; never seen by engines'
# virtual-time logic except FenceRequest, which halts them)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GoSignal:
    """Coordinator's start barrier: all processes begin at wall-clock
    ``t0`` (unix seconds), dialing the cluster's ``addresses`` table
    (node id -> ordered ``(host, port)`` candidates)."""

    t0: float
    addresses: Dict[str, List[Tuple[str, int]]]


@dataclass(frozen=True)
class Shutdown:
    """Coordinator asks a process to exit cleanly."""

    reason: str = ""


@dataclass(frozen=True)
class FenceRequest:
    """Best-effort fence: halt the named engine (false-positive safety).

    Sent by the replica-side recovery sequencing to the *primary*
    address of a declared-dead engine before its replica is promoted, so
    a merely-slow engine cannot keep emitting under a promoted identity.
    """

    engine_id: str


@dataclass(frozen=True)
class CorruptRequest:
    """Chaos fault: corrupt the named engine's live state in place.

    Delivered by the chaos driver to the process hosting ``engine_id``;
    the handler plants an untracked mutation (see
    :func:`repro.runtime.audit.corrupt_component_state`) that only the
    divergence audit can observe.  ``component`` optionally names the
    victim component (empty string = auto-pick).
    """

    engine_id: str
    component: str = ""


#: tag -> class for everything that may appear inside an ITEM frame.
#: Tags 1..N cover the core message types in their registry order;
#: transport types occupy a reserved block from 32.
MESSAGE_TAGS: Dict[int, Type] = {
    **{i + 1: cls for i, cls in enumerate(WIRE_MESSAGE_TYPES)},
    31: Heartbeat,
    32: GoSignal,
    33: Shutdown,
    34: FenceRequest,
    35: CorruptRequest,
}

_TAG_OF: Dict[Type, int] = {cls: tag for tag, cls in MESSAGE_TAGS.items()}
#: The two message tags whose record tail has a fixed layout.
_TAG_DATA = _TAG_OF[DataMessage]
_TAG_SILENCE = _TAG_OF[SilenceAdvance]


def message_tag(msg: Any) -> int:
    """The permanent wire tag of one message instance (by exact type)."""
    tag = _TAG_OF.get(type(msg))
    if tag is None:
        raise CodecError(f"not a wire message type: {type(msg).__name__}")
    return tag


def encode_message(msg: Any) -> Dict[str, Any]:
    """One message in its in-memory wire form: ``{"k": message tag,
    "f": field dict}`` (what an item's ``"msg"`` holds)."""
    return {"k": message_tag(msg), "f": message_fields(msg)}


def decode_message(wire: Dict[str, Any]) -> Any:
    """Inverse of :func:`encode_message`."""
    try:
        tag = wire["k"]
        fields = wire["f"]
    except (TypeError, KeyError) as exc:
        raise CodecError(f"malformed wire message: {wire!r}") from exc
    cls = MESSAGE_TAGS.get(tag)
    if cls is None:
        raise CodecError(f"unknown message tag {tag!r}")
    try:
        return cls(**fields)
    except TypeError as exc:
        raise CodecError(
            f"bad fields for {cls.__name__}: {list(fields)}"
        ) from exc


def _encode_tail(tag: int, fields: Dict[str, Any]) -> Tuple[bytes, bytes]:
    """One record tail as (fixed-layout part, cpser part); either may
    be empty (see the module docstring)."""
    if tag == _TAG_DATA:
        return (_DATA_TAIL.pack(fields["wire_id"], fields["seq"],
                                fields["vt"]),
                cpser.dumps(fields["payload"]))
    if tag == _TAG_SILENCE:
        return (_SILENCE_TAIL.pack(fields["wire_id"],
                                   fields["through_vt"]), b"")
    return b"", cpser.dumps(fields)


def _decode_tail(tag: int, buf: bytes, start: int, stop: int
                 ) -> Dict[str, Any]:
    """The field dict held in ``buf[start:stop]`` for message ``tag``."""
    if tag == _TAG_DATA:
        json_at = start + _DATA_TAIL.size
        if json_at > stop:
            raise CodecError("data record shorter than its fixed tail")
        wire_id, seq, vt = _DATA_TAIL.unpack_from(buf, start)
        return {"wire_id": wire_id, "seq": seq, "vt": vt,
                "payload": cpser.loads(buf[json_at:stop])}
    if tag == _TAG_SILENCE:
        if stop - start != _SILENCE_TAIL.size:
            raise CodecError(
                f"silence record tail is {stop - start} bytes, "
                f"expect {_SILENCE_TAIL.size}"
            )
        wire_id, through_vt = _SILENCE_TAIL.unpack_from(buf, start)
        return {"wire_id": wire_id, "through_vt": through_vt}
    fields = cpser.loads(buf[start:stop])
    if type(fields) is not dict:
        raise CodecError(f"message fields are not a dict (tag {tag})")
    return fields


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------


def item_body(seq: int, src: str, dst: str, msg: Any) -> Dict[str, Any]:
    """One item as it is held in memory on both sides of a channel.

    ``dst`` is accepted for the caller's symmetry and goes nowhere: the
    connection's HELLO names the destination, the record does not.
    """
    return {"seq": seq, "src": src, "msg": encode_message(msg)}


def _record_parts(items) -> List[bytes]:
    """The byte pieces of ``items`` as back-to-back records."""
    parts: List[bytes] = []
    item = None
    try:
        for item in items:
            wire = item["msg"]
            tag = wire["k"]
            src = item["src"].encode("utf-8")
            fixed, blob = _encode_tail(tag, wire["f"])
            src_len = len(src)
            parts.append(_REC_HEAD.pack(
                _REC_HEAD_COUNTED + src_len + len(fixed) + len(blob),
                item["seq"], tag, src_len) + src + fixed)
            parts.append(blob)
    except struct.error as exc:
        raise CodecError(
            f"field out of range in item {item!r:.200}: {exc}") from exc
    except (KeyError, TypeError, AttributeError) as exc:
        raise CodecError(f"malformed item {item!r:.200}: {exc!r}") from exc
    return parts


def _parse_records(buf: bytes, offset: int) -> List[Dict[str, Any]]:
    """The items held as records in ``buf[offset:]``."""
    items = []
    end = len(buf)
    head_size = _REC_HEAD.size
    unpack_head = _REC_HEAD.unpack_from
    while offset < end:
        if offset + head_size > end:
            raise CodecError("frame ends inside a record header")
        rec_len, seq, tag, src_len = unpack_head(buf, offset)
        tail_at = offset + head_size + src_len
        stop = offset + 4 + rec_len
        if stop > end or tail_at > stop:
            raise CodecError(
                f"record of {rec_len} bytes at offset {offset} overruns "
                f"its {'frame' if stop > end else 'own length'}"
            )
        items.append({
            "seq": seq,
            "src": buf[offset + head_size:tail_at].decode("utf-8"),
            "msg": {"k": tag, "f": _decode_tail(tag, buf, tail_at, stop)},
        })
        offset = stop
    return items


def _encode_body(frame_tag: int, body: Dict[str, Any]) -> List[bytes]:
    """The byte pieces of one frame body."""
    if frame_tag == FRAME_BATCH or frame_tag == FRAME_ITEM:
        items = batch_items(body)
        if frame_tag == FRAME_ITEM and len(items) != 1:
            raise CodecError(f"ITEM frame of {len(items)} items")
        return _record_parts(items)
    if frame_tag == FRAME_ACK:
        try:
            return [_ACK_BODY.pack(body["upto"])]
        except (struct.error, KeyError, TypeError) as exc:
            raise CodecError(f"malformed ack {body!r}: {exc!r}") from exc
    if frame_tag not in _FRAME_TAGS:
        raise CodecError(f"unknown frame tag {frame_tag!r}")
    return [cpser.dumps(body)]


def _frame(frame_tag: int, parts: List[bytes]) -> bytes:
    """Length prefix + version + tag + the joined ``parts``."""
    length = 2 + sum(map(len, parts))
    if length > MAX_FRAME_BYTES:
        raise CodecError(f"frame too large: {length} bytes")
    parts.insert(0, _FRAME_HEAD.pack(length, WIRE_VERSION, frame_tag))
    return b"".join(parts)


def encode_frame(frame_tag: int, body: Dict[str, Any]) -> bytes:
    """One full frame including the length prefix.

    ``body`` is what :func:`decode_frame_payload` returns for the tag:
    ``{"items": [...]}`` for ITEM (exactly one) and BATCH, ``{"upto"}``
    for ACK, the JSON dict itself otherwise.
    """
    return _frame(frame_tag, _encode_body(frame_tag, body))


def decode_frame_payload(payload: bytes) -> Tuple[int, Dict[str, Any]]:
    """Decode a frame's payload (everything after the length prefix).

    Raises :class:`CodecError` — and nothing else — for a payload that
    is not a well-formed frame of this wire version.
    """
    if len(payload) < 2:
        raise CodecError("truncated frame")
    version, frame_tag = payload[0], payload[1]
    if version != WIRE_VERSION:
        raise WireVersionError(version)
    try:
        if frame_tag == FRAME_BATCH:
            return frame_tag, {"items": _parse_records(payload, 2)}
        if frame_tag == FRAME_ITEM:
            items = _parse_records(payload, 2)
            if len(items) != 1:
                raise CodecError(f"ITEM frame of {len(items)} records")
            return frame_tag, {"items": items}
        if frame_tag == FRAME_ACK:
            if len(payload) != 2 + _ACK_BODY.size:
                raise CodecError(f"ack body of {len(payload) - 2} bytes")
            return frame_tag, {"upto": _ACK_BODY.unpack_from(payload, 2)[0]}
        if frame_tag not in _FRAME_TAGS:
            raise CodecError(f"unknown frame tag {frame_tag}")
        body = cpser.loads(payload[2:])
    except (StateError, UnicodeDecodeError) as exc:
        raise CodecError(f"malformed body in frame tag {frame_tag}: {exc}"
                         ) from exc
    if type(body) is not dict:
        raise CodecError("frame body is not a dict")
    return frame_tag, body


def encode_hello(peer_id: str, dst_node: str,
                 proto: int = WIRE_VERSION) -> bytes:
    return encode_frame(FRAME_HELLO, {"peer": peer_id, "dst": dst_node,
                                      "proto": proto})


def encode_welcome(incarnation: str) -> bytes:
    return encode_frame(FRAME_WELCOME, {"incarnation": incarnation})


def encode_not_here() -> bytes:
    return encode_frame(FRAME_NOT_HERE, {})


def encode_item(seq: int, src: str, msg: Any) -> bytes:
    return encode_frame(FRAME_ITEM,
                        {"items": [item_body(seq, src, "", msg)]})


def encode_ack(upto: int) -> bytes:
    return encode_frame(FRAME_ACK, {"upto": upto})


def encode_error(error: str) -> bytes:
    """Structured rejection, e.g. of a HELLO whose ``proto`` mismatches.

    Carries the *speaker's* wire version so the rejected peer can log
    what would have been accepted.
    """
    return encode_frame(FRAME_ERROR, {"error": error,
                                      "proto": WIRE_VERSION})


def encode_gw_hello(client_id: str, proto: int = WIRE_VERSION) -> bytes:
    """A client opens its gateway session.  ``client_id`` is
    ``<group>:<n>`` (e.g. ``clients:17``); the group prefix is what the
    chaos fault proxy classifies client links by."""
    return encode_frame(FRAME_GW_HELLO, {"client": client_id,
                                         "proto": proto})


def encode_gw_welcome(gateway_id: str, inputs) -> bytes:
    """The gateway accepts a session and advertises its input ids."""
    return encode_frame(FRAME_GW_WELCOME, {"gateway": gateway_id,
                                           "inputs": sorted(inputs)})


def encode_gw_submit(req: int, input_id: str, payload: Any) -> bytes:
    """One client submission.  ``req`` is a per-client monotonically
    increasing request id — the gateway's dedup key, so a retransmit
    after a reconnect can never be stamped twice."""
    return encode_frame(FRAME_GW_SUBMIT, {"req": req, "input": input_id,
                                          "payload": payload})


def encode_gw_accept(req: int, seq: int, vt: int) -> bytes:
    """The submission was stamped and logged: its ingress sequence
    number and assigned virtual time (also the payload's ``birth``)."""
    return encode_frame(FRAME_GW_ACCEPT, {"req": req, "seq": seq,
                                          "vt": vt})


def encode_gw_busy(req: int, reason: str, retry_ms: float) -> bytes:
    """Structured load-shed reject: ``reason`` is ``"rate"`` (per-client
    token bucket empty) or ``"shed"`` (global admission limit reached);
    ``retry_ms`` is the gateway's backoff hint."""
    return encode_frame(FRAME_GW_BUSY, {"req": req, "reason": reason,
                                        "retry_ms": float(retry_ms)})


class FrameEncoder:
    """Frame building for one end of a connection.

    Holds no state; senders and receivers keep one per connection and
    call :meth:`encode_batch`, which takes the item list directly
    instead of the ``{"items": ...}`` body :func:`encode_frame` takes.
    The bytes are identical either way.
    """

    __slots__ = ()

    def encode(self, frame_tag: int, body: Dict[str, Any]) -> bytes:
        """One full frame, byte-identical to :func:`encode_frame`."""
        return encode_frame(frame_tag, body)

    def encode_batch(self, items: list) -> bytes:
        """One BATCH frame from in-memory items (:func:`item_body`).

        Items must be in sender-sequence order; the receiver processes
        them exactly as a run of singleton ITEM frames and answers with
        one cumulative ACK for the whole frame.
        """
        return _frame(FRAME_BATCH, _record_parts(items))

    def encode_ack(self, upto: int) -> bytes:
        """One ACK frame."""
        return encode_ack(upto)


def batch_items(body: Dict[str, Any]) -> list:
    """The items of a decoded ITEM or BATCH frame body, validated."""
    items = body.get("items")
    if not isinstance(items, list):
        raise CodecError(f"malformed batch frame: {sorted(body)}")
    return items


async def read_frame_sized(reader
                           ) -> Optional[Tuple[int, Dict[str, Any], int]]:
    """Like :func:`read_frame`, but also report the frame's wire size.

    Returns ``(frame_tag, body, total_bytes)`` where ``total_bytes``
    includes the length prefix — the number the gateway's admission
    controller charges a submission for, so in-flight byte accounting
    matches what actually crossed the socket rather than a re-encode.
    Same truncation semantics as :func:`read_frame`.
    """
    try:
        header = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if exc.partial:
            raise TransportError(
                f"connection died mid-frame: {len(exc.partial)} of "
                f"{_LEN.size} header bytes"
            ) from exc
        return None
    except ConnectionError:
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise CodecError(f"frame too large: {length} bytes")
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise TransportError(
            f"connection died mid-frame: {len(exc.partial)} of {length} "
            f"payload bytes"
        ) from exc
    except ConnectionError as exc:
        raise TransportError(
            f"connection reset mid-frame awaiting {length} payload bytes"
        ) from exc
    frame_tag, body = decode_frame_payload(payload)
    return frame_tag, body, _LEN.size + length


async def read_frame(reader) -> Optional[Tuple[int, Dict[str, Any]]]:
    """Read one frame from an asyncio stream.

    Returns ``None`` only on a *clean* EOF, i.e. the connection closed
    exactly on a frame boundary.  A connection that dies after part of a
    frame was read — mid-header, or mid-payload after a full header —
    raises :class:`~repro.errors.TransportError`: a torn frame is a
    connection reset, never an orderly close, and callers must count it
    as one (the sender's unacked tail will be retransmitted after the
    reconnect).
    """
    frame = await read_frame_sized(reader)
    if frame is None:
        return None
    frame_tag, body, _nbytes = frame
    return frame_tag, body
