"""Wire-level message types.

Everything that travels between engines (or between components within an
engine) is one of the dataclasses below.  Data-plane messages carry a
virtual time; control-plane messages implement silence propagation,
curiosity, replay, and checkpoint shipping.

All payloads are required to be values (no shared mutable objects) — the
Python analogue of the paper's "components do not share memory"
restriction, enforced by deep-copying payloads at the wire in strict
mode (see :class:`repro.runtime.transport.Transport`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Tuple, Type

from repro.vt.time import MessageKey


@dataclass(frozen=True)
class DataMessage:
    """A data tick: one one-way message on a wire.

    ``seq`` is the wire-local sequence number assigned by the sender's
    :class:`~repro.vt.ticks.TickStreamSender`; ``vt`` is the virtual time
    at which the message is to be processed at the receiver.
    """

    wire_id: int
    seq: int
    vt: int
    payload: Any

    def key(self) -> MessageKey:
        """Deterministic scheduling key (vt, wire, seq)."""
        return MessageKey(self.vt, self.wire_id, self.seq)


@dataclass(frozen=True)
class CallRequest(DataMessage):
    """A two-way service call.  ``call_id`` routes the eventual reply."""

    call_id: int = 0
    reply_wire_id: int = 0


@dataclass(frozen=True)
class CallReply(DataMessage):
    """The reply to a :class:`CallRequest` with the same ``call_id``."""

    call_id: int = 0


@dataclass(frozen=True)
class SilenceAdvance:
    """Sender promises wire ``wire_id`` is silent through ``through_vt``."""

    wire_id: int
    through_vt: int


@dataclass(frozen=True)
class CuriosityProbe:
    """Receiver asks the sender of ``wire_id`` for a fresh silence fact.

    ``want_vt`` is advisory: the virtual time the receiver is trying to
    clear.  Senders may use it to avoid answering with an already-known
    horizon.
    """

    wire_id: int
    want_vt: int


@dataclass(frozen=True)
class ReplayRequest:
    """Receiver asks the sender of ``wire_id`` to re-send ticks.

    Sent after failover (the restored checkpoint is in the past) or when
    a sequence gap reveals message loss.
    """

    wire_id: int
    from_seq: int


@dataclass(frozen=True)
class StableNotice:
    """Receiver engine tells a sender that ticks through ``through_seq``
    on ``wire_id`` are covered by a stable checkpoint and may be trimmed
    from the sender's retained replay buffer."""

    wire_id: int
    through_seq: int


@dataclass(frozen=True)
class CheckpointData:
    """A soft checkpoint shipped from an active engine to its replica.

    ``incremental`` distinguishes delta checkpoints (containing only
    dirty state) from full ones; ``blob`` is the serialized state.
    """

    engine_id: str
    cp_seq: int
    incremental: bool
    blob: bytes


@dataclass(frozen=True)
class CheckpointAck:
    """Replica acknowledges that checkpoint ``cp_seq`` is stable.

    ``replica_id`` identifies the acknowledging follower so an engine
    shipping its chain to several followers can wait for *all* of them
    before declaring a checkpoint stable.  Empty (the pre-group legacy
    form) means "the engine's only replica" and counts as a full
    acknowledgement.
    """

    engine_id: str
    cp_seq: int
    replica_id: str = ""


@dataclass(frozen=True)
class DeterminismFaultRecord:
    """A synchronously-logged estimator re-calibration (paper II.G.4).

    The new estimator takes effect for messages dequeued at virtual time
    >= ``effective_vt``; replay applies the old estimator before that.
    """

    component: str
    handler: str
    effective_vt: int
    coefficients: tuple
    intercept: int = 0


# ----------------------------------------------------------------------
# Wire round-trip support (used by repro.net.codec)
# ----------------------------------------------------------------------

#: Every message class defined here that may cross a real network
#: socket, in a fixed order.  :mod:`repro.net.codec` assigns each a
#: permanent wire-format type tag from this tuple plus the transport-
#: level types it adds (heartbeats, cluster control); the order below is
#: therefore part of the wire format and entries must only ever be
#: appended.  Subclasses are listed before their base so exact-type
#: round-trips are unambiguous.
WIRE_MESSAGE_TYPES: Tuple[Type, ...] = (
    CallRequest,
    CallReply,
    DataMessage,
    SilenceAdvance,
    CuriosityProbe,
    ReplayRequest,
    StableNotice,
    CheckpointData,
    CheckpointAck,
    DeterminismFaultRecord,
)


#: class -> its field names; ``dataclasses.fields`` rebuilds the tuple
#: on every call and this runs once per message sent.
_FIELD_NAMES: Dict[Type, Tuple[str, ...]] = {}


def message_fields(msg: Any) -> Dict[str, Any]:
    """Shallow field dict of one wire message, in declaration order.

    Unlike :func:`dataclasses.asdict` this does not recurse into
    payloads, so arbitrary payload values survive a round-trip through
    ``cls(**message_fields(msg))`` unchanged.
    """
    names = _FIELD_NAMES.get(type(msg))
    if names is None:
        names = tuple(f.name for f in dataclasses.fields(msg))
        _FIELD_NAMES[type(msg)] = names
    return {name: getattr(msg, name) for name in names}
