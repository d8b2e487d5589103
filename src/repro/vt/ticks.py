"""Per-wire tick-stream accounting.

Every wire between components carries a conceptual stream of ticks: each
tick is either a *data* tick (a message) or *silent* (paper section II.D:
"Each tick on a communications channel between components is accounted
for either as a data tick, or as a silence").

The sender side (:class:`TickStreamSender`) assigns sequence numbers,
enforces that data ticks have strictly increasing virtual times, enforces
previously promised silence, and retains sent messages in a volatile
buffer so that the range can be *replayed* after a downstream failover.
The buffer is trimmed when the receiver acknowledges a stable checkpoint
covering a prefix (inter-component messages are never logged — II.F.2).

The receiver side (:class:`TickStreamReceiver`) tracks the accounted
horizon, detects sequence gaps (lost messages → replay request), and
discards duplicates ("the duplicate messages will have duplicate
timestamps and will be discarded" — II.F.4).
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Callable, Deque, List, Optional

from repro.errors import SilenceViolationError, VirtualTimeError


class TickStreamSender:
    """Sender-side bookkeeping for one outgoing wire.

    Retained items are the full wire messages (anything with ``seq`` and
    ``vt`` attributes); keeping the message itself makes replay a plain
    re-transmit, identical bytes included.

    Silence promises come in two strengths:

    * **observational** (default) — a statement of fact derived from
      estimators and message history.  Emitting a data tick at or below
      an observational promise is a hard error: it means the promise was
      not actually a fact, which would break determinism.
    * **binding** (``binding=True``) — hyper-aggressive promises (the
      paper's bias algorithm) that *constrain* future outputs: the
      runtime bumps later output virtual times above ``floor_vt``.
      Binding promises are themselves deterministic (derived only from
      the emitted-message history), so the bump replays identically.
    """

    def __init__(self, wire_id: int, retain: bool = True):
        self.wire_id = wire_id
        #: Sequence number of the next data tick to send.
        self.next_seq = 0
        #: Virtual time of the last data tick sent (-1 before any).
        self.last_data_vt = -1
        #: Highest virtual time promised silent.
        self.silence_promised = -1
        #: Highest *binding* promise; future outputs must exceed this.
        self.floor_vt = -1
        #: Whether to retain messages for replay.  Disabled for wires to
        #: external consumers (which never request replay) and for
        #: deployments that do not checkpoint at all.
        self.retain = retain
        #: Retained messages for replay, seq-ascending.
        self._retained: Deque[object] = deque()
        #: Virtual-time window for load-correlated delay estimation
        #: (None = no tracking).  Part of the deterministic state:
        #: emission vts inside the window feed
        #: :class:`~repro.core.estimators.QueueCorrelatedDelayEstimator`.
        self.recent_window: Optional[int] = None
        self._recent_vts: Deque[int] = deque()

    def emit_message(self, message) -> None:
        """Record an outgoing data tick.

        ``message.seq`` must equal :attr:`next_seq` (the caller builds
        the message with that sequence number) and ``message.vt`` must
        advance past both the last data tick and every promise.
        """
        if message.seq != self.next_seq:
            raise VirtualTimeError(
                f"wire {self.wire_id}: message seq {message.seq} != "
                f"expected {self.next_seq}"
            )
        vt = message.vt
        if vt <= self.last_data_vt:
            raise VirtualTimeError(
                f"wire {self.wire_id}: data tick vt {vt} does not advance "
                f"past {self.last_data_vt}"
            )
        if vt <= self.silence_promised:
            raise SilenceViolationError(
                f"wire {self.wire_id}: data tick at vt {vt} violates "
                f"silence promised through {self.silence_promised}"
            )
        self.next_seq += 1
        self.last_data_vt = vt
        # A data tick at vt implicitly accounts everything through vt.
        self.silence_promised = vt
        if self.retain:
            self._retained.append(message)
        if self.recent_window is not None:
            self._recent_vts.append(vt)
            floor = vt - self.recent_window
            while self._recent_vts and self._recent_vts[0] <= floor:
                self._recent_vts.popleft()

    def promise_silence(self, through_vt: int, binding: bool = False) -> int:
        """Record a silence promise; returns the new horizon.

        Promises are monotonic: promising less than already promised is a
        no-op (promises are facts; facts don't retract).
        """
        if through_vt > self.silence_promised:
            self.silence_promised = through_vt
        if binding and through_vt > self.floor_vt:
            self.floor_vt = through_vt
        return self.silence_promised

    def replay_from(self, from_seq: int) -> List[object]:
        """Retained messages with seq >= ``from_seq``, for re-sending."""
        return [m for m in self._retained if m.seq >= from_seq]

    def trim_through(self, seq_inclusive: int) -> int:
        """Drop retained messages with seq <= ``seq_inclusive``.

        Called when the downstream engine acknowledges a checkpoint that
        covers those ticks.  Returns the number of messages dropped.
        """
        dropped = 0
        while self._retained and self._retained[0].seq <= seq_inclusive:
            self._retained.popleft()
            dropped += 1
        return dropped

    def retained_count(self) -> int:
        """Number of messages currently retained for potential replay."""
        return len(self._retained)

    def recent_count(self, at_vt: int) -> int:
        """Data ticks emitted within ``recent_window`` before ``at_vt``.

        A deterministic function of the emission history, usable by
        load-correlated delay estimators.
        """
        if self.recent_window is None:
            return 0
        floor = at_vt - self.recent_window
        return sum(1 for vt in self._recent_vts if floor < vt <= at_vt)

    # -- checkpoint support -------------------------------------------
    def snapshot(self, encode: Optional[Callable[[object], object]] = None) -> dict:
        """Serializable sender state (for engine checkpoints)."""
        encode = encode or (lambda m: m)
        return {
            "wire_id": self.wire_id,
            "next_seq": self.next_seq,
            "last_data_vt": self.last_data_vt,
            "silence_promised": self.silence_promised,
            "floor_vt": self.floor_vt,
            "retain": self.retain,
            "retained": [encode(m) for m in self._retained],
            "recent_window": self.recent_window,
            "recent_vts": list(self._recent_vts),
        }

    def capture_mark(self) -> tuple:
        """The positions a later :meth:`delta_snapshot` is taken against.

        Retained messages leave only from the front (trim) and arrive
        only at the back (emit), and the recent-vts window moves only on
        emit, so these few numbers say exactly what changed since.
        """
        retained = self._retained
        return (self.next_seq, self.last_data_vt, self.silence_promised,
                self.floor_vt,
                retained[0].seq if retained else self.next_seq,
                len(self._recent_vts))

    def delta_snapshot(self, mark: tuple,
                       encode: Callable[[object], object]) -> Optional[dict]:
        """What changed since ``mark`` (a :meth:`capture_mark`), or None.

        The entry carries the scalars, the trim floor (the seq of the
        oldest message still retained) and the messages emitted since
        the mark, never the retained window itself; see
        :func:`repro.runtime.state_merge.merge_sender`.
        """
        now = self.capture_mark()
        if now == mark:
            return None
        emitted = self.next_seq - mark[0]
        entry = {
            "next_seq": self.next_seq,
            "last_data_vt": self.last_data_vt,
            "silence_promised": self.silence_promised,
            "floor_vt": self.floor_vt,
            "trim_floor": now[4],
            "appended": [encode(m) for m in _tail(self._retained, emitted)],
        }
        if self.recent_window is not None:
            entry["recent_len"] = now[5]
            entry["recent_vts"] = _tail(self._recent_vts, emitted)
        return entry

    @classmethod
    def restore(cls, snap: dict,
                decode: Optional[Callable[[object], object]] = None) -> "TickStreamSender":
        """Rebuild a sender from :meth:`snapshot` output."""
        decode = decode or (lambda m: m)
        obj = cls(snap["wire_id"], retain=snap.get("retain", True))
        obj.next_seq = snap["next_seq"]
        obj.last_data_vt = snap["last_data_vt"]
        obj.silence_promised = snap["silence_promised"]
        obj.floor_vt = snap.get("floor_vt", -1)
        obj._retained = deque(decode(m) for m in snap["retained"])
        obj.recent_window = snap.get("recent_window")
        obj._recent_vts = deque(snap.get("recent_vts", []))
        return obj


def _tail(items: Deque, n: int) -> list:
    """The last ``n`` items of a deque (all of them if it is shorter)."""
    tail = list(islice(reversed(items), n))
    tail.reverse()
    return tail


class TickStreamReceiver:
    """Receiver-side bookkeeping for one incoming wire."""

    def __init__(self, wire_id: int):
        self.wire_id = wire_id
        #: Next expected data-tick sequence number.
        self.next_seq = 0
        #: All ticks through this vt are accounted (data received in-order
        #: or promised silent).
        self.horizon = -1
        self._last_vt = -1

    def accept(self, seq: int, vt: int) -> str:
        """Classify an arriving data tick.

        Returns one of:

        * ``"deliver"`` — in-order, fresh: hand to the scheduler.
        * ``"duplicate"`` — already seen (replay overshoot): discard.
        * ``"gap"`` — sequence jumped: messages were lost; the caller must
          request replay of ``[next_seq, seq)`` before this tick can be
          delivered.
        """
        if seq < self.next_seq:
            return "duplicate"
        if seq > self.next_seq:
            return "gap"
        if vt <= self._last_vt:
            # In-order tick whose vt regressed: sender bug.
            raise VirtualTimeError(
                f"wire {self.wire_id}: in-order tick seq {seq} has vt {vt} "
                f"not beyond previous data vt {self._last_vt}"
            )
        self.next_seq = seq + 1
        self.horizon = max(self.horizon, vt)
        self._last_vt = vt
        return "deliver"

    def advance_silence(self, through_vt: int) -> bool:
        """Apply a silence advance; returns True if the horizon moved."""
        if through_vt > self.horizon:
            self.horizon = through_vt
            return True
        return False

    # -- checkpoint support -------------------------------------------
    def snapshot(self) -> dict:
        """Serializable receiver state (for engine checkpoints)."""
        return {
            "wire_id": self.wire_id,
            "next_seq": self.next_seq,
            "horizon": self.horizon,
            "last_vt": self._last_vt,
        }

    @classmethod
    def restore(cls, snap: dict) -> "TickStreamReceiver":
        """Rebuild a receiver from :meth:`snapshot` output."""
        obj = cls(snap["wire_id"])
        obj.next_seq = snap["next_seq"]
        obj.horizon = snap["horizon"]
        obj._last_vt = snap["last_vt"]
        return obj
