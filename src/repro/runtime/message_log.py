"""Stable logging of external input messages.

"When a message arrives at the system from an external source, it is (a)
given a timestamp, and then is (b) logged — either to external stable
storage, or to the backup machine.  Because the message is logged, it is
safe to use the actual real time as the virtual time of this message.
Only external messages are logged." (paper II.E)

:class:`ExternalMessageLog` is the stable storage for one external input
wire: it survives the failure of the engine it feeds, and it is the
replay source for that wire after failover.  Appends are free in
simulated time: the paper's configuration logs to the co-located backup
asynchronously relative to the sender but before processing.

Stable storage holds bytes, so the log does too: each payload is encoded
once with :mod:`marshal` when it is appended and decoded only when read.
The log therefore never aliases the object the handler received, and a
handler that mutates its input cannot rewrite what replay re-delivers.
"""

from __future__ import annotations

import marshal
from array import array
from collections import deque
from itertools import islice
from typing import Any, Deque, List, Tuple

from repro.errors import RecoveryError, StateError


def unencodable(payload: Any, wire_id: int) -> StateError:
    """The error for a payload ``marshal.dumps`` refused.

    ``marshal`` round-trips the builtin payload types exactly (dict
    insertion order, tuples, ``bool`` vs ``int``) and refuses anything
    else, subclasses of builtins included (an ``IntEnum`` member, an
    ``OrderedDict``).  Callers encode inline, since this is the hot path
    of every logged input and delivered output.
    """
    return StateError(
        f"wire {wire_id}: payload of type {type(payload).__name__} cannot "
        f"be stored (marshal takes builtin types only)"
    )


class ExternalMessageLog:
    """Append-only stable log of (seq, vt, payload) for one wire.

    Only the entries not yet stable downstream are kept, as two columns:
    the encoded payloads in a deque and their virtual times in an
    ``array('q')``.  The sequence number is implicit — the head entry's
    is :attr:`truncated_through` + 1 and each later one counts up — so
    one logged message costs its payload's ``marshal`` bytes (a ``bytes``
    object, which the garbage collector does not track), a deque slot
    and 8 bytes of vt.  The ``(seq, vt, payload)`` tuples that
    :meth:`entries_from` and :meth:`live_entries` return are built, and
    their payloads decoded, when read; only replay and the oracles read
    them.  Each read returns fresh objects equal to the payloads as
    appended.

    Garbage collection pops the newly stable prefix of payloads and
    moves a head offset over the vt column, which is cut in one block
    once the collected part outgrows the live part: its cost and the
    log's memory follow the unstable window, not the run.
    """

    def __init__(self, wire_id: int):
        self.wire_id = wire_id
        #: Encoded live payloads; ``_payloads[i]`` has sequence number
        #: ``_base + i``.
        self._payloads: Deque[bytes] = deque()
        #: Virtual times: ``_vts[_vt_head + i]`` belongs to ``_payloads[i]``.
        self._vts = array("q")
        self._vt_head = 0
        #: Sequence number of ``_payloads[0]`` (every lower one is collected).
        self._base = 0
        self._next_seq = 0
        #: Virtual time of the newest entry (-1 if empty).
        self.last_vt = -1

    def append(self, vt: int, payload: Any) -> int:
        """Persist one message; returns its assigned sequence number.

        A refused message (a regressed vt, a payload ``marshal`` cannot
        hold) raises before any column is touched.
        """
        if vt < self.last_vt:
            raise RecoveryError(
                f"log {self.wire_id}: virtual time regressed "
                f"({vt} < {self.last_vt})"
            )
        try:
            blob = marshal.dumps(payload)
        except ValueError:
            raise unencodable(payload, self.wire_id) from None
        self.last_vt = vt
        seq = self._next_seq
        self._next_seq += 1
        self._vts.append(vt)
        self._payloads.append(blob)
        return seq

    def __len__(self) -> int:
        return self._next_seq

    @property
    def truncated_through(self) -> int:
        """Highest garbage-collected sequence number (-1: none)."""
        return self._base - 1

    def live_entries(self) -> List[Tuple[int, int, Any]]:
        """The entries not yet garbage-collected, oldest first."""
        return self._entries(0)

    def entries_from(self, from_seq: int) -> List[Tuple[int, int, Any]]:
        """All logged entries with seq >= ``from_seq`` (replay source)."""
        if from_seq < 0:
            raise RecoveryError(f"negative replay seq {from_seq}")
        if from_seq < self._base:
            raise RecoveryError(
                f"log {self.wire_id}: seq {from_seq} was garbage-collected "
                f"(stable through {self.truncated_through})"
            )
        return self._entries(from_seq - self._base)

    def _entries(self, index: int) -> List[Tuple[int, int, Any]]:
        """``(seq, vt, payload)`` of the live entries from ``index`` on."""
        return list(zip(range(self._base + index, self._next_seq),
                        self._vts[self._vt_head + index:],
                        map(marshal.loads,
                            islice(self._payloads, index, None))))

    def truncate_through(self, seq_inclusive: int) -> int:
        """Garbage-collect a stable prefix (downstream checkpoint covers it).

        Sequence numbers stay stable: later entries keep theirs.  Only
        the newly stable payloads are visited; the vt column is cut in
        one block, amortised over the entries collected since the last
        cut.  Returns the number of entries collected.
        """
        collected = max(0, min(seq_inclusive + 1, self._next_seq) - self._base)
        popleft = self._payloads.popleft
        for _ in range(collected):
            popleft()
        self._base += collected
        self._vt_head += collected
        if self._vt_head * 2 > len(self._vts):
            del self._vts[:self._vt_head]
            self._vt_head = 0
        return collected
