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
"""

from __future__ import annotations

from array import array
from collections import deque
from itertools import islice
from typing import Any, Deque, List, Tuple

from repro.errors import RecoveryError


class ExternalMessageLog:
    """Append-only stable log of (seq, vt, payload) for one wire.

    Only the entries not yet stable downstream are kept, as two columns:
    the payloads in a deque and their virtual times in an ``array('q')``.
    The sequence number is implicit — the head entry's is
    :attr:`truncated_through` + 1 and each later one counts up — so one
    logged message costs its payload, a deque slot and 8 bytes of vt
    (16 bytes over the payload, where a ``(seq, vt, payload)`` tuple
    with a boxed seq and vt cost about 140).  The ``(seq, vt, payload)``
    tuples that :meth:`entries_from` and :meth:`live_entries` return are
    built when read; only replay and the oracles read them.

    Garbage collection pops the newly stable prefix of payloads and
    moves a head offset over the vt column, which is cut in one block
    once the collected part outgrows the live part: its cost and the
    log's memory follow the unstable window, not the run.
    """

    def __init__(self, wire_id: int):
        self.wire_id = wire_id
        #: Live payloads; ``_payloads[i]`` has sequence number ``_base + i``.
        self._payloads: Deque[Any] = deque()
        #: Virtual times: ``_vts[_vt_head + i]`` belongs to ``_payloads[i]``.
        self._vts = array("q")
        self._vt_head = 0
        #: Sequence number of ``_payloads[0]`` (every lower one is collected).
        self._base = 0
        self._next_seq = 0
        self._last_vt = -1

    def append(self, vt: int, payload: Any) -> int:
        """Persist one message; returns its assigned sequence number."""
        if vt < self._last_vt:
            raise RecoveryError(
                f"log {self.wire_id}: virtual time regressed "
                f"({vt} < {self._last_vt})"
            )
        self._last_vt = vt
        seq = self._next_seq
        self._next_seq += 1
        self._vts.append(vt)
        self._payloads.append(payload)
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
                        islice(self._payloads, index, None)))

    def last_vt(self) -> int:
        """Virtual time of the newest entry (-1 if empty)."""
        return self._last_vt

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
