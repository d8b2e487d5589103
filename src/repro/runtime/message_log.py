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

from collections import deque
from itertools import islice
from typing import Any, Deque, List, Tuple

from repro.errors import RecoveryError


class ExternalMessageLog:
    """Append-only stable log of (seq, vt, payload) for one wire.

    Only the entries not yet stable downstream are kept: a deque whose
    head has sequence number :attr:`truncated_through` + 1.  Garbage
    collection pops the newly stable prefix and nothing else, so its
    cost and the log's memory follow the unstable window, not the run.
    """

    def __init__(self, wire_id: int):
        self.wire_id = wire_id
        self._live: Deque[Tuple[int, int, Any]] = deque()
        #: Sequence number of ``_live[0]`` (every lower one is collected).
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
        self._live.append((seq, vt, payload))
        return seq

    def __len__(self) -> int:
        return self._next_seq

    @property
    def truncated_through(self) -> int:
        """Highest garbage-collected sequence number (-1: none)."""
        return self._base - 1

    def live_entries(self) -> List[Tuple[int, int, Any]]:
        """The entries not yet garbage-collected, oldest first."""
        return list(self._live)

    def entries_from(self, from_seq: int) -> List[Tuple[int, int, Any]]:
        """All logged entries with seq >= ``from_seq`` (replay source)."""
        if from_seq < 0:
            raise RecoveryError(f"negative replay seq {from_seq}")
        if from_seq < self._base:
            raise RecoveryError(
                f"log {self.wire_id}: seq {from_seq} was garbage-collected "
                f"(stable through {self.truncated_through})"
            )
        return list(islice(self._live, from_seq - self._base, None))

    def last_vt(self) -> int:
        """Virtual time of the newest entry (-1 if empty)."""
        return self._last_vt

    def truncate_through(self, seq_inclusive: int) -> int:
        """Garbage-collect a stable prefix (downstream checkpoint covers it).

        Sequence numbers stay stable: later entries keep theirs.  Only
        the newly stable entries are visited.  Returns the number of
        entries collected.
        """
        collected = max(0, min(seq_inclusive + 1, self._next_seq) - self._base)
        popleft = self._live.popleft
        for _ in range(collected):
            popleft()
        self._base += collected
        return collected
