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

from typing import Any, List, Tuple

from repro.errors import RecoveryError


class ExternalMessageLog:
    """Append-only stable log of (seq, vt, payload) for one wire."""

    def __init__(self, wire_id: int):
        self.wire_id = wire_id
        self._entries: List[Tuple[int, int, Any]] = []
        self._truncated_through = -1
        self._last_vt = -1

    def append(self, vt: int, payload: Any) -> int:
        """Persist one message; returns its assigned sequence number."""
        if vt < self._last_vt:
            raise RecoveryError(
                f"log {self.wire_id}: virtual time regressed "
                f"({vt} < {self._last_vt})"
            )
        self._last_vt = vt
        seq = len(self._entries)
        self._entries.append((seq, vt, payload))
        return seq

    def __len__(self) -> int:
        return len(self._entries)

    def entries_from(self, from_seq: int) -> List[Tuple[int, int, Any]]:
        """All logged entries with seq >= ``from_seq`` (replay source)."""
        if from_seq < 0:
            raise RecoveryError(f"negative replay seq {from_seq}")
        if from_seq <= self._truncated_through:
            raise RecoveryError(
                f"log {self.wire_id}: seq {from_seq} was garbage-collected "
                f"(stable through {self._truncated_through})"
            )
        return [e for e in self._entries[from_seq:] if e is not None]

    def last_vt(self) -> int:
        """Virtual time of the newest entry (-1 if empty)."""
        return self._last_vt

    def truncate_through(self, seq_inclusive: int) -> int:
        """Garbage-collect a stable prefix (downstream checkpoint covers it).

        Entries are replaced with tombstones rather than shifted so that
        sequence numbers remain stable.  Returns the number of entries
        collected.
        """
        collected = 0
        for i in range(min(seq_inclusive + 1, len(self._entries))):
            if self._entries[i] is not None:
                self._entries[i] = None  # type: ignore[assignment]
                collected += 1
        self._truncated_through = max(self._truncated_through,
                                      min(seq_inclusive, len(self._entries) - 1))
        return collected
