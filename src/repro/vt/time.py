"""Virtual-time arithmetic and deterministic tie-breaking.

Virtual times are plain Python ints (ticks; 1 tick = 1 ns as in the
paper's implementation).  This module centralises the unit constants and
the total order used to schedule messages deterministically.

The paper's footnote 2: "In the rare event that messages from two
different schedulers arrive at the identical time, there must be a
deterministic tie-breaking rule, e.g. using ID numbers of the wires to
break ties."  :class:`MessageKey` implements exactly that rule —
messages are ordered by ``(vt, wire_id, seq)``.
"""

from __future__ import annotations

from typing import NamedTuple

#: Ticks per microsecond (1 tick = 1 ns).
TICKS_PER_US = 1_000
#: Ticks per millisecond.
TICKS_PER_MS = 1_000_000
#: Ticks per second.
TICKS_PER_S = 1_000_000_000

#: A virtual time later than any reachable time; used as the horizon of a
#: closed wire (a wire whose sender has terminated is silent forever).
NEVER = 2**62


def format_vt(vt: int) -> str:
    """Render a virtual time human-readably (microseconds with remainder)."""
    if vt >= NEVER:
        return "NEVER"
    whole, frac = divmod(vt, TICKS_PER_US)
    if frac:
        return f"{whole}.{frac:03d}us"
    return f"{whole}us"


class MessageKey(NamedTuple):
    """Total order over messages: virtual time, then wire id, then seq.

    ``wire_id`` is the globally unique id assigned at wiring time, so the
    order is identical on every replica and on every replay — the
    deterministic tie-break the paper requires.  A tuple, so the
    scheduler's heaps order keys without calling back into Python.
    """

    vt: int
    wire_id: int
    seq: int

    def __str__(self) -> str:
        return f"(vt={format_vt(self.vt)}, wire={self.wire_id}, seq={self.seq})"
