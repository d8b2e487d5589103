"""Replay clocks (RepCl): compact causal clocks for recorded runs.

A :class:`RepCl` is an HLC-style hybrid clock over the component set
("Replay Clocks", "Tracing Distributed Algorithms Using Replay Clocks",
PAPERS.md): a coarse **epoch** derived from virtual time, a bounded map
of per-component **offsets** (how far behind the epoch each component's
last-known event is), and a tie-breaking **counter** for events that
share an ⟨epoch, offsets⟩ core.  Components whose knowledge has fallen
more than ``max_offset`` epochs behind are dropped from the offset map,
which bounds the encoded size regardless of run length.

Clocks are *pure observation*: they are computed by an attached
:class:`ReplayClockTracer` from the message stream and never ride on the
wire or influence scheduling, so traced and untraced runs stay
byte-identical (asserted by test).  It is the one observer of a run:
the flight recorder records its event stream, ``timetravel`` queries
the recording, and :func:`repro.runtime.tracing.explain_hold` reads its
clocks.

``merge`` is the lattice join and is commutative and associative
(hypothesis-checked in ``tests/props``): epochs max, per-component
known-epochs pointwise max, sub-threshold entries dropped, and the
counter carried only from inputs whose core equals the joined core.
Dropping is join-safe because an entry dropped at any intermediate step
(``known < max(epochs) - max_offset``) would also be dropped by the
final join, whose epoch is at least as large.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.vt.time import TICKS_PER_MS

#: Virtual ticks per epoch: one epoch per simulated millisecond.
DEFAULT_EPOCH_TICKS = TICKS_PER_MS

#: Offset window ε: components more than this many epochs behind the
#: clock's epoch are dropped from the offset map (bounded encoding).
DEFAULT_MAX_OFFSET = 1 << 16


@dataclass(frozen=True)
class RepCl:
    """One replay-clock value ⟨epoch, offsets, counter⟩.

    ``offsets`` is a canonically sorted tuple of ``(component_index,
    lag)`` pairs with ``0 <= lag < max_offset``; ``epoch - lag`` is the
    latest epoch the clock knows that component to have acted in.
    """

    epoch: int = 0
    offsets: Tuple[Tuple[int, int], ...] = ()
    counter: int = 0

    # -- knowledge -----------------------------------------------------
    def known(self) -> Dict[int, int]:
        """component index -> latest known epoch."""
        return {idx: self.epoch - lag for idx, lag in self.offsets}

    def known_epoch(self, index: int) -> Optional[int]:
        for idx, lag in self.offsets:
            if idx == index:
                return self.epoch - lag
        return None

    def core(self) -> Tuple[int, Tuple[Tuple[int, int], ...]]:
        """The ⟨epoch, offsets⟩ pair the counter disambiguates within."""
        return (self.epoch, self.offsets)

    # -- ordering ------------------------------------------------------
    def dominates(self, other: "RepCl",
                  max_offset: int = DEFAULT_MAX_OFFSET) -> bool:
        """True when this clock's knowledge covers ``other``'s.

        A component missing from the offset map is only known to be at
        most ``epoch - max_offset``, so missing entries dominate only
        what has fallen below that floor.
        """
        if self.epoch < other.epoch:
            return False
        mine = self.known()
        floor = self.epoch - max_offset
        for idx, known in other.known().items():
            if mine.get(idx, floor) < known:
                return False
        return True

    # -- encoding ------------------------------------------------------
    def encode(self) -> Dict:
        """Canonical-serializer-friendly dict (bounded size)."""
        return {
            "e": self.epoch,
            "o": [[idx, lag] for idx, lag in self.offsets],
            "c": self.counter,
        }

    @classmethod
    def decode(cls, doc: Dict) -> "RepCl":
        offsets = tuple(sorted((int(i), int(l)) for i, l in doc["o"]))
        return cls(epoch=int(doc["e"]), offsets=offsets,
                   counter=int(doc["c"]))

    def to_bytes(self) -> bytes:
        from repro.runtime import checkpoint as cpser

        return cpser.dumps(self.encode())

    @classmethod
    def from_bytes(cls, blob: bytes) -> "RepCl":
        from repro.runtime import checkpoint as cpser

        return cls.decode(cpser.loads(blob))


def _normalize(epoch: int, known: Dict[int, int],
               max_offset: int) -> Tuple[Tuple[int, int], ...]:
    """Canonical bounded offset tuple for a known-epoch map."""
    return tuple(sorted(
        (idx, epoch - e) for idx, e in known.items()
        if epoch - e < max_offset
    ))


def observe(clock: RepCl, index: int, vt: int,
            epoch_ticks: int = DEFAULT_EPOCH_TICKS,
            max_offset: int = DEFAULT_MAX_OFFSET) -> RepCl:
    """Advance ``clock`` for a local event of component ``index`` at ``vt``."""
    event_epoch = vt // epoch_ticks
    epoch = max(clock.epoch, event_epoch)
    known = clock.known()
    known[index] = max(known.get(index, event_epoch), event_epoch)
    offsets = _normalize(epoch, known, max_offset)
    counter = (clock.counter + 1
               if (epoch, offsets) == clock.core() else 0)
    return RepCl(epoch=epoch, offsets=offsets, counter=counter)


def merge(a: RepCl, b: RepCl,
          max_offset: int = DEFAULT_MAX_OFFSET) -> RepCl:
    """Lattice join of two clock values (commutative, associative)."""
    epoch = max(a.epoch, b.epoch)
    known: Dict[int, int] = {}
    for clk in (a, b):
        for idx, e in clk.known().items():
            if known.get(idx, e - 1) < e:
                known[idx] = e
    offsets = _normalize(epoch, known, max_offset)
    core = (epoch, offsets)
    counter = 0
    for clk in (a, b):
        if clk.core() == core:
            counter = max(counter, clk.counter)
    return RepCl(epoch=epoch, offsets=offsets, counter=counter)


def merge_all(clocks: Iterable[RepCl],
              max_offset: int = DEFAULT_MAX_OFFSET) -> RepCl:
    out = RepCl()
    for clk in clocks:
        out = merge(out, clk, max_offset)
    return out


class ReplayClockTracer:
    """Observer that stamps a :class:`RepCl` on every dispatched message.

    Implements the :class:`~repro.core.scheduler.ComponentRuntime`
    observer protocol (``on_arrival`` / ``on_hold`` / ``on_dispatch`` /
    ``on_emit`` / ``on_complete``).  Attachment is pure observation: the
    tracer keeps one clock per component, a ``(wire_id, seq) -> sender
    clock`` table filled at emission and joined at dispatch, and a
    single globally indexed event stream — nothing it does feeds back
    into scheduling, RNG draws, or the wire format.

    Messages with no recorded emission (external ingress traffic) become
    causal roots: their dispatch clock derives from the virtual time
    alone.
    """

    def __init__(self,
                 epoch_ticks: int = DEFAULT_EPOCH_TICKS,
                 max_offset: int = DEFAULT_MAX_OFFSET):
        self.epoch_ticks = epoch_ticks
        self.max_offset = max_offset
        self.clocks: Dict[str, RepCl] = {}
        self.node_index: Dict[str, int] = {}
        self.engine_of: Dict[str, str] = {}
        #: (wire_id, seq) -> the sender's clock at emission.
        self.message_clocks: Dict[Tuple[int, int], RepCl] = {}
        self.events: list = []
        self._next_index = 0
        self.arrivals = 0

    # -- attachment ----------------------------------------------------
    def attach(self, deployment) -> "ReplayClockTracer":
        """Observe every runtime a deployment builds, across failovers
        (a promoted engine's runtimes share the deployment's list).

        Component indices are assigned from the application's sorted
        component-name list, so any two deployments of the same spec
        agree on the index space.
        """
        for idx, name in enumerate(sorted(deployment.app.component_names())):
            self.node_index.setdefault(name, idx)
            self.engine_of[name] = deployment.placement.engine_of(name)
        deployment.observers.append(self)
        return self

    def attach_runtime(self, runtime, engine_id: str = "?") -> None:
        """Observe one runtime (an engine-built runtime shares its
        deployment's list: use :meth:`attach` there)."""
        name = runtime.component.name
        self.node_index.setdefault(name, len(self.node_index))
        self.engine_of[name] = engine_id
        runtime.observers.append(self)

    # -- lookups -------------------------------------------------------
    def clock_of(self, component: str) -> RepCl:
        return self.clocks.get(component, RepCl())

    def clock_for_message(self, wire_id: int, seq: int) -> Optional[RepCl]:
        return self.message_clocks.get((wire_id, seq))

    def __len__(self) -> int:
        return len(self.events)

    # -- observer protocol --------------------------------------------
    def _record(self, kind: str, component: str, wire: int, seq: int,
                vt: int, clock: RepCl) -> None:
        self.events.append({
            "index": self._next_index,
            "kind": kind,
            "component": component,
            "engine": self.engine_of.get(component, "?"),
            "wire": wire,
            "seq": seq,
            "vt": vt,
            "repcl": clock.encode(),
        })
        self._next_index += 1

    def on_arrival(self, runtime, msg) -> None:
        self.arrivals += 1

    def on_hold(self, runtime, msg) -> None:
        """Holds are not causal events: no clock moves."""

    def on_dispatch(self, runtime, msg) -> None:
        name = runtime.component.name
        clock = self.clocks.get(name, RepCl())
        sender = self.message_clocks.get((msg.wire_id, msg.seq))
        if sender is not None:
            clock = merge(clock, sender, self.max_offset)
        clock = observe(clock, self.node_index[name], msg.vt,
                        self.epoch_ticks, self.max_offset)
        self.clocks[name] = clock
        if sender is None:
            # External root: remember the derived clock so causal
            # queries can annotate the message itself.
            self.message_clocks[(msg.wire_id, msg.seq)] = clock
        self._record("dispatch", name, msg.wire_id, msg.seq, msg.vt, clock)

    def on_emit(self, runtime, spec, msg) -> None:
        name = runtime.component.name
        clock = observe(self.clocks.get(name, RepCl()),
                        self.node_index[name], msg.vt,
                        self.epoch_ticks, self.max_offset)
        self.clocks[name] = clock
        self.message_clocks[(msg.wire_id, msg.seq)] = clock
        self._record("send", name, msg.wire_id, msg.seq, msg.vt, clock)

    def on_complete(self, runtime, busy, end_vt: int) -> None:
        name = runtime.component.name
        clock = observe(self.clocks.get(name, RepCl()),
                        self.node_index[name], end_vt,
                        self.epoch_ticks, self.max_offset)
        self.clocks[name] = clock
        msg = busy.message
        self._record("complete", name, msg.wire_id, msg.seq, end_vt, clock)
