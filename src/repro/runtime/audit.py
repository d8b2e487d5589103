"""Continuous divergence audit with optional self-healing.

The chaos plane's byte-identity invariant checks determinism *after* a
run; nothing checks it *during* one.  Yet the recovery protocol's whole
correctness argument rests on an equivalence the runtime never
verifies: the state a promoted replica would rebuild (the state it
holds, every shipped delta folded in on arrival, plus log replay) must
equal the state the live engine actually has.  An untracked mutation —
a bit flip, an out-of-band write that bypasses the dirty-tracking
cells — breaks that equivalence silently: deltas never carry it, so
the replica diverges from the live engine and every future failover
resurrects a state the live run never produced.

:class:`DivergenceAuditor` turns the equivalence into a runtime
invariant.  It mirrors the state a follower holds — decoding the very
bytes the follower receives and folding each delta with the follower's
own rule, :func:`~repro.runtime.state_merge.fold_chain` — and, at each
checkpoint boundary, rolls that state forward with a fresh incremental
delta: exactly what a replica-plus-replay would compute, because a
delta carries every *tracked* mutation since the last capture.  The
rebuilt state is then compared component-by-component against the live
engine's canonical :mod:`repro.runtime.checkpoint` bytes:

* equal bytes — the recovery path is proven equivalent to the live
  state *right now*, not just at test time;
* differing bytes — some mutation escaped tracking.  In ``raise`` mode
  the auditor throws a structured
  :class:`~repro.errors.DivergenceError`; in ``heal`` mode it
  quarantines the live cells, installs the rebuilt snapshot (the
  state the followers hold is the durable truth — the corrupted live
  copy is the replica that must yield), bumps the engine's incarnation epoch,
  and lets the interrupted capture proceed as a *full* checkpoint so
  every follower restarts from healed state.  With a handler in flight
  the heal is deferred; the capture that follows is a delta like any
  other (only a heal or an incarnation's first capture is full), so
  the corruption never reaches a follower, and the next boundary
  retries.

The audit is a pure read unless it heals, and healing restores
byte-identical pre-corruption state at a message boundary, so audited
runs produce byte-identical output streams to unaudited ones.

Detection limits: a corruption that *does* go through the cell API (and
is therefore dirty-tracked) is indistinguishable from legitimate
computation without re-executing handlers, and is faithfully shipped to
the replica — live and rebuilt stay equal.  The auditor catches
exactly the class of faults that silently breaks recovery: divergence
between the live state and its checkpointed reconstruction.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

from repro.core.state import MapCell, ValueCell
from repro.errors import DivergenceError, StateError
from repro.runtime import checkpoint as cpser
from repro.runtime.state_merge import fold_chain, merge_component_snapshots

AUDIT_MODES = ("off", "raise", "heal")

#: The foreign key planted by :func:`corrupt_component_state`.  Chosen to
#: collide with nothing an application would store.
CORRUPTION_KEY = "__chaos_bitflip__"


class DivergenceAuditor:
    """Audits one engine's live state against its followers' state."""

    def __init__(self, engine, mode: str = "heal", every: int = 1):
        if mode not in ("raise", "heal"):
            raise StateError(f"unknown audit mode {mode!r}")
        if every < 1:
            raise StateError("audit_every must be >= 1")
        self.engine = engine
        self.mode = mode
        self.every = int(every)
        #: The follower's held state: component name -> full snapshot
        #: dict, or None until the first checkpoint is mirrored.
        self._base: Optional[Dict[str, dict]] = None
        self._base_cp_seq = -1
        self._captures_since_audit = 0
        # Outcome counters (also exported as metrics / gauges).
        self.checks = 0
        self.divergences = 0
        self.heals = 0
        self.deferred = 0

    # -- mirroring the follower ------------------------------------------
    def note_checkpoint(self, cp_seq: int, incremental: bool,
                        blob: bytes) -> None:
        """Mirror one shipped checkpoint (the same bytes the follower
        got), folded as the follower folds it."""
        decoded = cpser.loads(blob)["components"]
        if not incremental or self._base is None:
            if incremental:
                # Promotion or late attach: deltas before our first full
                # checkpoint cannot be anchored; wait for the next full.
                return
            self._base = decoded
        else:
            self._base = fold_chain(self._base, [decoded])
        self._base_cp_seq = cp_seq
        self._captures_since_audit += 1

    # -- audit -----------------------------------------------------------
    def due(self) -> bool:
        """Whether an audit should run before the next capture."""
        return (self._base is not None
                and self._captures_since_audit >= self.every)

    def audit_once(self) -> str:
        """Audit now (at a checkpoint boundary); returns the outcome.

        Outcomes: ``"clean"`` (live equals rebuild), ``"healed"``
        (divergence found and repaired — the caller must follow with a
        *full* checkpoint), ``"deferred"`` (divergence found but a
        single-segment handler is in flight, so an in-place restore is
        unsafe; the audit retries at the next boundary, and the delta
        captured meanwhile cannot carry the untracked corruption).  In
        ``raise`` mode a divergence raises
        :class:`~repro.errors.DivergenceError` instead.
        """
        engine = self.engine
        metrics = engine.metrics
        if self._base is None:
            raise StateError(f"{engine.engine_id}: no checkpoint to audit "
                             f"against")
        self._captures_since_audit = 0
        started = time.perf_counter()
        # Roll the mirrored state forward with a fresh delta: this is the
        # state a replica-plus-replay would reach at this boundary.
        rebuilt: Dict[str, dict] = {}
        diverged = []
        for name, rt in engine.runtimes.items():
            delta = rt.snapshot(incremental=True)
            rebuilt[name] = merge_component_snapshots(self._base[name], delta)
            live = rt.snapshot(incremental=False)
            if cpser.dumps(rebuilt[name]) != cpser.dumps(live):
                diverged.append(name)
        rebuild_us = (time.perf_counter() - started) * 1e6
        self.checks += 1
        metrics.count("audit.checks")
        metrics.gauge("audit.rebuild_us", rebuild_us, wall_clock=True)
        if not diverged:
            return "clean"
        self.divergences += 1
        metrics.count("audit.divergences")
        if self.mode == "raise":
            raise DivergenceError(engine.engine_id, self._base_cp_seq,
                                  diverged)
        if any(rt.busy_info is not None for rt in engine.runtimes.values()):
            # An in-flight handler has a scheduled completion event tied
            # to the current runtime internals; restoring under it would
            # double-execute.  Detection stands; healing waits.
            self.deferred += 1
            metrics.count("audit.deferred")
            return "deferred"
        self._heal(rebuilt, diverged)
        return "healed"

    def _heal(self, rebuilt: Dict[str, dict], diverged) -> None:
        """Quarantine live state and install the rebuilt snapshots."""
        engine = self.engine
        engine.metrics.count("audit.heals", 1)
        engine.metrics.count("audit.healed_components", len(diverged))
        self.heals += 1
        engine.restore_components(rebuilt)
        # Restored pending queues need a dispatch nudge (normally an
        # arrival event provides it); harmless when queues are empty.
        for rt in engine.runtimes.values():
            engine.sim.call_soon(rt.maybe_dispatch,
                                 f"audit-heal:{rt.component.name}")
        engine.bump_incarnation_epoch()
        engine.metrics.gauge("audit.incarnation_epoch",
                             float(engine.incarnation_epoch))

    def report(self) -> Dict[str, Any]:
        """Structured outcome summary (exported by the net runtime)."""
        return {
            "mode": self.mode,
            "checks": self.checks,
            "divergences": self.divergences,
            "heals": self.heals,
            "deferred": self.deferred,
            "incarnation_epoch": self.engine.incarnation_epoch,
        }


def corrupt_component_state(engine, component: Optional[str] = None,
                            value: Any = 0) -> str:
    """Corrupt one component's live state, bypassing dirty tracking.

    Models a bit flip / wild write landing in checkpointable state:
    plants :data:`CORRUPTION_KEY` directly in a :class:`MapCell`'s
    backing dict (falling back to an in-place :class:`ValueCell`
    overwrite when a component has no map), without marking anything
    dirty — so the next delta checkpoint will *not* carry it and only
    the divergence audit can see it.  Returns ``"component.cell"``
    naming the victim.  Used by the chaos plane and by tests.
    """
    if component is not None:
        rt = engine.runtimes.get(component)
        if rt is None:
            raise StateError(
                f"{engine.engine_id}: no component {component!r} to corrupt"
            )
        candidates = [rt]
    else:
        candidates = list(engine.runtimes.values())
    for rt in candidates:
        for cell_name, cell in rt.component.state.cells().items():
            if isinstance(cell, MapCell):
                cell._data[CORRUPTION_KEY] = value
                engine.metrics.count("chaos.corruptions")
                return f"{rt.component.name}.{cell_name}"
    for rt in candidates:
        for cell_name, cell in rt.component.state.cells().items():
            if isinstance(cell, ValueCell):
                old = cell._value
                cell._value = (old ^ 1) if isinstance(old, int) else value
                engine.metrics.count("chaos.corruptions")
                return f"{rt.component.name}.{cell_name}"
    raise StateError(f"{engine.engine_id}: no corruptible cell found")
