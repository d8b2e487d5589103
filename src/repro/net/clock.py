"""Real-time clock adapter for the discrete-event kernel.

The networked runtime does not fork the scheduling loop: each process
owns an unmodified :class:`~repro.sim.kernel.Simulator` and *pumps* it
against the wall clock.  :class:`RealtimeClock` maps wall time to ticks
(``ticks = elapsed_seconds * 1e9 * speed``; 1 tick = 1 ns at speed 1.0),
and :class:`RealtimeKernel` repeatedly advances the simulator to the
current real tick, injects items that arrived from the network, then
sleeps until the next timer or the next arrival.

Determinism under this pump is exactly the paper's claim: dispatch order
inside an engine is *virtual-time* order, and every virtual time is
computed by deterministic estimators from ingress timestamps — so how
fast (or how unevenly) real time advances, and when silence facts or
probes happen to arrive, changes only latency, never outcomes.  The one
simulation-only assumption that would be unsound over real sockets —
the local-clock freshness bound on external wires, which presumes the
ingress shares the engine's clock — is disabled in networked mode by
wiring external inputs with ``external=False`` (see
:attr:`repro.net.node.NetTransport.ingress_shares_clock`); ingress
silence then travels as explicit facts, which is sound on any transport.

All processes share one epoch ``t0`` (distributed by the coordinator's
GO barrier) so their tick clocks advance in step; ``time.time()`` skew
between processes shifts only real-time pacing, not virtual times.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Callable, Deque, Optional

from repro.errors import SimulationError
from repro.sim.kernel import Simulator

#: Longest sleep between pump iterations; bounds how stale the clock
#: can be when nothing is scheduled and nothing arrives.
_MAX_POLL_S = 0.05

#: Sleep while the transport reports congestion.
_CONGESTION_POLL_S = 0.01


class RealtimeClock:
    """Wall-clock to tick mapping with a settable shared epoch."""

    def __init__(self, speed: float, epoch: Optional[float] = None):
        if speed <= 0:
            raise SimulationError(f"clock speed must be positive: {speed}")
        #: Simulated ticks per real nanosecond (1.0 = real time).
        self.speed = float(speed)
        self._epoch = epoch

    def set_epoch(self, t0: float) -> None:
        """Fix the wall-clock time (unix seconds) of tick zero."""
        self._epoch = float(t0)

    @property
    def started(self) -> bool:
        return self._epoch is not None

    def ticks(self) -> int:
        """Current real tick (0 before the epoch)."""
        if self._epoch is None:
            return 0
        elapsed = time.time() - self._epoch
        if elapsed <= 0:
            return 0
        return int(elapsed * 1e9 * self.speed)

    def seconds_until(self, tick: int) -> float:
        """Wall seconds from now until ``tick`` (<= 0 if already due)."""
        return (tick - self.ticks()) / (1e9 * self.speed)


class RealtimeKernel:
    """Pumps a :class:`Simulator` against a :class:`RealtimeClock`.

    Network readers hand arriving items in with :meth:`inject`; the pump
    first advances the simulator to the current real tick, then runs the
    handlers at ``sim.now == real tick`` — so an ingress answering a
    curiosity probe with "silent through now - 1" is making a sound
    promise (every future arrival will be stamped >= now).
    """

    def __init__(self, sim: Simulator, clock: RealtimeClock,
                 congestion_check: Optional[Callable[[], bool]] = None):
        self.sim = sim
        self.clock = clock
        self.congestion_check = congestion_check
        self._inbox: Deque[Callable[[], None]] = deque()
        self._wake = asyncio.Event()
        self._stopped = False
        #: Diagnostics.
        self.injected = 0
        self.congestion_pauses = 0

    def inject(self, fn: Callable[[], None]) -> None:
        """Queue ``fn`` to run at the pump's next iteration.

        Must be called from the owning event loop (connection readers
        are tasks on it); the pump never runs concurrently with them, so
        no locking is needed.
        """
        self._inbox.append(fn)
        self.injected += 1
        self._wake.set()

    def stop(self) -> None:
        """Make :meth:`run` return after the current iteration."""
        self._stopped = True
        self._wake.set()

    async def run(self) -> None:
        """Pump until :meth:`stop`."""
        while not self._stopped:
            if self.congestion_check is not None and self.congestion_check():
                # A peer is not keeping up: stop advancing local time so
                # the engine cannot race ahead of its own output channel
                # (end-to-end backpressure).
                self.congestion_pauses += 1
                await asyncio.sleep(_CONGESTION_POLL_S)
                continue
            target = max(self.clock.ticks(), self.sim.now)
            self.sim.run(until=target)
            while self._inbox:
                self._inbox.popleft()()
            self._wake.clear()
            if self._inbox or self._stopped:
                continue
            nxt = self.sim.next_event_time()
            if nxt is not None:
                timeout = min(_MAX_POLL_S, self.clock.seconds_until(nxt))
                if timeout <= 0:
                    continue
            else:
                timeout = _MAX_POLL_S
            try:
                await asyncio.wait_for(self._wake.wait(), timeout)
            except asyncio.TimeoutError:
                pass
