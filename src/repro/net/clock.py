"""Real-time clock adapter for the discrete-event kernel.

The networked runtime does not fork the scheduling loop: each process
owns an unmodified :class:`~repro.sim.kernel.Simulator` and *pumps* it
against the wall clock.  :class:`RealtimeClock` maps wall time to ticks
(``ticks = elapsed_seconds * 1e9 * speed``; 1 tick = 1 ns at speed 1.0),
and :class:`RealtimeKernel` repeatedly advances the simulator to the
current real tick, injects items that arrived from the network, then
arms one event-loop callback for the next timer, which the next arrival
cuts short.

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
from typing import Callable, Deque, Optional, Tuple

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

    The pump is loop-native: each iteration is one :meth:`_step`
    callback on the event loop, and at most one handle is armed at a
    time — a ``call_soon`` when work is waiting, otherwise one
    ``call_later`` for the next simulator event (capped at
    :data:`_MAX_POLL_S`).  An :meth:`inject` into an idle pump swaps
    that timer for a ``call_soon``, so an arrival reaches its handler
    one loop iteration later, without creating a task.

    :meth:`when` lets a watcher wake on the pump instead of on a timer:
    one plain future, resolved by the first step after which the
    watcher's predicate holds, so the pump pays one predicate call per
    step while watched and nothing otherwise.
    """

    def __init__(self, sim: Simulator, clock: RealtimeClock,
                 congestion_check: Optional[Callable[[], bool]] = None):
        self.sim = sim
        self.clock = clock
        self.congestion_check = congestion_check
        self._inbox: Deque[Callable[[], None]] = deque()
        self._stopped = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: Resolved by :meth:`stop`, or failed by a raising step;
        #: :meth:`run` awaits it.
        self._done: Optional[asyncio.Future] = None
        #: The one armed step (``call_soon`` or ``call_later`` handle).
        self._handle: Optional[asyncio.Handle] = None
        #: Whether ``_handle`` is an idle timer an inject may cut short
        #: (a congestion pause is not).
        self._idle_timer = False
        #: The watcher's (predicate, future), see :meth:`when`.
        self._watch: Optional[Tuple[Callable[[], bool],
                                    asyncio.Future]] = None
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
        if self._idle_timer:
            self._handle.cancel()
            self._arm(0.0)

    def stop(self) -> None:
        """Make :meth:`run` return; no step runs after this."""
        self._stopped = True
        self._disarm()
        if self._done is not None and not self._done.done():
            self._done.set_result(None)
        self._end_watch()

    def when(self, predicate: Callable[[], bool]) -> asyncio.Future:
        """A future resolved at the end of the first step after which
        ``predicate()`` holds (failed with what it raised), or when the
        pump stops or fails.  One watcher at a time: a new call ends the
        previous watch.  Resolving the future early (a deadline, another
        event) just ends the wait."""
        self._end_watch()
        future = asyncio.get_running_loop().create_future()
        self._watch = (predicate, future)
        return future

    def _end_watch(self, exc: Optional[BaseException] = None) -> None:
        watch, self._watch = self._watch, None
        if watch is not None and not watch[1].done():
            if exc is None:
                watch[1].set_result(None)
            else:
                watch[1].set_exception(exc)

    async def run(self) -> None:
        """Pump until :meth:`stop`; raises what a pumped callback raised."""
        if self._stopped:
            return
        self._loop = asyncio.get_running_loop()
        self._done = self._loop.create_future()
        self._arm(0.0)
        try:
            await self._done
        finally:
            self._disarm()
            self._done = None

    def _arm(self, delay: float, idle: bool = False) -> None:
        """Queue the next step ``delay`` seconds from now."""
        if delay <= 0:
            self._handle = self._loop.call_soon(self._step)
            self._idle_timer = False
        else:
            self._handle = self._loop.call_later(delay, self._step)
            self._idle_timer = idle

    def _disarm(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        self._idle_timer = False

    def _step(self) -> None:
        """One pump iteration, then the watcher's test."""
        self._handle = None
        self._idle_timer = False
        if self._stopped:
            return
        self._advance()
        if self._watch is not None:
            try:
                if self._done.done() or self._watch[0]():
                    self._end_watch()
            except Exception as exc:  # the watcher's: raised in its wait
                self._end_watch(exc)

    def _advance(self) -> None:
        """Advance, drain the inbox, arm the next step."""
        try:
            if self.congestion_check is not None and self.congestion_check():
                # A peer is not keeping up: stop advancing local time so
                # the engine cannot race ahead of its own output channel
                # (end-to-end backpressure).
                self.congestion_pauses += 1
                self._arm(_CONGESTION_POLL_S)
                return
            target = max(self.clock.ticks(), self.sim.now)
            self.sim.run(until=target)
            while self._inbox:
                self._inbox.popleft()()
        except Exception as exc:
            # Nothing is armed mid-step: the pump stays down, and
            # ``await run()`` raises what the pumped callback raised.
            if not self._done.done():
                self._done.set_exception(exc)
            return
        if self._stopped:
            return
        nxt = self.sim.next_event_time()
        delay = _MAX_POLL_S
        if nxt is not None:
            delay = min(delay, self.clock.seconds_until(nxt))
        self._arm(delay, idle=True)
