"""Deterministic discrete-event simulation kernel.

The kernel is a classic event-heap simulator with a few properties that
the TART reproduction leans on heavily:

* **Total determinism.**  Events are ordered by ``(time, sequence)`` where
  the sequence number is assigned at scheduling time.  Two runs that
  schedule the same events in the same order execute identically, which is
  what lets the test suite assert *exact* replay equality for the
  deterministic runtime.
* **Integer time.**  Time is measured in integer ticks (1 tick = 1 ns, as
  in the paper), so there is no floating-point drift between runs.
* **Cancellable events.**  Schedulers need to retract timers (e.g. a
  curiosity probe made redundant by an arriving silence advance, a
  retransmit timer whose frame was acked); events carry a cancelled flag
  rather than being removed from the heap, and a cancelled entry is
  dropped when it surfaces without ever counting as executed.
* **A heap ``heapq`` orders in C.**  Heap entries are ``(time, seq,
  event)`` tuples; ``seq`` is unique, so tuple comparison is decided by
  the two ints and never reaches the :class:`Event` handle.

The kernel deliberately has no notion of processes or channels; those are
built on top (see :mod:`repro.runtime`).  Keeping the kernel minimal makes
its determinism easy to audit.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import SimulationError

#: Number of simulated ticks per microsecond.  The paper uses 1 tick = 1 ns.
TICKS_PER_US = 1_000

#: Number of simulated ticks per millisecond.
TICKS_PER_MS = 1_000_000

#: Number of simulated ticks per second.
TICKS_PER_S = 1_000_000_000


def us(n: float) -> int:
    """Convert microseconds to integer ticks."""
    return int(round(n * TICKS_PER_US))


def ms(n: float) -> int:
    """Convert milliseconds to integer ticks."""
    return int(round(n * TICKS_PER_MS))


def seconds(n: float) -> int:
    """Convert seconds to integer ticks."""
    return int(round(n * TICKS_PER_S))


class Event:
    """Handle of a scheduled callback.

    Events fire in ``(time, seq)`` order; ``seq`` is a kernel-wide counter
    assigned when the event is scheduled, making the execution order a
    deterministic function of the scheduling order.  The handle itself
    is never compared: the heap orders ``(time, seq, event)`` tuples.
    """

    __slots__ = ("time", "seq", "fn", "label", "cancelled")

    def __init__(self, time: int, seq: int, fn: Callable[[], None], label: str):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.label = label
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once,
        and a no-op on an event that already fired."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time} seq={self.seq} {self.label}{state}>"


class Simulator:
    """Deterministic event-heap simulator.

    Parameters
    ----------
    trace_hook:
        Optional callable invoked as ``trace_hook(time, label)`` before
        each event fires; used by tests to record execution order.
    """

    def __init__(self, trace_hook: Optional[Callable[[int, str], None]] = None):
        #: Current simulated time in ticks.  A plain attribute because it
        #: is read several times per event; only the kernel writes it.
        self.now = 0
        self._heap: List[Tuple[int, int, Event]] = []
        self._seq = 0
        self._running = False
        self._trace_hook = trace_hook
        self._event_count = 0
        #: Arbitrary per-simulation metadata; experiments stash config here.
        self.context: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def events_executed(self) -> int:
        """Number of events fired so far; cancelled events never count."""
        return self._event_count

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def at(self, time: int, fn: Callable[[], None], label: str = "") -> Event:
        """Schedule ``fn`` at absolute ``time``.

        ``time`` must not be in the past.  Returns the :class:`Event`,
        which may later be cancelled.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event '{label}' at {time}, now is {self.now}"
            )
        return self.after(int(time) - self.now, fn, label)

    def after(self, delay: int, fn: Callable[[], None], label: str = "") -> Event:
        """Schedule ``fn`` after a non-negative ``delay`` in ticks."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay} for event '{label}'")
        time = self.now + int(delay)
        seq = self._seq
        self._seq = seq + 1
        ev = Event(time, seq, fn, label)
        heappush(self._heap, (time, seq, ev))
        return ev

    def call_soon(self, fn: Callable[[], None], label: str = "") -> Event:
        """Schedule ``fn`` at the current time, after pending same-time events."""
        return self.after(0, fn, label)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next non-cancelled event.

        Returns ``False`` when the heap is exhausted.
        """
        heap = self._heap
        while heap:
            time, _seq, ev = heappop(heap)
            if ev.cancelled:
                continue
            if time < self.now:  # pragma: no cover - defensive
                raise SimulationError("event heap time went backwards")
            self.now = time
            if self._trace_hook is not None:
                self._trace_hook(time, ev.label)
            self._event_count += 1
            ev.fn()
            return True
        return False

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> None:
        """Run until the heap empties, ``until`` is reached, or ``max_events``.

        When ``until`` is given, all events strictly before it are
        executed and the clock is advanced to ``until``; events at or
        after ``until`` stay queued so the simulation can be resumed.
        Cancelled events are discarded as they surface and count neither
        toward ``max_events`` nor toward :attr:`events_executed`.

        The loop repeats :meth:`step`'s firing sequence inline: it is the
        innermost loop of every simulation, and a call per event is a
        tenth of the kernel's cost.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        try:
            heap = self._heap
            executed = 0
            while heap:
                if max_events is not None and executed >= max_events:
                    return
                time, _seq, ev = heap[0]
                if ev.cancelled:
                    heappop(heap)
                    continue
                if until is not None and time >= until:
                    break
                heappop(heap)
                if time < self.now:  # pragma: no cover - defensive
                    raise SimulationError("event heap time went backwards")
                self.now = time
                if self._trace_hook is not None:
                    self._trace_hook(time, ev.label)
                self._event_count += 1
                ev.fn()
                executed += 1
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return sum(1 for _time, _seq, ev in self._heap if not ev.cancelled)

    def next_event_time(self) -> Optional[int]:
        """Time of the next live event, or ``None`` if the heap is empty."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)
        return heap[0][0] if heap else None


class Timer:
    """A restartable one-shot timer bound to a simulator.

    Used by schedulers for timeout-style behaviour (e.g. aggressive
    silence heartbeats): ``restart`` cancels any pending firing and
    schedules a new one.
    """

    def __init__(self, sim: Simulator, fn: Callable[[], None], label: str = "timer"):
        self._sim = sim
        self._fn = fn
        self._label = label
        self._event: Optional[Event] = None

    def restart(self, delay: int) -> None:
        """(Re)arm the timer to fire ``delay`` ticks from now."""
        self.cancel()
        self._event = self._sim.after(delay, self._fire, self._label)

    def cancel(self) -> None:
        """Disarm the timer if armed."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    @property
    def armed(self) -> bool:
        """Whether the timer currently has a pending firing."""
        return self._event is not None and not self._event.cancelled

    def _fire(self) -> None:
        self._event = None
        self._fn()


class Processor:
    """A single logical processor that serves work items one at a time.

    The paper's simulation study gives each component thread a dedicated
    processor; this class models exactly that: non-preemptive, FIFO by
    request order at equal times (deterministic via the kernel's event
    sequencing).  ``busy_until`` exposes the earliest time new work could
    start, which silence policies use to answer curiosity probes.
    """

    def __init__(self, sim: Simulator, name: str):
        self._sim = sim
        self.name = name
        self._busy_until = 0
        #: Whether the processor is currently executing a work item.
        self.busy = False
        self._on_done: Optional[Callable[[], None]] = None
        #: Total ticks spent executing work (utilisation accounting).
        self.busy_ticks = 0

    @property
    def busy_until(self) -> int:
        """Simulated time at which the current work item completes."""
        return self._busy_until

    def execute(self, duration: int, on_done: Callable[[], None], label: str = "work") -> None:
        """Occupy the processor for ``duration`` ticks, then call ``on_done``.

        The processor must be idle; schedulers are responsible for
        queueing.  This keeps queue policy (the interesting part) out of
        the substrate.
        """
        if self.busy:
            raise SimulationError(f"processor {self.name} is busy")
        if duration < 0:
            raise SimulationError(f"negative work duration {duration}")
        self.busy = True
        self._busy_until = self._sim.now + duration
        self.busy_ticks += duration
        self._on_done = on_done
        self._sim.after(duration, self._finish, f"{self.name}:{label}")

    def _finish(self) -> None:
        on_done, self._on_done = self._on_done, None
        self.busy = False
        on_done()

    def utilization(self) -> float:
        """Fraction of elapsed simulated time spent busy."""
        if self._sim.now == 0:
            return 0.0
        return self.busy_ticks / self._sim.now


class ProcessorPool:
    """``n_cpus`` processors shared by several logical threads.

    Models the paper's II.G.2 setting — "thread scheduling (if threads
    compete for processors)" — where component threads outnumber CPUs.
    Scheduling is non-preemptive: when a CPU frees, the highest-priority
    waiting thread runs (ties broken by arrival order, so execution is a
    deterministic function of the priority decisions).

    ``priority_fn(thread_name) -> float`` is consulted at every pick, so
    priorities may be *dynamic* — e.g. the lag between real time and a
    component's virtual time, the paper's suggested remedy for threads
    that run consistently behind their estimates.  Priorities only move
    work around in real time; virtual-time outcomes are untouched.
    """

    def __init__(self, sim: Simulator, name: str, n_cpus: int,
                 priority_fn: Optional[Callable[[str], float]] = None):
        if n_cpus < 1:
            raise SimulationError("pool needs at least one cpu")
        self._sim = sim
        self.name = name
        self.n_cpus = n_cpus
        self._priority_fn = priority_fn or (lambda _thread: 0.0)
        self._running = 0
        self._seq = 0
        #: Waiting jobs: (thread, seq, duration, on_done).
        self._waiting: List[tuple] = []
        self._ports: Dict[str, "PooledProcessor"] = {}
        #: Total ticks all CPUs spent executing (utilization accounting).
        self.busy_ticks = 0
        #: Total ticks jobs spent waiting for a CPU (contention metric).
        self.queued_ticks = 0

    def port(self, thread_name: str) -> "PooledProcessor":
        """The processor facade for one logical thread."""
        port = self._ports.get(thread_name)
        if port is None:
            port = PooledProcessor(self, thread_name)
            self._ports[thread_name] = port
        return port

    def set_priority_fn(self, fn: Callable[[str], float]) -> None:
        """Replace the priority function (engines install theirs late)."""
        self._priority_fn = fn

    # -- internal ---------------------------------------------------------
    def _submit(self, thread: str, duration: int, on_done) -> None:
        self._seq += 1
        self._waiting.append((thread, self._seq, duration, on_done,
                              self._sim.now))
        self._dispatch()

    def _dispatch(self) -> None:
        while self._running < self.n_cpus and self._waiting:
            best_idx = 0
            best_key = None
            for idx, (thread, seq, _d, _cb, _t) in enumerate(self._waiting):
                key = (-self._priority_fn(thread), seq)
                if best_key is None or key < best_key:
                    best_key = key
                    best_idx = idx
            thread, seq, duration, on_done, queued_at = \
                self._waiting.pop(best_idx)
            self.queued_ticks += self._sim.now - queued_at
            self._running += 1
            self.busy_ticks += duration

            def _finish(thread=thread, on_done=on_done):
                self._running -= 1
                self._ports[thread]._job_done()
                on_done()
                self._dispatch()

            self._sim.after(duration, _finish, f"{self.name}:{thread}")

    def utilization(self) -> float:
        """Mean per-CPU utilization so far."""
        if self._sim.now == 0:
            return 0.0
        return self.busy_ticks / (self._sim.now * self.n_cpus)


class PooledProcessor:
    """Per-thread facade over a :class:`ProcessorPool`.

    Implements the same ``busy`` / ``execute`` contract as
    :class:`Processor`: one outstanding work item per thread, but the
    item may have to wait for a free CPU.
    """

    def __init__(self, pool: ProcessorPool, thread_name: str):
        self._pool = pool
        self.name = thread_name
        #: Whether this thread has work queued or running.
        self.busy = False

    def execute(self, duration: int, on_done: Callable[[], None],
                label: str = "work") -> None:
        """Submit one work item; ``on_done`` fires after it has both
        acquired a CPU and run for ``duration`` ticks."""
        if self.busy:
            raise SimulationError(f"thread {self.name} already has work")
        if duration < 0:
            raise SimulationError(f"negative work duration {duration}")
        self.busy = True
        self._pool._submit(self.name, duration, on_done)

    def _job_done(self) -> None:
        self.busy = False
