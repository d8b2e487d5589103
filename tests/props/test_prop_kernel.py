"""Property tests: simulation-kernel ordering invariants."""

from hypothesis import given
from hypothesis import strategies as st

from repro.sim.kernel import Simulator

schedules = st.lists(st.integers(0, 1000), min_size=1, max_size=50)


@given(schedules)
def test_execution_order_is_stable_sort_by_time(times):
    sim = Simulator()
    fired = []
    for tag, t in enumerate(times):
        sim.at(t, lambda tag=tag: fired.append(tag))
    sim.run()
    expected = [tag for tag, _t in
                sorted(enumerate(times), key=lambda p: (p[1], p[0]))]
    assert fired == expected


@given(schedules)
def test_clock_never_goes_backwards(times):
    sim = Simulator()
    observed = []
    for t in times:
        sim.at(t, lambda: observed.append(sim.now))
    sim.run()
    assert observed == sorted(observed)


@given(schedules, st.integers(0, 1100))
def test_run_until_partitions_execution(times, boundary):
    sim = Simulator()
    fired = []
    for t in times:
        sim.at(t, lambda t=t: fired.append(t))
    sim.run(until=boundary)
    assert all(t < boundary for t in fired)
    sim.run()
    assert sorted(fired) == sorted(times)


@given(schedules, st.data())
def test_cancelled_events_never_fire(times, data):
    sim = Simulator()
    fired = []
    events = [sim.at(t, lambda t=t: fired.append(t)) for t in times]
    to_cancel = data.draw(st.sets(st.integers(0, len(times) - 1)))
    for idx in to_cancel:
        events[idx].cancel()
    sim.run()
    surviving = [t for i, t in enumerate(times) if i not in to_cancel]
    assert sorted(fired) == sorted(surviving)


# ----------------------------------------------------------------------
# Simulator against a reference model
# ----------------------------------------------------------------------
class _Entry:
    def __init__(self, time, seq, fn):
        self.time, self.seq, self.fn, self.cancelled = time, seq, fn, False

    def cancel(self):
        self.cancelled = True


class _ModelKernel:
    """The kernel's contract as a list kept sorted by ``(time, seq)``."""

    def __init__(self):
        self.now = self.events_executed = self._seq = 0
        self._queue = []

    def at(self, time, fn):
        entry = _Entry(time, self._seq, fn)
        self._seq += 1
        self._queue.append(entry)
        self._queue.sort(key=lambda e: (e.time, e.seq))
        return entry

    def after(self, delay, fn):
        return self.at(self.now + delay, fn)

    def call_soon(self, fn):
        return self.at(self.now, fn)

    def _live(self):
        return [e for e in self._queue if not e.cancelled]

    def pending(self):
        return len(self._live())

    def next_event_time(self):
        live = self._live()
        return live[0].time if live else None

    def step(self):
        live = self._live()
        if not live:
            return False
        self._queue.remove(live[0])
        self.now = live[0].time
        self.events_executed += 1
        live[0].fn()
        return True

    def run(self, until=None, max_events=None):
        executed = 0
        while max_events is None or executed < max_events:
            nxt = self.next_event_time()
            if nxt is None or (until is not None and nxt >= until):
                break
            self.step()
            executed += 1
        if until is not None and until > self.now:
            self.now = until


#: Small ranges on purpose: ties in time and events exactly at ``until``
#: are where a kernel goes wrong.
_delays = st.integers(0, 6)
_kinds = st.sampled_from(["at", "after", "soon"])
_cancel = st.tuples(st.just("cancel"), st.integers(0, 200))
#: What an event does when it fires: nothing, cancel some event (live,
#: fired or already cancelled), or schedule a child that may cancel.
_leaf = st.one_of(st.none(), _cancel)
_action = st.one_of(_leaf, st.tuples(_kinds, _delays, _leaf))
_ops = st.one_of(
    st.tuples(_kinds, _delays, _action),
    _cancel,
    st.tuples(st.just("run_until"), st.integers(0, 8)),
    st.tuples(st.just("run_max"), st.integers(0, 4)),
    st.tuples(st.just("step")),
)


def _execute(kernel, program):
    """Interpret ``program`` on ``kernel``; everything observable, per op."""
    handles, fired, log = [], [], []

    def schedule(kind, delay, action):
        tag = len(handles)

        def fn():
            fired.append((tag, kernel.now))
            if action is not None:
                perform(action)

        if kind == "at":
            handles.append(kernel.at(kernel.now + delay, fn))
        elif kind == "after":
            handles.append(kernel.after(delay, fn))
        else:
            handles.append(kernel.call_soon(fn))

    def perform(op):
        if op[0] == "cancel":
            if handles:
                handles[op[1] % len(handles)].cancel()
        elif op[0] == "run_until":
            kernel.run(until=kernel.now + op[1])
        elif op[0] == "run_max":
            kernel.run(max_events=op[1])
        elif op[0] == "step":
            log.append(kernel.step())
        elif op[0] == "run":
            kernel.run()
        else:
            schedule(*op)

    for op in list(program) + [("run",)]:
        perform(op)
        log.append((op[0], list(fired), kernel.now, kernel.events_executed,
                    kernel.pending(), kernel.next_event_time()))
    return log


@given(st.lists(_ops, max_size=40))
def test_simulator_agrees_with_the_reference_model(program):
    assert _execute(Simulator(), program) == _execute(_ModelKernel(), program)


def test_cancelling_a_fired_or_cancelled_event_is_a_noop():
    sim = Simulator()
    fired = []
    first = sim.at(5, lambda: fired.append("first"))
    second = sim.at(7, lambda: fired.append("second"))
    sim.run(until=6)
    first.cancel()  # already fired
    second.cancel()
    second.cancel()  # already cancelled
    assert (sim.pending(), sim.next_event_time()) == (0, None)
    sim.run()
    assert fired == ["first"]
    assert (sim.now, sim.events_executed) == (6, 1)
