"""Property tests: the reliability protocol masks arbitrary link faults.

For any combination of loss/duplication probabilities and reordering
jitter (short of total loss), the reliable channel must deliver exactly
the sent sequence, in order, exactly once.  A perfect channel that
hands over to the protocol at an idle point must be indistinguishable
from one that ran the protocol all along.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.link import LinkFault, ReliableChannel
from repro.sim.distributions import Constant, Uniform
from repro.sim.kernel import Simulator, us


@settings(max_examples=40, deadline=None)
@given(
    n_items=st.integers(1, 60),
    loss=st.floats(0.0, 0.6),
    dup=st.floats(0.0, 0.6),
    reorder_span=st.integers(0, 300),
    delay_us=st.integers(1, 200),
    seed=st.integers(0, 2**32 - 1),
)
def test_exactly_once_in_order_under_any_faults(n_items, loss, dup,
                                                reorder_span, delay_us, seed):
    sim = Simulator()
    received = []
    fault = LinkFault(
        loss_prob=loss, dup_prob=dup,
        reorder_extra=Uniform(0, us(reorder_span)) if reorder_span else None,
    )
    channel = ReliableChannel(sim, random.Random(seed), "prop",
                              deliver=received.append,
                              delay=Constant(us(delay_us)), fault=fault)
    for i in range(n_items):
        channel.send(i)
    sim.run(max_events=400_000)
    assert received == list(range(n_items))
    assert channel.in_flight == 0


@settings(max_examples=20, deadline=None)
@given(
    n_before=st.integers(0, 20),
    n_after=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
)
def test_reset_isolates_epochs(n_before, n_after, seed):
    sim = Simulator()
    received = []
    channel = ReliableChannel(sim, random.Random(seed), "prop",
                              deliver=received.append,
                              delay=Constant(us(50)))
    for i in range(n_before):
        channel.send(("old", i))
    sim.run(until=us(25))  # some frames possibly in flight
    channel.reset()
    received.clear()
    for i in range(n_after):
        channel.send(("new", i))
    sim.run(max_events=100_000)
    assert received == [("new", i) for i in range(n_after)]


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("send"), st.integers(1, 6)),
        st.tuples(st.just("wait"), st.integers(0, 400)),
        st.just(("reset", 0)),
    ),
    max_size=12,
)


def _drive(channel, sim, ops, tag):
    for op, arg in ops:
        if op == "send":
            for i in range(arg):
                channel.send((tag, i))
        elif op == "wait":
            sim.run(until=sim.now + us(arg))
        else:
            channel.reset()


@settings(max_examples=60, deadline=None)
@given(
    before=_OPS,
    reset_at_switch=st.booleans(),
    after=_OPS,
    delay_us=st.integers(0, 200),
    loss=st.floats(0.0, 0.5),
    dup=st.floats(0.0, 0.5),
    reorder_span=st.integers(0, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_perfect_channel_hands_over_to_the_protocol_exactly(
        before, reset_at_switch, after, delay_us, loss, dup, reorder_span,
        seed):
    """Perfect until an idle switch point, then faulted: the same
    deliveries, frames and random stream as running the protocol all
    along."""
    runs = []
    for reference in (False, True):
        sim = Simulator()
        received = []
        rng = random.Random(seed)
        # Knobs handed in keep the reference on the protocol throughout.
        channel = ReliableChannel(
            sim, rng, "prop",
            deliver=lambda item, got=received, s=sim: got.append((s.now,
                                                                 item)),
            delay=Constant(us(delay_us)),
            fault=LinkFault() if reference else None)
        assert channel.perfect is not reference
        _drive(channel, sim, before, "before")
        if reset_at_switch:
            channel.reset()  # old-epoch frames may still be in flight
        else:
            sim.run(until=sim.now + 2 * us(delay_us) + 1)  # idle
        fault = channel.link_fault()
        assert not channel.perfect
        handed_over = (channel._window.next_seq, channel._recv_expected,
                       channel._srtt, channel._last_ack_value,
                       channel._dup_acks, channel.frames_sent,
                       rng.getstate())
        fault.loss_prob, fault.dup_prob = loss, dup
        if reorder_span:
            fault.reorder_extra = Uniform(0, us(reorder_span))
        _drive(channel, sim, after, "after")
        sim.run(max_events=400_000)
        assert channel.in_flight == 0
        runs.append((handed_over, received, channel.frames_sent,
                     rng.getstate()))
    assert runs[0][0] == runs[1][0]  # the state the protocol takes over
    assert runs[0] == runs[1]
