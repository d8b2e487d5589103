"""Property tests: the live channel's protocol decisions, sans I/O.

A hypothesis state machine drives
:class:`~repro.net.channel.ChannelState` the way ``OutboundChannel``
does, plays the wire itself, and drives the receiving server's own
:class:`~repro.net.channel.InboundState` the way ``ProcessRuntime``
does: per (peer, node, incarnation) it delivers a seq at or above the
one it expects (a gap resyncs) and discards anything below as a
duplicate.
"""

import random
from collections import deque

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core.message import SilenceAdvance
from repro.net import codec
from repro.net.channel import ChannelState, InboundState

HOSTS = ("hostA", "hostB")
INCARNATIONS = ("hostA#1", "hostA#2", "hostB#1")
ADDRESSES = [("127.0.0.1", 1), ("127.0.0.1", 2)]


def token_of(body):
    return codec.decode_message(body["msg"]).through_vt


def connected(machine):
    return machine.conn is not None


def stream(incarnation):
    """The receiver's dedup key for this sender's stream to ``n``."""
    return ("sender", "n", incarnation)


class ChannelMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.state = ChannelState("n", ADDRESSES, 0.02, 0.5,
                                  random.Random(0))
        #: The receiving server's decisions, for every incarnation.
        self.receiver = InboundState()
        #: incarnation -> the seqs its receiver delivered, in order.
        self.delivered = {}
        self.delivered_tokens = set()
        #: (seq, token, first transmission?) written, not yet received.
        self.wire = deque()
        #: The incarnation the live connection reached, if any, and the
        #: one it reached last.
        self.conn = self.last_conn = None
        self.backing_off = False
        self.tokens = 0
        #: Tokens enqueued since the last epoch reset (the last *move*).
        self.since_move = set()
        self.epoch = 0
        self.frontier = 0

    def hang_up(self):
        self.conn = None
        self.wire.clear()  # whatever was in flight is lost

    def burst(self):
        """A connected send loop writes whatever is pending at once."""
        self.wire.extend((body["seq"], token_of(body), True)
                         for body in self.state.take_burst())

    def dial(self):
        """The next dial starts only once any backoff sleep is over."""
        self.backing_off = False
        self.state.next_address()

    def dial_failed(self):
        self.backing_off = self.state.on_dial_failed() is not None

    @rule(n=st.integers(1, 3))
    def enqueue(self, n):
        for _ in range(n):
            token = self.tokens
            self.tokens += 1
            self.state.pending.append(
                ("src", SilenceAdvance(wire_id=1, through_vt=token)))
            self.since_move.add(token)
        if connected(self):
            self.burst()

    @precondition(lambda self: not connected(self))
    @rule(incarnation=st.sampled_from(INCARNATIONS))
    def connect(self, incarnation):
        self.dial()
        tail = self.state.on_welcome(incarnation)
        if tail is None:  # refused, like NOT_HERE
            self.dial_failed()
            return
        self.conn = self.last_conn = incarnation
        self.wire.extend((body["seq"], token_of(body), False)
                         for body in tail)
        self.burst()

    @precondition(lambda self: not connected(self) and self.last_conn)
    @rule()
    def reconnect(self):
        """The last host answers again: after a drop, the likeliest."""
        self.connect(self.last_conn)

    @precondition(lambda self: not connected(self))
    @rule()
    def dial_fails(self):
        self.dial()
        self.dial_failed()

    @precondition(lambda self: self.wire)
    @rule(k=st.integers(1, 8))
    def deliver(self, k):
        key = self.conn
        for _ in range(min(k, len(self.wire))):
            seq, token, first = self.wire.popleft()
            expected = self.receiver.ack_value(stream(key))
            if self.receiver.accept(stream(key), seq):
                self.delivered.setdefault(key, []).append(seq)
                self.delivered_tokens.add(token)
            else:
                assert not first, (
                    f"{key} discarded the first transmission of seq {seq} "
                    f"as a duplicate (it expects {expected})")

    @precondition(connected)
    @rule()
    def ack(self):
        assert self.state.on_ack(self.receiver.ack_value(stream(self.conn)))

    @precondition(connected)
    @rule(stale=st.booleans(), by=st.integers(1, 4))
    def bad_ack(self, stale, by):
        window = self.state.window
        upto = window.frontier - by if stale else window.next_seq + by
        before = (dict(window.unacked), window.next_seq)
        rejected = self.state.acks_rejected
        assert not self.state.on_ack(upto)
        assert (dict(window.unacked), window.next_seq) == before
        assert self.state.acks_rejected == rejected + 1

    @precondition(connected)
    @rule()
    def drop(self):
        self.state.on_disconnect()
        self.hang_up()

    @rule(host=st.sampled_from(HOSTS))
    def redirect(self, host):
        state = self.state
        pointed = (state.incarnation.startswith(host + "#")
                   if state.incarnation is not None
                   else state.expected_peer == host)
        if state.redirect(host):
            self.hang_up()
            self.backing_off = False
        # A redirect always ends a backoff, unless it is no news.
        assert not self.backing_off or pointed

    @rule()
    def reset(self):
        self.state.reset()
        self.hang_up()

    @invariant()
    def the_receiver_dedup_state_lies_inside_the_window(self):
        """Whatever the connected receiver expects next, the sender can
        send or has had acked: a fresh transmission is never below it."""
        if connected(self):
            window = self.state.window
            assert window.frontier \
                <= self.receiver.ack_value(stream(self.conn)) \
                <= window.next_seq, self.conn

    @invariant()
    def delivered_seqs_are_a_gap_free_prefix(self):
        for incarnation, seqs in self.delivered.items():
            assert seqs == list(range(len(seqs))), (incarnation, seqs)

    @invariant()
    def frontier_holds_and_items_survive_until_acked(self):
        state = self.state
        if state.epoch_resets != self.epoch:
            self.epoch = state.epoch_resets
            self.since_move.clear()
        else:
            assert state.window.frontier >= self.frontier
        self.frontier = state.window.frontier
        buffered = {msg.through_vt for _src, msg in state.pending}
        buffered |= {token_of(body) for body in state.window.unacked.values()}
        assert self.since_move <= buffered | self.delivered_tokens


TestChannelState = ChannelMachine.TestCase
TestChannelState.settings = settings(max_examples=100,
                                     stateful_step_count=50, deadline=None)


@pytest.mark.slow
def test_channel_state_long_sweep():
    run_state_machine_as_test(ChannelMachine, settings=settings(
        max_examples=2000, stateful_step_count=60, deadline=None))
