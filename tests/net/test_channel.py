"""Outbound channels against a scripted in-process receiver."""

import ast
import asyncio
import inspect
import textwrap
import time

from repro.core.message import SilenceAdvance
from repro.errors import TransportError
from repro.net import codec
from repro.net.channel import (
    ChannelState,
    InboundState,
    OutboundChannel,
    backoff_jitter_rng,
)
from repro.runtime.link import SendWindow


class FakeHost:
    """Minimal receiving end of the channel protocol, scriptable.

    Understands both singleton ITEM frames and BATCH frames, and — like
    the real server — coalesces acknowledgements to one cumulative ACK
    per received frame.  ``ack_script`` lets tests answer with arbitrary
    (wrong) ``upto`` values instead, to exercise the sender's ack-window
    guard.
    """

    def __init__(self, incarnation="hostA#1", accept=True):
        self.incarnation = incarnation
        self.accept = accept
        self.expected = 0
        #: Deduplicated deliveries: (seq, src, message).
        self.items = []
        self.hellos = 0
        self.drop_after = None  # close (unacked) after N items, once
        #: When set: per-frame override of the acked ``upto`` (a callable
        #: taking the would-be honest value, returning the sent one).
        self.ack_script = None
        #: When set: an ``asyncio.Event`` every ack waits for.
        self.hold_acks = None
        self._writer = None
        self.server = None
        self.port = None

    async def start(self):
        self.server = await asyncio.start_server(
            self._conn, "127.0.0.1", 0
        )
        self.port = self.server.sockets[0].getsockname()[1]

    async def stop(self):
        self.server.close()
        await self.server.wait_closed()

    def kick(self):
        """Drop the current connection (simulates a network fault)."""
        if self._writer is not None:
            self._writer.close()

    async def _conn(self, reader, writer):
        try:
            frame = await codec.read_frame(reader)
            if frame is None or frame[0] != codec.FRAME_HELLO:
                return
            self.hellos += 1
            if not self.accept:
                writer.write(codec.encode_not_here())
                await writer.drain()
                return
            writer.write(codec.encode_welcome(self.incarnation))
            await writer.drain()
            self._writer = writer
            received = 0
            while True:
                frame = await codec.read_frame(reader)
                if frame is None:
                    return
                tag, body = frame
                if tag not in (codec.FRAME_ITEM, codec.FRAME_BATCH):
                    continue
                for item in codec.batch_items(body):
                    seq = item["seq"]
                    if seq >= self.expected:
                        self.expected = seq + 1
                        self.items.append((seq, item["src"],
                                           codec.decode_message(item["msg"])))
                    received += 1
                if self.drop_after is not None \
                        and received >= self.drop_after:
                    self.drop_after = None
                    return  # hang up without acknowledging
                upto = self.expected
                if self.ack_script is not None:
                    upto = self.ack_script(upto)
                if self.hold_acks is not None:
                    await self.hold_acks.wait()
                writer.write(codec.encode_ack(upto))
                await writer.drain()
        except (ConnectionError, OSError, TransportError):
            pass
        finally:
            writer.close()


async def wait_until(cond, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if cond():
            return
        await asyncio.sleep(0.01)
    raise AssertionError("condition not met in time")


def msg(i):
    return SilenceAdvance(wire_id=1, through_vt=i)


def test_in_order_exactly_once_delivery():
    async def scenario():
        host = FakeHost()
        await host.start()
        channel = OutboundChannel("sender:1", "n", [("127.0.0.1",
                                                     host.port)])
        channel.start()
        for i in range(5):
            channel.enqueue("src", msg(i))
        await wait_until(lambda: channel.items_acked == 5)
        await channel.close()
        await host.stop()
        return host, channel

    host, channel = asyncio.run(scenario())
    assert [seq for seq, _, _ in host.items] == [0, 1, 2, 3, 4]
    assert [m.through_vt for _, _, m in host.items] == [0, 1, 2, 3, 4]
    assert channel.backlog() == 0


def test_reconnect_resends_unacked_and_receiver_dedups():
    async def scenario():
        host = FakeHost()
        host.drop_after = 3  # take 3 items, hang up before acking
        await host.start()
        channel = OutboundChannel("sender:1", "n", [("127.0.0.1",
                                                     host.port)])
        channel.start()
        for i in range(5):
            channel.enqueue("src", msg(i))
        await wait_until(lambda: channel.items_acked == 5)
        await channel.close()
        await host.stop()
        return host, channel

    host, channel = asyncio.run(scenario())
    assert channel.reconnects >= 2
    assert host.hellos >= 2
    # Resent duplicates were discarded: each sequence exactly once.
    assert [seq for seq, _, _ in host.items] == [0, 1, 2, 3, 4]


def test_not_here_until_hosted():
    async def scenario():
        host = FakeHost(accept=False)
        await host.start()
        channel = OutboundChannel("sender:1", "n", [("127.0.0.1",
                                                     host.port)])
        channel.start()
        channel.enqueue("src", msg(7))
        await asyncio.sleep(0.15)
        assert host.items == []  # refused so far
        host.accept = True
        await wait_until(lambda: channel.items_acked == 1)
        await channel.close()
        await host.stop()
        return host

    host = asyncio.run(scenario())
    assert host.hellos >= 2
    assert [seq for seq, _, _ in host.items] == [0]


def test_incarnation_change_resets_epoch():
    async def scenario():
        host = FakeHost(incarnation="hostA#1")
        await host.start()
        channel = OutboundChannel("sender:1", "n", [("127.0.0.1",
                                                     host.port)])
        channel.start()
        channel.enqueue("src", msg(0))
        channel.enqueue("src", msg(1))
        await wait_until(lambda: channel.items_acked == 2)
        # The node is re-hosted: new incarnation, fresh receiver state.
        host.incarnation = "hostB#1"
        host.expected = 0
        host.kick()
        # Traffic buffered for the dead incarnation is dropped by the
        # epoch reset, so enqueue only after the channel adopted the
        # new one (replay, not the channel, recovers lost traffic).
        await wait_until(lambda: channel.epoch_resets == 1)
        channel.enqueue("src", msg(2))
        channel.enqueue("src", msg(3))
        await wait_until(lambda: len(host.items) == 4)
        await channel.close()
        await host.stop()
        return host, channel

    host, channel = asyncio.run(scenario())
    assert channel.epoch_resets == 1
    # Sequence numbers restarted with the new incarnation.
    assert [seq for seq, _, _ in host.items] == [0, 1, 0, 1]
    assert [m.through_vt for _, _, m in host.items] == [0, 1, 2, 3]


def test_redirect_rejects_stale_host():
    async def scenario():
        host = FakeHost(incarnation="hostA#1")
        await host.start()
        channel = OutboundChannel("sender:1", "n", [("127.0.0.1",
                                                     host.port)])
        channel.redirect("hostB")  # promotion evidence: node moved
        channel.start()
        channel.enqueue("src", msg(0))
        await asyncio.sleep(0.2)
        assert host.items == []  # stale incarnation never adopted
        stale_hellos = host.hellos
        host.incarnation = "hostB#2"  # the promoted identity appears
        await wait_until(lambda: channel.items_acked == 1)
        await channel.close()
        await host.stop()
        return host, stale_hellos

    host, stale_hellos = asyncio.run(scenario())
    assert stale_hellos >= 1  # it did talk to the stale host
    assert [seq for seq, _, _ in host.items] == [0]


def test_redirect_mid_epoch_drops_buffer_and_restarts():
    async def scenario():
        host = FakeHost(incarnation="hostA#1")
        await host.start()
        channel = OutboundChannel("sender:1", "n", [("127.0.0.1",
                                                     host.port)])
        channel.start()
        channel.enqueue("src", msg(0))
        await wait_until(lambda: channel.items_acked == 1)
        host.incarnation = "hostA#2"  # same process re-registered it
        host.expected = 0
        channel.redirect("hostA")  # same peer: no reset needed ...
        assert channel.epoch_resets == 0
        channel.redirect("hostC")  # ... but a real move resets now
        assert channel.epoch_resets == 1
        host.incarnation = "hostC#1"
        host.expected = 0
        channel.enqueue("src", msg(5))
        await wait_until(lambda: len(host.items) == 2)
        await channel.close()
        await host.stop()
        return host

    host = asyncio.run(scenario())
    assert [seq for seq, _, _ in host.items] == [0, 0]


def dead_port():
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_backoff_jitter_is_seed_deterministic():
    """Reconnect jitter derives from (seed, process, node) only: the
    uuid suffix in the peer id must not change the draw (else restarts
    would desynchronise), while seed and node must."""
    a = backoff_jitter_rng(7, "engine-e0:ab12cd34", "n")
    b = backoff_jitter_rng(7, "engine-e0:99999999", "n")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]
    c = backoff_jitter_rng(8, "engine-e0:ab12cd34", "n")
    assert a.random() != c.random()
    d = backoff_jitter_rng(7, "engine-e1:ab12cd34", "n")
    e = backoff_jitter_rng(7, "engine-e0:ab12cd34", "m")
    assert len({a.random(), c.random(), d.random(), e.random()}) > 1


def test_partition_then_heal_no_dups_no_epoch_reset():
    """A connection outage with the host unchanged: the channel resends
    the unacked tail on the same incarnation — exactly-once delivery,
    and *no* epoch reset (those are reserved for incarnation changes)."""
    async def scenario():
        host = FakeHost()
        await host.start()
        channel = OutboundChannel(
            "sender:1", "n", [("127.0.0.1", host.port)],
            backoff_min=0.01, backoff_max=0.05,
            connect_timeout=0.5,
        )
        channel.start()
        for i in range(3):
            channel.enqueue("src", msg(i))
        await wait_until(lambda: channel.items_acked == 3)
        # Partition: the listener goes away entirely and the live
        # connection is dropped; the channel retries against a dead
        # address, accruing connect failures.
        await host.stop()
        host.kick()
        for i in range(3, 6):
            channel.enqueue("src", msg(i))
        await wait_until(lambda: channel.connect_failures >= 2)
        # Heal: same host, same incarnation, same port.
        host.server = await asyncio.start_server(
            host._conn, "127.0.0.1", host.port
        )
        await wait_until(lambda: channel.items_acked == 6)
        await channel.close()
        await host.stop()
        return host, channel

    host, channel = asyncio.run(scenario())
    # Exactly once, in order, across the outage.
    assert [seq for seq, _, _ in host.items] == [0, 1, 2, 3, 4, 5]
    assert [m.through_vt for _, _, m in host.items] == [0, 1, 2, 3, 4, 5]
    # Epoch resets only on incarnation change — an outage is not one.
    assert channel.epoch_resets == 0
    counters = channel.counters()
    assert counters["connect_failures"] >= 2
    assert counters["reconnects"] >= 1
    assert counters["items_acked"] == 6


def test_counters_snapshot_shape():
    async def scenario():
        host = FakeHost()
        await host.start()
        channel = OutboundChannel("sender:1", "n",
                                  [("127.0.0.1", host.port)])
        channel.start()
        channel.enqueue("src", msg(0))
        await wait_until(lambda: channel.items_acked == 1)
        await channel.close()
        await host.stop()
        return channel.counters()

    counters = asyncio.run(scenario())
    assert set(counters) == {
        "items_sent", "items_acked", "items_resent",
        "reconnects", "connect_failures", "epoch_resets",
        "frames_sent", "batches_sent", "bytes_sent",
        "acks_received", "acks_rejected",
        "torn_frames", "proto_rejects",
    }
    assert counters["items_sent"] == 1
    assert counters["items_acked"] == 1
    assert counters["items_resent"] == 0
    # A lone item goes out as one plain ITEM frame: 6 bytes of frame
    # header, a 14-byte record header, "src", a 16-byte silence tail.
    assert counters["frames_sent"] == 1
    assert counters["batches_sent"] == 0
    assert counters["bytes_sent"] == 6 + 14 + 3 + 16
    assert counters["connect_failures"] == 0
    assert counters["epoch_resets"] == 0


def test_stale_and_overrun_acks_rejected_then_recovered():
    """The ack-window guard: ``upto`` outside [frontier, next_seq] is
    counted and ignored — a regressing ack must not resurrect already
    -acked items, and an overrunning ack must not release unsent ones."""
    async def scenario():
        host = FakeHost()
        await host.start()
        channel = OutboundChannel("sender:1", "n",
                                  [("127.0.0.1", host.port)])
        channel.start()
        channel.enqueue("src", msg(0))
        await wait_until(lambda: channel.items_acked == 1)

        host.ack_script = lambda honest: 0  # regress below the frontier
        channel.enqueue("src", msg(1))
        await wait_until(lambda: channel.counters()["acks_rejected"] == 1)
        assert channel.items_acked == 1  # frontier held

        host.ack_script = lambda honest: honest + 50  # ack the future
        channel.enqueue("src", msg(2))
        await wait_until(lambda: channel.counters()["acks_rejected"] == 2)
        assert channel.items_acked == 1  # overrun ignored too

        host.ack_script = None
        host.kick()  # reconnect; honest acks resume
        await wait_until(lambda: channel.items_acked == 3)
        await channel.close()
        await host.stop()
        return host, channel

    host, channel = asyncio.run(scenario())
    counters = channel.counters()
    assert counters["acks_rejected"] == 2
    assert counters["items_acked"] == 3
    # The bogus acks never corrupted delivery: exactly once, in order.
    assert [seq for seq, _, _ in host.items] == [0, 1, 2]
    assert [m.through_vt for _, _, m in host.items] == [0, 1, 2]


def test_first_sighting_redirect_keeps_the_buffer():
    """A promoted engine queues its ``ReplayRequest`` to the ingress on a
    fresh channel; the ingress's first readings can overtake that
    channel's handshake, and the redirect they trigger is a first
    sighting, not a move.  Dropping the queued request stalled the
    cluster until its deadline."""
    async def scenario():
        host = FakeHost(incarnation="hostA#1")
        await host.start()
        channel = OutboundChannel("sender:1", "n", [("127.0.0.1",
                                                     host.port)])
        channel.enqueue("src", msg(0))
        channel.redirect("hostA")  # first inbound item, before WELCOME
        channel.start()
        await wait_until(lambda: channel.items_acked == 1)
        await channel.close()
        await host.stop()
        return host, channel

    host, channel = asyncio.run(scenario())
    assert [m.through_vt for _, _, m in host.items] == [0]
    assert channel.epoch_resets == 0


def test_reset_drops_the_connection_and_retires_the_incarnation():
    """A reset restarts sequence numbers, but the receiver keys its dedup
    state by (peer, node, incarnation): numbers restarted toward the same
    incarnation would be discarded as duplicates and acked as an overrun,
    stranding every later item.  The reset hangs up instead and waits for
    the node's next incarnation."""
    async def scenario():
        host = FakeHost(incarnation="hostA#1")
        await host.start()
        channel = OutboundChannel("sender:1", "n",
                                  [("127.0.0.1", host.port)],
                                  backoff_min=0.01, backoff_max=0.05)
        channel.start()
        for i in range(3):
            channel.enqueue("src", msg(i))
        await wait_until(lambda: channel.items_acked == 3)
        channel.reset()  # the node was declared failed
        channel.enqueue("src", msg(3))
        channel.enqueue("src", msg(4))
        await wait_until(lambda: host.hellos >= 3)  # redialled, refused
        assert [seq for seq, _, _ in host.items] == [0, 1, 2]
        assert channel.backlog() == 2 and not channel.connected
        host.incarnation = "hostA#2"  # re-hosted: a fresh receiver
        host.expected = 0
        await wait_until(lambda: channel.items_acked == 5)
        await channel.close()
        await host.stop()
        return host, channel

    host, channel = asyncio.run(scenario())
    assert [seq for seq, _, _ in host.items] == [0, 1, 2, 0, 1]
    assert [m.through_vt for _, _, m in host.items] == [0, 1, 2, 3, 4]
    counters = channel.counters()
    assert counters["acks_rejected"] == 0
    assert counters["epoch_resets"] == 1
    assert channel.incarnation == "hostA#2"


def test_channel_state_and_send_window_are_sans_io():
    """The protocol's decisions name no event loop, clock, socket or
    print: the driver performs, the state only decides."""
    for cls in (ChannelState, InboundState, SendWindow):
        tree = ast.parse(textwrap.dedent(inspect.getsource(cls)))
        names = {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)}
        names |= {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)}
        assert not names & {"asyncio", "time", "sleep", "open_connection",
                            "print"}, cls.__name__


def test_welcomed_ends_on_welcome_never_on_not_here_or_a_refusal():
    async def scenario():
        host = FakeHost(accept=False)
        await host.start()
        quick = dict(backoff_min=0.001, backoff_max=0.002)
        refused = OutboundChannel("sender:1", "n",
                                  [("127.0.0.1", dead_port())], **quick)
        turned_away = OutboundChannel("sender:1", "n",
                                      [("127.0.0.1", host.port)], **quick)
        loop = asyncio.get_running_loop()
        waits = [loop.create_task(channel.welcomed())
                 for channel in (refused, turned_away)]
        refused.start()
        turned_away.start()
        await wait_until(lambda: refused.connect_failures >= 3
                         and turned_away.connect_failures >= 3)
        pending = [not wait.done() for wait in waits]
        host.accept = True  # NOT_HERE until now; WELCOME from here on
        await asyncio.wait_for(waits[1], 5.0)
        await asyncio.wait_for(turned_away.welcomed(), 0.1)  # connected
        still_refused = not waits[0].done()
        waits[0].cancel()
        for channel in (refused, turned_away):
            await channel.close()
        await host.stop()
        return pending, still_refused

    pending, still_refused = asyncio.run(scenario())
    assert pending == [True, True]
    assert still_refused


def test_flushed_waits_for_the_ack_but_not_for_a_peer_that_hung_up():
    async def scenario():
        host = FakeHost()
        await host.start()
        channel = OutboundChannel("sender:1", "n", [("127.0.0.1", host.port)])
        channel.start()
        await channel.welcomed()
        await asyncio.wait_for(channel.flushed(), 0.1)  # nothing to wait for
        host.hold_acks = asyncio.Event()
        channel.enqueue("src", msg(0))
        flushing = asyncio.get_running_loop().create_task(channel.flushed())
        await wait_until(lambda: len(host.items) == 1)
        held = not flushing.done()
        host.hold_acks.set()
        await asyncio.wait_for(flushing, 5.0)
        acked = channel.items_acked

        host.hold_acks = asyncio.Event()  # never set: a peer going away
        channel.enqueue("src", msg(1))
        flushing = asyncio.get_running_loop().create_task(channel.flushed())
        await wait_until(lambda: len(host.items) == 2)
        host.kick()
        await asyncio.wait_for(flushing, 5.0)
        unacked = channel.backlog()
        await channel.close()
        await host.stop()
        return held, acked, unacked

    held, acked, unacked = asyncio.run(scenario())
    assert held and acked == 1
    assert unacked == 1  # ended by the hang-up, not by an ack
