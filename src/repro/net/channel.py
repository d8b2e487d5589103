"""Framed, reconnecting socket channels, and the pure protocol behind them.

An :class:`OutboundChannel` carries messages from one process to one
destination *node* (an engine, replica, ingress, consumer, or a
process's ``proc:<name>`` control node), wherever that node is hosted.
It only performs what a pure :class:`ChannelState` decides, on the
sender window it shares with the simulated ``ReliableChannel``
(:class:`~repro.runtime.link.SendWindow`): FIFO exactly-once delivery
within an incarnation (sequence numbers, resend of the unacked tail,
cumulative acks inside ``[frontier, next_seq]``), an epoch reset when
the node is re-hosted (TART's replay regenerates what the dropped
buffer held), batched writes, backpressure on the real-time pump, and
awaitable :meth:`~OutboundChannel.welcomed` / :meth:`~OutboundChannel.flushed`
milestones for the cluster's barriers.  Address lists are ordered
candidates, for an engine its succession line, so after a failover the
reconnect loop finds the promoted incarnation by itself.

The receiving side's decisions are pure too: :class:`InboundState`
(HELLO answers, item verdicts, acks) and :class:`CrashProbe`, which
:class:`~repro.net.server.ProcessRuntime` performs.  :func:`handshake`
is the one dialer.  ``docs/net.md`` has the protocol in full.
"""

from __future__ import annotations

import asyncio
import random
import sys
import zlib
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import TransportError
from repro.net import codec
from repro.runtime.link import SendWindow

#: Items buffered (unsent + unacked) above which a channel reports
#: congestion to the pump.
HIGH_WATER_ITEMS = 4096

#: Default cap on items packed into one FRAME_BATCH.  Bounds per-frame
#: latency and keeps a single torn batch cheap to retransmit; bursts
#: larger than this simply produce several batch frames.
BATCH_MAX_ITEMS = 64

#: Default reconnect backoff bounds in seconds (constructor-tunable so
#: chaos tests can compress wall-clock time).
BACKOFF_MIN_S = 0.02
BACKOFF_MAX_S = 0.5

#: Default bound in seconds on the connect, and on the handshake read.
CONNECT_TIMEOUT_S = 2.0

#: What :meth:`OutboundChannel.counters` reports, in order.
COUNTERS = ("items_sent", "items_acked", "items_resent", "reconnects",
            "connect_failures", "epoch_resets", "frames_sent",
            "batches_sent", "bytes_sent", "acks_received", "acks_rejected",
            "torn_frames", "proto_rejects")


def _release(waiter: Optional[asyncio.Future]) -> None:
    """Resolve a parked wait future, unless absent or already done."""
    if waiter is not None and not waiter.done():
        waiter.set_result(None)


def backoff_jitter_rng(seed: int, peer: str, dst_node: str) -> random.Random:
    """A deterministic per-(peer, destination) jitter stream.

    Seeded from stable identifiers only (the cluster seed, the peer's
    *process name*, and the destination node), so the same deployment
    always draws the same jitter sequence — reproducible for chaos
    replay — while distinct channels draw *different* sequences, which
    is what desynchronizes the reconnect storm after a partition heals.
    """
    stable_peer = peer.rsplit(":", 1)[0]  # drop the per-run uuid suffix
    key = f"{seed}|{stable_peer}|{dst_node}".encode()
    return random.Random(zlib.crc32(key))


class ChannelState:
    """Every protocol decision of one outbound channel: no sockets, no
    event loop, no clock.  Events go in (a WELCOME, a failed dial, an
    ACK, a redirect, a reset); answers come out (write these bodies,
    hang up, dial this address, sleep this long)."""

    def __init__(self, dst_node: str, addresses: Sequence[Tuple[str, int]],
                 backoff_min: float, backoff_max: float,
                 jitter: random.Random):
        self.dst_node = dst_node
        self.addresses = [tuple(a) for a in addresses]
        self.backoff_min = float(backoff_min)
        self.backoff_max = float(backoff_max)
        self._jitter = jitter
        self._backoff = self.backoff_min
        self._dials = 0
        #: Index of the candidate dialled last, and of the one adopted.
        self._at = self._floor = 0
        #: Dials left before the next backoff sleep (see :meth:`redirect`).
        self.redial_left = 0
        #: Items not yet numbered; the driver appends to it directly.
        self.pending: Deque[Tuple[str, Any]] = deque()
        #: Numbered item bodies awaiting their cumulative ack.
        self.window = SendWindow()
        #: The adopted incarnation; earlier epochs' ones are retired.
        self.incarnation: Optional[str] = None
        self._retired = set()
        #: The host a redirect named, until an incarnation is adopted.
        self.expected_peer: Optional[str] = None
        self.connected = False
        self.epoch_resets = 0
        self.items_acked = 0
        self.acks_received = 0
        self.acks_rejected = 0

    def next_address(self) -> Tuple[str, int]:
        """The candidate to dial next, round robin."""
        self._at = self._dials % len(self.addresses)
        self._dials += 1
        address = self.addresses[self._at]
        if self.redial_left:
            self.redial_left -= 1
        return address

    def on_dial_failed(self) -> Optional[float]:
        """Seconds to sleep before the next dial (None: dial at once).
        The ladder grows 1.6x per sleep, jittered 0.5x..1.5x by the
        seeded stream so healed partitions see no synchronized waves."""
        if self.redial_left:
            return None
        delay = min(self.backoff_max,
                    self._backoff * (0.5 + self._jitter.random()))
        self._backoff = min(self.backoff_max, self._backoff * 1.6)
        return delay

    def on_welcome(self, incarnation: str) -> Optional[List[Dict[str, Any]]]:
        """The unacked tail to resend first, in order, for a WELCOME
        from the candidate dialled last; None refuses a retired
        incarnation, a candidate before the one adopted last (nodes only
        move down the list), and at that one, a peer other than the one
        a redirect named (a later candidate is newer than any adopted)."""
        if incarnation in self._retired or self._at < self._floor or (
                self._at == self._floor and self.expected_peer is not None
                and not incarnation.startswith(self.expected_peer + "#")):
            return None
        if self.incarnation not in (None, incarnation):
            self._new_epoch()  # re-hosted: the buffer died with it
        self.incarnation, self.expected_peer = incarnation, None
        self._floor = self._at
        self._backoff = self.backoff_min
        self.redial_left = 0
        self.connected = True
        return list(self.window.unacked.values())

    def on_disconnect(self) -> None:
        self.connected = False

    def take_burst(self) -> List[Dict[str, Any]]:
        """Number every pending item into the window (only while
        connected); the bodies to write."""
        if not self.connected:
            return []
        window, dst, bodies = self.window, self.dst_node, []
        for src, msg in self.pending:
            body = codec.item_body(window.next_seq, src, dst, msg)
            window.push(body)
            bodies.append(body)
        self.pending.clear()
        return bodies

    def on_ack(self, upto: int) -> bool:
        """Apply one cumulative ACK; False rejects it (outside the
        window, or from a connection already dropped)."""
        released = self.window.ack(upto) if self.connected else None
        if released is None:
            self.acks_rejected += 1
            return False
        self.acks_received += 1
        self.items_acked += len(released)
        return True

    def reset(self) -> None:
        """The node was declared failed: new epoch; the caller hangs up."""
        self._new_epoch()
        self.connected = False

    def redirect(self, host_peer_id: str) -> bool:
        """The node is now hosted by ``host_peer_id``.  True when the
        caller must hang up and end any backoff sleep.

        The host is pinned and every candidate dialled once before the
        next sleep.  A move away from an adopted incarnation resets the
        epoch; with nothing adopted, nothing was numbered yet and the
        buffer is kept, as if the handshake had won the race.
        """
        if self.incarnation is not None:
            if self.incarnation.startswith(host_peer_id + "#"):
                return False
            self._new_epoch()
        elif self.expected_peer == host_peer_id:
            return False
        self.expected_peer = host_peer_id
        self.connected = False
        self.redial_left = len(self.addresses)
        return True

    def _new_epoch(self) -> None:
        """Drop everything buffered, restart sequence numbers and retire
        the adopted incarnation (its receiver holds the old dedup state)."""
        if self.incarnation is not None:
            self._retired.add(self.incarnation)
            self.incarnation = None
        self.pending.clear()
        self.window.reset()
        self.epoch_resets += 1


#: :meth:`InboundState.hello` answers; :meth:`InboundState.item` verdicts.
REJECT, NOT_HERE, WELCOME = "reject", "not_here", "welcome"
DELIVER, CONTROL, DUPLICATE, HANG_UP = "deliver", "control", "dup", "hang"
#: Messages the receiving process acts on at once: GO and Shutdown work
#: while the pump is stopped, and a fence stops the items behind it.
CONTROL_TAGS = frozenset(
    tag for tag, cls in codec.MESSAGE_TAGS.items()
    if cls in (codec.GoSignal, codec.Shutdown, codec.FenceRequest,
               codec.CorruptRequest))


def deposed(line: Sequence[str], peer: str, *hosts: Optional[str]) -> bool:
    """Whether traffic from ``peer`` is a deposed host's leftover: its
    process comes before that of one of ``hosts`` (peers or incarnations
    the node is known at) on the node's succession ``line``.  A node only
    moves down its line, and processes never restart."""
    rank = {process: n for n, process in enumerate(line)}
    at = rank.get(peer.split(":", 1)[0], -1)
    return any(host is not None and rank.get(host.split(":", 1)[0], -1) > at
               for host in hosts)


class InboundState:
    """Every decision of the receiving end: the HELLO answer, each
    item's verdict, the ack value and retiring dedup state.  No
    sockets, no event loop, no clock.  The caller passes the
    destination's live incarnation (None: not hosted here, or dead).

    A stream is keyed by (sender peer, destination node, destination
    incarnation), so a re-hosted node starts clean, matching the
    sender's sequence restart on an epoch reset.
    """

    def __init__(self):
        #: stream key -> the next sequence number expected on it.
        self.expected: Dict[Tuple[str, str, str], int] = {}
        #: node -> the incarnation the last WELCOME for it named.
        self._welcomed: Dict[str, str] = {}

    def hello(self, proto: Any, peer: str, dst: str,
              incarnation: Optional[str]):
        """``(answer, stream key)``: REJECT for another wire version,
        NOT_HERE without a live incarnation, else WELCOME.  Finding the
        one welcomed last fenced, dead or re-hosted retires its streams."""
        if proto != codec.WIRE_VERSION:
            return REJECT, None
        if self._welcomed.get(dst, incarnation) != incarnation:
            gone = (dst, self._welcomed.pop(dst))
            self.expected = {key: seq for key, seq in self.expected.items()
                             if key[1:] != gone}
        if incarnation is None:
            return NOT_HERE, None
        self._welcomed[dst] = incarnation
        return WELCOME, (peer, dst, incarnation)

    def item(self, key: Tuple[str, str, str], seq: int, tag: int,
             incarnation: Optional[str]) -> str:
        """The verdict on item ``seq`` (message ``tag``) of stream
        ``key``: HANG_UP once its incarnation is not the live one (the
        sender re-handshakes and finds the successor), DUPLICATE below
        the expected ``seq`` (only acked), else CONTROL or DELIVER; a
        ``seq`` above it means a lost dedup entry, so the stream resyncs
        rather than black-hole the sender."""
        if incarnation != key[2]:
            return HANG_UP
        if seq < self.expected.get(key, 0):
            return DUPLICATE
        self.expected[key] = seq + 1
        return CONTROL if tag in CONTROL_TAGS else DELIVER

    def ack_value(self, key: Tuple[str, str, str]) -> int:
        """The cumulative ``upto`` to acknowledge on stream ``key``."""
        return self.expected.get(key, 0)


#: What :func:`handshake` found instead of an answer.
REFUSED, DROPPED, TORN, LOST = "refused", "dropped", "torn", "lost"
#: Dials of a candidate that accepts and drops unanswered, and the pause
#: in seconds before each redial.
CRASH_PROBE_TRIES = 4
CRASH_PROBE_GAP_S = 0.005


class CrashProbe:
    """One crash probe of one engine: which ended connection starts it,
    which candidates it dials, the verdict.  No sockets, no event loop,
    no clock.

    The candidates are the processes before the follower on the
    engine's succession line, the ones ``RemoteEngineHandle.halt``
    fences.  The crash is confirmed when every one refuses a connect;
    any answer, timeout or other error leaves the heartbeat timeout in
    charge.  A candidate that accepts and drops unanswered is a dying
    listener (or a proxy front finding its upstream gone): it is dialled
    again, :data:`CRASH_PROBE_TRIES` times in all.
    """

    def __init__(self, spec, engine_id: str, rank: int):
        self._left = deque(
            tuple(spec.addresses[f"proc:{process}"][0])
            for process in spec.succession_line(engine_id)[:1 + rank]
            if spec.addresses.get(f"proc:{process}"))
        self._drops = 0
        self._alive = False

    @staticmethod
    def suspects(peer: str, hosts: Dict[str, Optional[str]],
                 probing, stopping: bool) -> List[str]:
        """The engines of ``hosts`` (followed engine -> its host peer)
        an ended item connection from ``peer`` starts probes for: those
        ``peer`` hosts, not ``probing`` yet; none after a Shutdown."""
        if stopping:
            return []
        return [engine for engine, host in hosts.items()
                if host == peer and engine not in probing]

    def next_dial(self) -> Optional[Tuple[Tuple[str, int], float]]:
        """``(address, pause in seconds)``; None once decided."""
        if self._alive or not self._left:
            return None
        return self._left[0], CRASH_PROBE_GAP_S if self._drops else 0.0

    def on_dial(self, outcome: Any) -> None:
        """Fold in the last dial's outcome (anything else: answered)."""
        if outcome is REFUSED:
            self._left.popleft()
            self._drops = 0
        elif ((outcome is DROPPED or outcome is TORN)
              and self._drops + 1 < CRASH_PROBE_TRIES):
            self._drops += 1
        else:
            self._alive = True

    def confirms(self, stopping: bool) -> bool:
        """Every candidate refused, and no Shutdown arrived."""
        return not (self._alive or self._left or stopping)


class OutboundChannel:
    """Performs a :class:`ChannelState`'s decisions over TCP."""

    def __init__(self, peer_id: str, dst_node: str,
                 addresses: Sequence[Tuple[str, int]],
                 backoff_min: float = BACKOFF_MIN_S,
                 backoff_max: float = BACKOFF_MAX_S,
                 connect_timeout: float = CONNECT_TIMEOUT_S,
                 jitter_seed: int = 0,
                 batch_max_items: int = BATCH_MAX_ITEMS,
                 ack_watcher: Optional[Callable[[int], None]] = None):
        if not addresses:
            raise codec.CodecError(f"no addresses for node {dst_node!r}")
        self.peer_id = peer_id
        self.dst_node = dst_node
        self.connect_timeout = float(connect_timeout)
        self.batch_max_items = max(1, int(batch_max_items))
        self._state = ChannelState(
            dst_node, addresses, backoff_min, backoff_max,
            backoff_jitter_rng(jitter_seed, peer_id, dst_node))
        self._encoder = codec.FrameEncoder()
        #: Called with each accepted ack's ``upto`` (benchmarks measure
        #: enqueue-to-ack latency through it).
        self._ack_watcher = ack_watcher
        self._writer = None
        #: Future the idle send loop parks on (see :meth:`_converse`).
        self._kick: Optional[asyncio.Future] = None
        #: Future a backoff sleep parks on; only :meth:`redirect` and
        #: :meth:`close` end it early, never a new item or a reset.
        self._backoff: Optional[asyncio.Future] = None
        self._closed = False
        self._task: Optional[asyncio.Task] = None
        #: Parked :meth:`welcomed` and :meth:`flushed` callers.
        self._welcome_waiters: List[asyncio.Future] = []
        self._flush_waiters: List[asyncio.Future] = []
        #: Fatal protocol rejection, once one arrived (FRAME_ERROR).
        self.last_error: Optional[Exception] = None
        #: Diagnostics.
        self.items_sent = 0
        self.items_resent = 0
        self.reconnects = 0
        self.connect_failures = 0
        self.frames_sent = 0
        self.batches_sent = 0
        self.bytes_sent = 0
        self.torn_frames = 0
        self.proto_rejects = 0

    #: Read-only views of the state.
    connected = property(lambda self: self._state.connected)
    incarnation = property(lambda self: self._state.incarnation)
    items_acked = property(lambda self: self._state.items_acked)
    epoch_resets = property(lambda self: self._state.epoch_resets)
    acks_received = property(lambda self: self._state.acks_received)
    acks_rejected = property(lambda self: self._state.acks_rejected)

    def counters(self) -> dict:
        """Per-channel fault/retransmit/epoch counters (for metrics)."""
        return {name: getattr(self, name) for name in COUNTERS}

    # -- producer side (called synchronously from sim events) ----------
    def enqueue(self, src_node: str, msg: Any) -> None:
        """Accept one message for delivery; never blocks."""
        if self._closed:
            return
        self._state.pending.append((src_node, msg))
        if self._kick is not None:
            _release(self._kick)

    def backlog(self) -> int:
        """Unsent + unacknowledged item count (congestion signal)."""
        return len(self._state.pending) + len(self._state.window.unacked)

    def congested(self) -> bool:
        """Whether the pump should pause.  Only a *connected* channel
        exerts backpressure: one group's failover must not stall the
        pump for every other group (its epoch reset drops the backlog)."""
        return self._state.connected and self.backlog() > HIGH_WATER_ITEMS

    async def welcomed(self) -> None:
        """Return once a WELCOME is accepted (at once while connected).

        NOT_HERE, a refused or failed dial and a refused incarnation do
        not end the wait; bound it with a timeout.
        """
        if not self._state.connected:
            await self._park(self._welcome_waiters)

    async def flushed(self) -> None:
        """Return once every item is acknowledged, or the connection is
        gone (at once if so already).

        A channel that is not connected is not waited for: at shutdown
        its peer is going away too and would not act on the items.
        """
        if self._state.connected and self.backlog():
            await self._park(self._flush_waiters)

    async def _park(self, waiters: List[asyncio.Future]) -> None:
        waiter = asyncio.get_running_loop().create_future()
        waiters.append(waiter)
        try:
            await waiter
        finally:
            waiters.remove(waiter)

    def _wake_flushed(self) -> None:
        if not (self._state.connected and self.backlog()):
            for waiter in self._flush_waiters:
                _release(waiter)

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Launch the connect/send loop on the running event loop."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name=f"channel:{self.dst_node}"
            )

    async def close(self) -> None:
        """Stop the channel; buffered items are dropped."""
        self._closed = True
        _release(self._kick)
        _release(self._backoff)
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except (asyncio.CancelledError, Exception):
                pass
            self._task = None

    def reset(self) -> None:
        """The peer node was declared failed: drop its buffered traffic
        and the connection to it (replay recovers whatever mattered);
        the reconnect loop adopts the node's next incarnation."""
        self._state.reset()
        self._hang_up()

    def redirect(self, host_peer_id: str) -> None:
        """Inbound traffic *from* the node arrived via ``host_peer_id``.
        A move resets the epoch *now*, before that item is processed, so
        a replay fill enqueued in response lands in the new epoch."""
        if self._state.redirect(host_peer_id):
            self._hang_up()
            _release(self._backoff)

    # -- internals ------------------------------------------------------
    def _hang_up(self) -> None:
        if self._writer is not None:
            self._writer.close()
        _release(self._kick)

    async def _run(self) -> None:
        state, loop = self._state, asyncio.get_running_loop()
        while not self._closed:
            address, tail = state.next_address(), None
            try:
                conn = await handshake(address, self.peer_id, self.dst_node,
                                       self.connect_timeout)
                if type(conn) is tuple:
                    reader, writer, (tag, body) = conn
                    if tag == codec.FRAME_ERROR:
                        writer.close()
                        raise codec.CodecError(
                            f"peer at {address[0]}:{address[1]} rejected "
                            f"handshake: {body.get('error', '')} (peer "
                            f"proto {body.get('proto')!r}, ours "
                            f"{codec.WIRE_VERSION})")
                    if tag == codec.FRAME_WELCOME:
                        tail = state.on_welcome(body.get("incarnation", ""))
                    if tail is None:  # NOT_HERE, or a refused host
                        writer.close()
                elif conn is TORN:
                    self.torn_frames += 1  # died mid-frame: a reset
            except codec.CodecError as exc:
                # Structured protocol rejection (e.g. the peer speaks
                # another wire version): retrying cannot help, so park
                # instead of hammering the host with doomed handshakes.
                self.proto_rejects += 1
                self.last_error = exc
                self._closed = True
                print(f"channel to {self.dst_node}: {exc}",
                      file=sys.stderr, flush=True)
                return
            if tail is None:
                self.connect_failures += 1
                delay = state.on_dial_failed()
                if delay is not None:
                    self._backoff = loop.create_future()
                    timer = loop.call_later(delay, _release, self._backoff)
                    try:
                        await self._backoff
                    finally:
                        timer.cancel()
                        self._backoff = None
                continue
            for waiter in self._welcome_waiters:
                _release(waiter)
            try:
                await self._converse(reader, writer, tail)
            except (ConnectionError, OSError, asyncio.IncompleteReadError):
                pass
            finally:
                state.on_disconnect()
                self._wake_flushed()
                self.reconnects += 1
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass

    def _send_burst(self, writer, bodies: List[Dict[str, Any]],
                    resend: bool = False) -> None:
        """Write one burst of items as batch frames (no drain).

        Chunks of ``batch_max_items`` become ``FRAME_BATCH`` frames; a
        lone item stays a plain ``FRAME_ITEM``.
        """
        encoder = self._encoder
        cap = self.batch_max_items
        for start in range(0, len(bodies), cap):
            chunk = bodies[start:start + cap]
            if len(chunk) == 1:
                frame = encoder.encode(codec.FRAME_ITEM, {"items": chunk})
            else:
                frame = encoder.encode_batch(chunk)
                self.batches_sent += 1
            writer.write(frame)
            self.frames_sent += 1
            self.bytes_sent += len(frame)
        if resend:
            self.items_resent += len(bodies)
        else:
            self.items_sent += len(bodies)

    async def _converse(self, reader, writer, tail) -> None:
        """Send loop for one live connection.

        Resends the unacked ``tail`` first, then drains once per burst.
        When idle it parks on one plain future, :attr:`_kick`, which
        :meth:`enqueue`, :meth:`_hang_up`, :meth:`close` and the ack
        reader's exit resolve — no task per wake-up.
        """
        self._writer = writer
        state = self._state
        loop = asyncio.get_running_loop()
        acks = loop.create_task(
            self._consume_acks(reader), name=f"acks:{self.dst_node}"
        )
        # A dead connection ends the idle wait through the ack reader.
        acks.add_done_callback(lambda _task: _release(self._kick))
        try:
            if tail:
                self._send_burst(writer, tail, resend=True)
            await writer.drain()
            while state.connected and not acks.done():
                bodies = state.take_burst()
                if bodies:
                    self._send_burst(writer, bodies)
                    await writer.drain()
                    continue
                self._kick = loop.create_future()
                try:
                    await self._kick
                finally:
                    self._kick = None
        finally:
            self._writer = None
            if not acks.done():
                acks.cancel()
                try:
                    await acks
                except asyncio.CancelledError:
                    pass

    async def _consume_acks(self, reader) -> None:
        on_ack, watcher = self._state.on_ack, self._ack_watcher
        try:
            while True:
                frame = await codec.read_frame(reader)
                if frame is None:
                    return
                frame_tag, body = frame
                if frame_tag != codec.FRAME_ACK:
                    continue
                if on_ack(body["upto"]):
                    if watcher is not None:
                        watcher(body["upto"])
                    if self._flush_waiters:
                        self._wake_flushed()
        except TransportError:
            # Covers CodecError: the connection died mid-frame or the
            # peer sent garbage — a reset, not an orderly close; the
            # reconnect loop retransmits the unacked tail.
            self.torn_frames += 1


async def all_flushed(channels: Sequence[OutboundChannel],
                      timeout: float) -> bool:
    """Wait until each of ``channels`` is :meth:`~OutboundChannel.flushed`;
    False if ``timeout`` seconds pass first."""
    if not channels:
        return True
    try:
        await asyncio.wait_for(
            asyncio.gather(*(channel.flushed() for channel in channels)),
            timeout)
    except asyncio.TimeoutError:
        return False
    return True


async def handshake(address: Tuple[str, int], peer_id: str, dst_node: str,
                    timeout: float):
    """Connect, say HELLO for ``dst_node`` and read the answer frame:
    ``(reader, writer, frame)``; else, the writer closed, REFUSED
    (nothing listens), DROPPED (closed or reset unanswered), TORN (died
    mid-answer) or LOST (a timeout or other error).  A malformed answer
    raises :class:`~repro.net.codec.CodecError`."""
    host, port = address
    try:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout=timeout)
    except ConnectionRefusedError:
        return REFUSED
    except ConnectionError:
        return DROPPED  # reset while connecting: a dying listener
    except (OSError, asyncio.TimeoutError):
        return LOST
    try:
        writer.write(codec.encode_hello(peer_id, dst_node))
        await writer.drain()
        frame = await asyncio.wait_for(codec.read_frame(reader),
                                       timeout=timeout)
    except codec.CodecError:
        writer.close()
        raise
    except ConnectionError:
        frame = None
    except TransportError:
        writer.close()
        return TORN
    except (OSError, asyncio.TimeoutError):
        writer.close()
        return LOST
    if frame is None:
        writer.close()
        return DROPPED
    return reader, writer, frame
