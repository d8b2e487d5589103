"""Framed, reconnecting socket channels.

An :class:`OutboundChannel` carries messages from one process to one
destination *node* (an engine, replica, ingress, or consumer), wherever
that node is currently hosted.  A pure :class:`ChannelState` makes every
protocol decision on the sender window it *shares* with the simulated
``ReliableChannel`` (:class:`~repro.runtime.link.SendWindow`); the
channel only performs them:

* **FIFO, exactly-once within an incarnation.**  Items get per-channel
  sequence numbers and stay buffered until cumulatively acknowledged;
  after a TCP drop the channel reconnects and resends everything
  unacknowledged, and the receiver discards sequence numbers it has
  already seen.
* **Epoch reset across incarnations.**  The WELCOME handshake carries
  the hosted node's *incarnation*.  When it changes (the node was
  re-hosted — i.e. a replica was promoted), buffered traffic for the
  dead incarnation is discarded and sequence numbers restart, exactly
  like ``ReliableChannel.reset()`` on engine failure; TART's replay
  regenerates anything that mattered.
* **Backpressure.**  The writer honours ``drain()``, and a congested
  channel stops the real-time pump (``RealtimeKernel.congestion_check``).
* **Batched wire path.**  The send loop drains once per *burst* of
  ``FRAME_BATCH`` frames (``batch_max_items`` items each).  The receiver
  acks once per frame; an ``upto`` outside ``[frontier, next_seq]`` is
  rejected, so a stale host can neither regress nor overrun it.

Address lists are ordered candidates: for an engine node the primary
host comes first and its replica's process second, so after a failover
the reconnect loop finds the promoted incarnation by itself (the
replica process answers NOT_HERE until promotion completes).
"""

from __future__ import annotations

import asyncio
import random
import sys
import zlib
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import FenceDeliveryError, TransportError
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
        #: Dials left before the next backoff sleep (see :meth:`redirect`).
        self.redial_left = 0
        #: Items not yet numbered; the driver appends to it directly.
        self.pending: Deque[Tuple[str, Any]] = deque()
        #: Numbered item bodies awaiting their cumulative ack.
        self.window = SendWindow()
        #: The adopted incarnation; earlier epochs' ones are retired.
        self.incarnation: Optional[str] = None
        self._retired = set()
        #: When set, only incarnations hosted by this peer are accepted.
        self.expected_peer: Optional[str] = None
        self.connected = False
        self.epoch_resets = 0
        self.items_acked = 0
        self.acks_received = 0
        self.acks_rejected = 0

    def next_address(self) -> Tuple[str, int]:
        """The candidate to dial next, round robin."""
        address = self.addresses[self._dials % len(self.addresses)]
        self._dials += 1
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
        """The unacked tail to resend first, in order; None refuses the
        host (a retired incarnation, or not the peer a redirect named)."""
        if incarnation in self._retired or (
                self.expected_peer is not None
                and not incarnation.startswith(self.expected_peer + "#")):
            return None
        if self.incarnation not in (None, incarnation):
            self._new_epoch()  # re-hosted: the buffer died with it
        self.incarnation = incarnation
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

        A move resets the epoch and pins the host; every candidate is
        then dialled once before the next sleep.  A *first sighting*
        (nothing adopted or pinned yet) is not a move and keeps the
        buffer, as if the handshake had won the race.
        """
        if self.incarnation is not None:
            if self.incarnation.startswith(host_peer_id + "#"):
                return False
        elif self.expected_peer == host_peer_id:
            return False
        moved = self.incarnation is not None or self.expected_peer is not None
        self.expected_peer = host_peer_id
        if moved:
            self._new_epoch()
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
                conn = await _handshake(address, self.peer_id, self.dst_node,
                                        self.connect_timeout)
                if conn is not None:
                    reader, writer, frame = conn
                    tag, body = frame if frame is not None else (None, None)
                    if tag == codec.FRAME_ERROR:
                        writer.close()
                        raise codec.CodecError(
                            f"peer at {address[0]}:{address[1]} rejected "
                            f"handshake: {body.get('error', '')} (peer "
                            f"proto {body.get('proto')!r}, ours "
                            f"{codec.WIRE_VERSION})")
                    if tag == codec.FRAME_WELCOME:
                        tail = state.on_welcome(body.get("incarnation", ""))
                    if tail is None:  # NOT_HERE, EOF, or a refused host
                        writer.close()
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
            except TransportError:
                self.torn_frames += 1  # died mid-frame: a reset, not NOT_HERE
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
            try:
                await self._converse(reader, writer, tail)
            except (ConnectionError, OSError, asyncio.IncompleteReadError):
                pass
            finally:
                state.on_disconnect()
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
                if on_ack(body["upto"]) and watcher is not None:
                    watcher(body["upto"])
        except TransportError:
            # Covers CodecError: the connection died mid-frame or the
            # peer sent garbage — a reset, not an orderly close; the
            # reconnect loop retransmits the unacked tail.
            self.torn_frames += 1


async def _handshake(address: Tuple[str, int], peer_id: str, dst_node: str,
                     timeout: float):
    """Connect, say HELLO for ``dst_node`` and read the answer frame.

    ``(reader, writer, frame)``, ``frame`` None at EOF; None when the
    socket failed or ``timeout`` passed.  A torn answer raises
    :class:`~repro.errors.TransportError`, the writer closed.
    """
    host, port = address
    try:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout=timeout)
    except (ConnectionError, OSError, asyncio.TimeoutError):
        return None
    try:
        writer.write(codec.encode_hello(peer_id, dst_node))
        await writer.drain()
        frame = await asyncio.wait_for(codec.read_frame(reader),
                                       timeout=timeout)
    except (ConnectionError, OSError, asyncio.TimeoutError):
        writer.close()
        return None
    except TransportError:
        writer.close()
        raise
    return reader, writer, frame


#: Connects a crash probe makes when the listener accepts and then drops
#: the connection unanswered, and the pause in seconds before each retry.
CRASH_PROBE_TRIES = 4
CRASH_PROBE_GAP_S = 0.005


async def listener_refuses(address: Tuple[str, int], peer_id: str,
                           dst_node: str, timeout: float) -> bool:
    """Whether nothing listens at ``address`` any more.

    True only when the connect is refused: the process that bound the
    address is gone.  An answer to the HELLO for ``dst_node`` (WELCOME,
    NOT_HERE or a protocol error), a timeout, or any other socket error
    is False — something may still be alive there.  A connection that
    is accepted and then reset or closed before any answer is a dying
    listener racing its own exit (or a proxy front that cannot reach
    it): it is dialled again :data:`CRASH_PROBE_GAP_S` later,
    :data:`CRASH_PROBE_TRIES` times in all, before the verdict falls
    back to False.
    """
    host, port = address
    for attempt in range(CRASH_PROBE_TRIES):
        if attempt:
            await asyncio.sleep(CRASH_PROBE_GAP_S)
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), timeout=timeout)
        except ConnectionRefusedError:
            return True
        except ConnectionError:
            continue  # reset while connecting: the dying listener
        except (OSError, asyncio.TimeoutError):
            return False
        try:
            writer.write(codec.encode_hello(peer_id, dst_node))
            await writer.drain()
            frame = await asyncio.wait_for(codec.read_frame(reader),
                                           timeout=timeout)
        except codec.CodecError:
            return False  # garbled, but an answer
        except (ConnectionError, TransportError):
            frame = None  # reset or torn before answering
        except (OSError, asyncio.TimeoutError):
            return False
        finally:
            writer.close()
        if frame is not None:
            return False
    return False


#: Per-attempt connect/handshake timeout of the fence path in seconds.
FENCE_TIMEOUT_S = 1.0


async def _deliver_once(address: Tuple[str, int], peer_id: str,
                        dst_node: str, msg: Any, attempts: int, gap: float,
                        timeout: float) -> Optional[bool]:
    """Connect, handshake for ``dst_node`` and hand over one item.

    Returns True once ``msg`` was written, False when the peer answered
    NOT_HERE, and None when the address stayed unreachable for the
    whole retry budget (``attempts`` tries, ``gap`` seconds apart).
    """
    for _ in range(max(1, attempts)):
        try:
            conn = await _handshake(address, peer_id, dst_node, timeout)
        except TransportError:
            conn = None
        if conn is None:
            await asyncio.sleep(gap)
            continue
        _reader, writer, frame = conn
        try:
            if frame is not None and frame[0] == codec.FRAME_WELCOME:
                writer.write(codec.encode_item(0, peer_id, msg))
                await writer.drain()
                return True
            return False
        except (ConnectionError, OSError):
            await asyncio.sleep(gap)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
    return None


async def send_fence_once(address: Tuple[str, int], peer_id: str,
                          engine_id: str, attempts: int = 10,
                          gap: float = 0.2,
                          timeout: float = FENCE_TIMEOUT_S) -> bool:
    """One-shot fence delivery to an engine's *primary* address (never
    the replica's, so a completed promotion cannot fence itself).

    True when the fence was handed over, False on NOT_HERE (nothing to
    fence — the common post-crash case).  An address unreachable for the
    whole retry budget raises :class:`~repro.errors.FenceDeliveryError`:
    a partitioned-but-alive primary is what operators need to see.
    """
    delivered = await _deliver_once(address, peer_id, engine_id,
                                    codec.FenceRequest(engine_id),
                                    attempts, gap, timeout)
    if delivered is None:
        raise FenceDeliveryError(engine_id, address, max(1, attempts))
    return delivered


async def send_corrupt_once(address: Tuple[str, int], peer_id: str,
                            process: str, engine_id: str,
                            component: str = "", attempts: int = 10,
                            gap: float = 0.2,
                            timeout: float = FENCE_TIMEOUT_S) -> bool:
    """One-shot chaos fault: ask ``process`` to corrupt an engine's state.

    Addressed to the always-hosted ``proc:<process>`` control node, so
    it lands wherever the engine runs.  True when handed over; False on
    NOT_HERE or a spent retry budget (a dead process makes it a no-op).
    """
    delivered = await _deliver_once(address, peer_id, f"proc:{process}",
                                    codec.CorruptRequest(engine_id, component),
                                    attempts, gap, timeout)
    return bool(delivered)
