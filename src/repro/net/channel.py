"""Framed, reconnecting socket channels.

An :class:`OutboundChannel` carries messages from one process to one
destination *node* (an engine, replica, ingress, or consumer), wherever
that node is currently hosted.  It mirrors the delivery guarantees of
the simulated :class:`~repro.runtime.link.ReliableChannel`:

* **FIFO, exactly-once within an incarnation.**  Items get per-channel
  sequence numbers and stay buffered until cumulatively acknowledged;
  after a TCP drop the channel reconnects and resends everything
  unacknowledged, and the receiver discards sequence numbers it has
  already seen.
* **Epoch reset across incarnations.**  The WELCOME handshake carries
  the hosted node's *incarnation*.  When it changes (the node was
  re-hosted — i.e. a replica was promoted), buffered traffic for the
  dead incarnation is discarded and sequence numbers restart, exactly
  like ``ReliableChannel.reset()`` on engine failure: the volatile
  channel state died with the engine, and TART's checkpoint + replay
  recovery regenerates anything that mattered.
* **Backpressure.**  The writer honours the socket's flow control
  (``drain()``), and :meth:`backlog` exposes the unsent + unacked depth
  so the real-time pump can stop advancing the local engine when a peer
  falls behind (see ``RealtimeKernel.congestion_check``) — end-to-end
  backpressure instead of unbounded buffering.
* **Batched wire path.**  The send loop drains once per *burst*: every
  item pending at that moment is packed into ``FRAME_BATCH`` frames
  (``batch_max_items`` per frame, singletons stay plain ``FRAME_ITEM``)
  of struct-packed item records — one frame and one syscall carry many
  messages.  The receiver coalesces acknowledgements to one cumulative
  ACK per frame; the ack consumer rejects any ``upto`` outside the
  ``[frontier, next_seq]`` window, so a stale host answering after a
  promotion can neither regress nor overrun the ack frontier.

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

#: Default connect / handshake timeouts in seconds.
CONNECT_TIMEOUT_S = 2.0
HANDSHAKE_TIMEOUT_S = 2.0


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


class OutboundChannel:
    """Orders and retransmits items toward one destination node."""

    def __init__(self, peer_id: str, dst_node: str,
                 addresses: Sequence[Tuple[str, int]],
                 backoff_min: float = BACKOFF_MIN_S,
                 backoff_max: float = BACKOFF_MAX_S,
                 connect_timeout: float = CONNECT_TIMEOUT_S,
                 handshake_timeout: float = HANDSHAKE_TIMEOUT_S,
                 jitter_seed: int = 0,
                 batch_max_items: int = BATCH_MAX_ITEMS,
                 ack_watcher: Optional[Callable[[int], None]] = None):
        if not addresses:
            raise codec.CodecError(f"no addresses for node {dst_node!r}")
        self.peer_id = peer_id
        self.dst_node = dst_node
        self.addresses: List[Tuple[str, int]] = [tuple(a) for a in addresses]
        self.backoff_min = float(backoff_min)
        self.backoff_max = float(backoff_max)
        self.connect_timeout = float(connect_timeout)
        self.handshake_timeout = float(handshake_timeout)
        self.batch_max_items = max(1, int(batch_max_items))
        self._jitter = backoff_jitter_rng(jitter_seed, peer_id, dst_node)
        self._encoder = codec.FrameEncoder()
        #: Observer of the advancing ack frontier (benchmarks measure
        #: enqueue-to-ack latency through it); called with ``upto``.
        self._ack_watcher = ack_watcher
        #: Items accepted but not yet assigned a sequence number.
        self._pending: Deque[Tuple[str, Any]] = deque()
        #: (seq, in-memory item) sent but not yet acknowledged; resends
        #: re-pack these into fresh batch frames.
        self._unacked: Deque[Tuple[int, Dict[str, Any]]] = deque()
        self._next_seq = 0
        #: Cumulative ack frontier: everything below is acknowledged.
        self._ack_frontier = 0
        self._known_incarnation: Optional[str] = None
        #: When set, only incarnations hosted by this peer are accepted
        #: (the node is known to have moved there; see :meth:`redirect`).
        self._expected_peer: Optional[str] = None
        self._writer = None
        #: Whether a handshaken connection is currently up.  Channels to
        #: an unreachable node (its group is mid-failover) are *parked*:
        #: they buffer but do not count as congestion, so one group's
        #: failover cannot stall the pump feeding every other group (see
        #: :meth:`congested`).
        self.connected = False
        #: Future the send loop parks on while connected and idle; only
        #: exists while it is parked (see :meth:`_converse`).
        self._kick: Optional[asyncio.Future] = None
        #: Future the reconnect loop parks on while backing off; only
        #: :meth:`redirect` and :meth:`close` end that wait early.
        self._backoff: Optional[asyncio.Future] = None
        #: Connect attempts left before the next backoff sleep; a
        #: redirect sets it so every candidate is tried once, unslept.
        self._redial_left = 0
        self._closed = False
        self._task: Optional[asyncio.Task] = None
        #: Fatal protocol rejection, once one arrived (FRAME_ERROR).
        self.last_error: Optional[Exception] = None
        #: Diagnostics.
        self.items_sent = 0
        self.items_acked = 0
        self.items_resent = 0
        self.reconnects = 0
        self.connect_failures = 0
        self.epoch_resets = 0
        self.frames_sent = 0
        self.batches_sent = 0
        self.bytes_sent = 0
        self.acks_received = 0
        self.acks_rejected = 0
        self.torn_frames = 0
        self.proto_rejects = 0

    def counters(self) -> dict:
        """Per-channel fault/retransmit/epoch counters (for metrics)."""
        return {
            "items_sent": self.items_sent,
            "items_acked": self.items_acked,
            "items_resent": self.items_resent,
            "reconnects": self.reconnects,
            "connect_failures": self.connect_failures,
            "epoch_resets": self.epoch_resets,
            "frames_sent": self.frames_sent,
            "batches_sent": self.batches_sent,
            "bytes_sent": self.bytes_sent,
            "acks_received": self.acks_received,
            "acks_rejected": self.acks_rejected,
            "torn_frames": self.torn_frames,
            "proto_rejects": self.proto_rejects,
        }

    # -- producer side (called synchronously from sim events) ----------
    def enqueue(self, src_node: str, msg: Any) -> None:
        """Accept one message for delivery; never blocks."""
        if self._closed:
            return
        self._pending.append((src_node, msg))
        if self._kick is not None:
            _release(self._kick)

    def backlog(self) -> int:
        """Unsent + unacknowledged item count (congestion signal)."""
        return len(self._pending) + len(self._unacked)

    def congested(self) -> bool:
        """Whether the pump should pause before producing more.

        Only a *connected* channel exerts backpressure.  While the peer
        is down (reconnect loop cycling candidates — e.g. its replication
        group is electing a successor) the backlog grows without pausing
        the pump; promotion triggers an epoch reset that discards the
        dead incarnation's backlog, and replay regenerates what
        mattered.  The trade is bounded stall blast-radius for
        transiently unbounded buffering, sized by the failover window.
        """
        return self.connected and self.backlog() > HIGH_WATER_ITEMS

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
        """Discard buffered traffic (the peer node was declared failed).

        Mirrors ``ReliableChannel.reset()``: in-flight and unacked items
        of the old epoch are lost with the failed node; replay recovers
        whatever mattered.  The reconnect loop keeps running and will
        adopt the node's next incarnation.
        """
        self._pending.clear()
        self._unacked.clear()
        self._known_incarnation = None
        self._next_seq = 0
        self._ack_frontier = 0
        self.epoch_resets += 1
        _release(self._kick)

    def redirect(self, host_peer_id: str) -> None:
        """The destination node is now hosted by ``host_peer_id``.

        Called when inbound traffic *from* this node arrives via a peer
        that does not match the channel's adopted incarnation — direct
        evidence that the node was re-hosted (promoted).  Performing the
        epoch reset *now*, before the evidence item is processed, is
        what keeps replay sound: anything the local runtime enqueues in
        response (most importantly a replay fill) lands in the new epoch
        and survives, instead of being discarded when the reconnect loop
        discovers the new incarnation on its own.  The current
        connection (pointed at the dead incarnation) is aborted, and
        only incarnations hosted by ``host_peer_id`` are accepted until
        the node moves again.  A reconnect backoff in progress ends now,
        and every candidate address is tried once before the next sleep.

        A *first sighting* — the channel has neither adopted an
        incarnation nor been pinned to a host — is not a move: the
        buffer is kept, exactly as if the handshake had won the race.
        Dropping it would lose what was queued before the sighting (a
        promoted engine's ``ReplayRequest`` to an ingress whose first
        readings overtook the handshake), and the cluster would stall.
        """
        if (self._known_incarnation is not None
                and self._known_incarnation.startswith(host_peer_id + "#")):
            return  # already pointed at the right host
        if (self._known_incarnation is None
                and self._expected_peer == host_peer_id):
            return
        moved = (self._known_incarnation is not None
                 or self._expected_peer is not None)
        self._expected_peer = host_peer_id
        if moved:
            self._pending.clear()
            self._unacked.clear()
            self._next_seq = 0
            self._ack_frontier = 0
            self._known_incarnation = None
            self.epoch_resets += 1
        if self._writer is not None:
            self._writer.close()
        self._redial_left = len(self.addresses)
        _release(self._kick)
        _release(self._backoff)

    # -- internals ------------------------------------------------------
    async def _run(self) -> None:
        backoff = self.backoff_min
        addr_idx = 0
        while not self._closed:
            address = self.addresses[addr_idx % len(self.addresses)]
            addr_idx += 1
            if self._redial_left:
                self._redial_left -= 1
            try:
                conn = await self._try_connect(address)
            except codec.CodecError as exc:
                # Structured protocol rejection (FRAME_ERROR — e.g. the
                # peer speaks another wire version): retrying cannot
                # help, so park the channel instead of hammering the
                # host with doomed handshakes.
                self.proto_rejects += 1
                self.last_error = exc
                self._closed = True
                print(f"channel to {self.dst_node}: {exc}",
                      file=sys.stderr, flush=True)
                return
            except TransportError:
                # The handshake died mid-frame: a reset, not a refusal.
                self.torn_frames += 1
                conn = None
            if conn is None:
                self.connect_failures += 1
                if self._redial_left:
                    continue  # a redirect named the host: no sleep yet
                # Deterministic jitter (0.5x..1.5x) from the per-channel
                # seeded stream: after a partition heals, every sender
                # would otherwise retry on the same exponential ladder
                # and hammer the healed host in synchronized waves.
                await self._back_off(
                    min(self.backoff_max,
                        backoff * (0.5 + self._jitter.random()))
                )
                backoff = min(self.backoff_max, backoff * 1.6)
                continue
            backoff = self.backoff_min
            self._redial_left = 0
            reader, writer, incarnation = conn
            self._on_incarnation(incarnation)
            self.connected = True
            try:
                await self._converse(reader, writer)
            except (ConnectionError, OSError, asyncio.IncompleteReadError):
                pass
            finally:
                self.connected = False
                self.reconnects += 1
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass

    async def _back_off(self, delay: float) -> None:
        """Sleep ``delay`` seconds, or until :meth:`redirect` / :meth:`close`.

        New items and epoch resets do not end the wait: a parked channel
        must not redial once per message.
        """
        loop = asyncio.get_running_loop()
        waiter = self._backoff = loop.create_future()
        timer = loop.call_later(delay, _release, waiter)
        try:
            await waiter
        finally:
            timer.cancel()
            self._backoff = None

    async def _try_connect(self, address: Tuple[str, int]):
        """One connect + handshake attempt; None if unusable."""
        host, port = address
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port),
                timeout=self.connect_timeout,
            )
        except (ConnectionError, OSError, asyncio.TimeoutError):
            return None
        try:
            writer.write(codec.encode_hello(self.peer_id, self.dst_node))
            await writer.drain()
            frame = await asyncio.wait_for(codec.read_frame(reader),
                                           timeout=self.handshake_timeout)
        except (ConnectionError, OSError, asyncio.TimeoutError):
            writer.close()
            return None
        if frame is not None and frame[0] == codec.FRAME_ERROR:
            # The peer rejected the handshake outright (version
            # negotiation failed); surface the structured reason.
            writer.close()
            body = frame[1]
            raise codec.CodecError(
                f"peer at {host}:{port} rejected handshake: "
                f"{body.get('error', '')} (peer proto {body.get('proto')!r},"
                f" ours {codec.WIRE_VERSION})"
            )
        if frame is None or frame[0] != codec.FRAME_WELCOME:
            # NOT_HERE (or EOF): the node is not hosted there (yet);
            # back off and let the loop try the next candidate address.
            writer.close()
            return None
        incarnation = frame[1].get("incarnation", "")
        if (self._expected_peer is not None
                and not incarnation.startswith(self._expected_peer + "#")):
            # A stale host answered (e.g. a not-yet-fenced primary after
            # its replica was promoted); keep cycling to the true host.
            writer.close()
            return None
        return reader, writer, incarnation

    def _on_incarnation(self, incarnation: str) -> None:
        if self._known_incarnation is None:
            self._known_incarnation = incarnation
        elif incarnation != self._known_incarnation:
            # The node moved to a new incarnation: epoch reset.  Items
            # buffered for the dead incarnation are conceptually already
            # lost (fail-stop); the promoted node drives replay.
            self._pending.clear()
            self._unacked.clear()
            self._next_seq = 0
            self._ack_frontier = 0
            self._known_incarnation = incarnation
            self.epoch_resets += 1

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

    async def _converse(self, reader, writer) -> None:
        """Send/resend loop for one live connection.

        Drains once per burst: every item pending at wake-up is packed
        into batch frames and flushed with a single ``drain()``, instead
        of the historical frame-write (and receiver ack) per item.  When
        idle it parks on one plain future, :attr:`_kick`, which
        :meth:`enqueue`, :meth:`reset`, :meth:`redirect`, :meth:`close`
        and the ack reader's exit resolve — no task per wake-up.
        """
        self._writer = writer
        loop = asyncio.get_running_loop()
        acks = loop.create_task(
            self._consume_acks(reader), name=f"acks:{self.dst_node}"
        )
        # A dead connection ends the idle wait through the ack reader.
        acks.add_done_callback(lambda _task: _release(self._kick))
        try:
            # Same incarnation, new connection: resend the unacked tail
            # first, in order (the receiver discards duplicates by seq).
            if self._unacked:
                self._send_burst(writer,
                                 [body for _seq, body in self._unacked],
                                 resend=True)
            await writer.drain()
            while not self._closed:
                if acks.done():
                    break  # connection died under the ack reader
                if self._pending:
                    pending = self._pending
                    bodies = []
                    while pending:
                        src, msg = pending.popleft()
                        seq = self._next_seq
                        self._next_seq += 1
                        body = codec.item_body(seq, src, self.dst_node, msg)
                        self._unacked.append((seq, body))
                        bodies.append(body)
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
        try:
            while True:
                frame = await codec.read_frame(reader)
                if frame is None:
                    return
                frame_tag, body = frame
                if frame_tag != codec.FRAME_ACK:
                    continue
                upto = body["upto"]
                if upto < self._ack_frontier or upto > self._next_seq:
                    # Out of the [frontier, next_seq] window: a stale
                    # host answering after a promotion, or a corrupt
                    # peer.  Accepting a backwards value would regress
                    # the frontier; a forward overrun would acknowledge
                    # items never sent.  Reject and count.
                    self.acks_rejected += 1
                    continue
                self.acks_received += 1
                if upto > self._ack_frontier:
                    self._ack_frontier = upto
                while self._unacked and self._unacked[0][0] < upto:
                    self._unacked.popleft()
                    self.items_acked += 1
                if self._ack_watcher is not None:
                    self._ack_watcher(upto)
        except TransportError:
            # Covers CodecError: the connection died mid-frame or the
            # peer sent garbage.  Either way this is a reset, not an
            # orderly close — count it; the reconnect loop retransmits
            # the unacked tail.
            self.torn_frames += 1


#: Per-attempt connect/handshake timeout of the fence path in seconds.
FENCE_TIMEOUT_S = 1.0


async def send_fence_once(address: Tuple[str, int], peer_id: str,
                          engine_id: str, attempts: int = 10,
                          gap: float = 0.2,
                          timeout: float = FENCE_TIMEOUT_S) -> bool:
    """One-shot fence delivery to an engine's *primary* address (never
    the replica's, so a completed promotion cannot fence itself).

    Returns True when the fence was handed to the peer, and False when
    the peer answered NOT_HERE (nothing is hosted at the primary, so
    there is nothing to fence — the common post-crash case).  If the
    address stays unreachable for the whole capped retry budget, raises
    a structured :class:`~repro.errors.FenceDeliveryError` instead of
    silently giving up: a partitioned-but-alive primary is exactly the
    case operators need to see.
    """
    host, port = address
    for _ in range(max(1, attempts)):
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), timeout=timeout
            )
        except (ConnectionError, OSError, asyncio.TimeoutError):
            await asyncio.sleep(gap)
            continue
        try:
            writer.write(codec.encode_hello(peer_id, engine_id))
            await writer.drain()
            frame = await asyncio.wait_for(codec.read_frame(reader),
                                           timeout=timeout)
            if frame is not None and frame[0] == codec.FRAME_WELCOME:
                writer.write(codec.encode_item(
                    0, peer_id, codec.FenceRequest(engine_id)
                ))
                await writer.drain()
                return True
            return False  # NOT_HERE: nothing to fence at the primary
        except (ConnectionError, OSError, asyncio.TimeoutError,
                TransportError):
            await asyncio.sleep(gap)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
    raise FenceDeliveryError(engine_id, address, max(1, attempts))


async def send_corrupt_once(address: Tuple[str, int], peer_id: str,
                            process: str, engine_id: str,
                            component: str = "", attempts: int = 10,
                            gap: float = 0.2,
                            timeout: float = FENCE_TIMEOUT_S) -> bool:
    """One-shot chaos fault: ask ``process`` to corrupt an engine's state.

    Follows the fence path's connect/handshake shape, but addresses the
    target's always-hosted ``proc:<process>`` control node rather than
    the engine node, so the fault lands whether the engine is in its
    primary process or was promoted into its replica's.  Returns True
    when the request was handed over, False on NOT_HERE; exhausting the
    retry budget returns False too — a corruption that cannot be
    delivered (process already dead) is a no-op fault, not an error.
    """
    host, port = address
    control = f"proc:{process}"
    for _ in range(max(1, attempts)):
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), timeout=timeout
            )
        except (ConnectionError, OSError, asyncio.TimeoutError):
            await asyncio.sleep(gap)
            continue
        try:
            writer.write(codec.encode_hello(peer_id, control))
            await writer.drain()
            frame = await asyncio.wait_for(codec.read_frame(reader),
                                           timeout=timeout)
            if frame is not None and frame[0] == codec.FRAME_WELCOME:
                writer.write(codec.encode_item(
                    0, peer_id, codec.CorruptRequest(engine_id, component),
                ))
                await writer.drain()
                return True
            return False
        except (ConnectionError, OSError, asyncio.TimeoutError,
                TransportError):
            await asyncio.sleep(gap)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
    return False
