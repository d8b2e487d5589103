"""Open-loop gateway clients (the shared half of the load harness).

An *open-loop* client sends at its scheduled arrival times no matter
how the gateway answers — it never waits for an ACCEPT before the next
SUBMIT, which is what makes offered load independent of system latency
(a closed-loop generator slows down exactly when the system is in
trouble, hiding the overload it was supposed to create).  Replies are
collected by a concurrent reader and matched by ``req``.

Clients are resilient the way the protocol intends: a dead connection
is reconnected (counted), and every still-unanswered ``req`` is
retransmitted verbatim — the gateway's per-client dedup table turns a
retransmit of an already-stamped ``req`` into a replayed ACCEPT, never
a second stamp.  A BUSY reply resolves its ``req`` as dropped (open
loop sheds, it does not queue); the drop is recorded per reason.

:class:`ClientPlan` + :func:`build_clients` generate seeded arrival
schedules — steady Poisson arrivals at a fixed aggregate rate, or a
synchronized burst for overload experiments.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from repro.errors import TransportError
from repro.net import codec

#: Seconds a client waits for WELCOME after HELLO.
_WELCOME_TIMEOUT_S = 10.0

#: Gap between retransmit rounds while draining unanswered reqs.
_RETRANSMIT_GAP_S = 0.5

#: Pause before redialing a dead connection.
_RECONNECT_DELAY_S = 0.1


@dataclass
class ClientStats:
    """Everything one client observed (the exactly-once evidence)."""

    client_id: str
    planned: int = 0
    sent: int = 0
    #: req -> (seq, vt) from the first ACCEPT.
    accepted: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    #: BUSY drops by reason ("rate" / "shed").
    busy: Dict[str, int] = field(default_factory=dict)
    #: reqs still unanswered when the drain deadline hit.
    unresolved: int = 0
    reconnects: int = 0
    connect_errors: int = 0
    #: ACCEPTs that contradicted an earlier ACCEPT for the same req —
    #: a double-stamp, i.e. an exactly-once violation.
    conflicts: int = 0
    #: First-send to first-ACCEPT wall seconds per accepted req (the
    #: client-observable admission round trip; the benchmark's
    #: ``gateway.server.accept_rtt_*`` rows).
    rtt_s: List[float] = field(default_factory=list)


class GatewayClient:
    """One simulated external client with a fixed arrival schedule."""

    def __init__(self, client_id: str, addr: Tuple[str, int],
                 input_id: str, payload_of: Callable[[int], Any],
                 send_at: List[float], drain_s: float = 15.0):
        self.client_id = client_id
        self.addr = addr
        self.input_id = input_id
        self.payload_of = payload_of
        #: Arrival offsets in seconds from the fleet's shared epoch.
        self.send_at = send_at
        self.drain_s = drain_s
        self.stats = ClientStats(client_id, planned=len(send_at))
        self._pending: Dict[int, bytes] = {}
        self._sent_mono: Dict[int, float] = {}
        self._reply = asyncio.Event()
        self._connected_once = False

    # -- reply side ------------------------------------------------------
    async def _reader_loop(self, reader) -> None:
        while True:
            frame = await codec.read_frame(reader)
            if frame is None:
                return
            tag, body = frame
            if tag == codec.FRAME_GW_ACCEPT:
                req = int(body["req"])
                pair = (int(body["seq"]), int(body["vt"]))
                old = self.stats.accepted.get(req)
                if old is not None and old != pair:
                    self.stats.conflicts += 1
                self.stats.accepted.setdefault(req, pair)
                sent = self._sent_mono.pop(req, None)
                if sent is not None:
                    self.stats.rtt_s.append(time.monotonic() - sent)
                self._pending.pop(req, None)
            elif tag == codec.FRAME_GW_BUSY:
                req = int(body["req"])
                reason = str(body.get("reason", "?"))
                if self._pending.pop(req, None) is not None:
                    self.stats.busy[reason] = (
                        self.stats.busy.get(reason, 0) + 1
                    )
            # FRAME_ERROR and anything else: leave reqs pending; the
            # connection is about to die and the retransmit path rules.
            self._reply.set()

    # -- connection lifecycle --------------------------------------------
    async def _connect(self):
        reader, writer = await asyncio.open_connection(*self.addr)
        writer.write(codec.encode_gw_hello(self.client_id))
        await writer.drain()
        frame = await asyncio.wait_for(codec.read_frame(reader),
                                       timeout=_WELCOME_TIMEOUT_S)
        if frame is None or frame[0] != codec.FRAME_GW_WELCOME:
            writer.close()
            raise TransportError(
                f"{self.client_id}: no WELCOME (got {frame!r})"
            )
        return reader, writer

    async def run(self, t0: float) -> ClientStats:
        """Send the whole schedule (epoch ``t0`` in ``time.monotonic()``
        terms), drain replies, retransmit across reconnects."""
        send_idx = 0
        n = len(self.send_at)
        deadline = t0 + (self.send_at[-1] if self.send_at else 0.0) \
            + self.drain_s
        while True:
            reader_task = None
            writer = None
            try:
                reader, writer = await self._connect()
            except (OSError, ConnectionError, TransportError,
                    codec.CodecError, asyncio.TimeoutError):
                self.stats.connect_errors += 1
                if time.monotonic() >= deadline:
                    break
                await asyncio.sleep(_RECONNECT_DELAY_S)
                continue
            if self._connected_once:
                self.stats.reconnects += 1
            self._connected_once = True
            reader_task = asyncio.get_running_loop().create_task(
                self._reader_loop(reader)
            )
            try:
                # After a reconnect: retransmit everything unanswered.
                for frame in list(self._pending.values()):
                    writer.write(frame)
                await writer.drain()
                while send_idx < n:
                    if reader_task.done():
                        raise ConnectionResetError("reader died")
                    delay = (t0 + self.send_at[send_idx]) - time.monotonic()
                    if delay > 0:
                        await asyncio.sleep(delay)
                    frame = codec.encode_gw_submit(
                        send_idx, self.input_id, self.payload_of(send_idx)
                    )
                    self._pending[send_idx] = frame
                    self._sent_mono[send_idx] = time.monotonic()
                    self.stats.sent += 1
                    writer.write(frame)
                    if send_idx % 64 == 0:
                        await writer.drain()
                    send_idx += 1
                await writer.drain()
                while self._pending and time.monotonic() < deadline:
                    if reader_task.done():
                        raise ConnectionResetError("reader died")
                    self._reply.clear()
                    try:
                        await asyncio.wait_for(self._reply.wait(),
                                               _RETRANSMIT_GAP_S)
                    except asyncio.TimeoutError:
                        # A whole gap with no reply: assume lost frames
                        # (e.g. a mid-burst reset) and retransmit.
                        for frame in list(self._pending.values()):
                            writer.write(frame)
                        await writer.drain()
                break
            except (ConnectionError, OSError, TransportError):
                if time.monotonic() >= deadline:
                    break
                await asyncio.sleep(_RECONNECT_DELAY_S)
            finally:
                if reader_task is not None:
                    reader_task.cancel()
                    try:
                        await reader_task
                    except (asyncio.CancelledError, ConnectionError,
                            OSError, TransportError, codec.CodecError):
                        pass
                if writer is not None:
                    writer.close()
                    try:
                        await writer.wait_closed()
                    except (ConnectionError, OSError,
                            asyncio.CancelledError):
                        pass
        self.stats.unresolved = len(self._pending)
        return self.stats


# ----------------------------------------------------------------------
# Fleet planning
# ----------------------------------------------------------------------


@dataclass
class ClientPlan:
    """A seeded fleet of open-loop clients."""

    n_clients: int
    total_messages: int
    #: Aggregate offered rate, msgs/sec across the whole fleet.  A
    #: non-positive rate means "synchronized burst": every message of
    #: every client is offered immediately (the overload experiment).
    rate_msgs_per_s: float
    input_id: str = "readings"
    seed: int = 7
    #: Client id prefix; ids are ``<group>:<n>``, and the chaos proxy
    #: classifies gateway links by this group.
    group: str = "clients"
    #: Wall seconds of grace to drain replies after the last send.
    drain_s: float = 15.0

    def duration_s(self) -> float:
        """Nominal seconds from first to last scheduled arrival."""
        if self.rate_msgs_per_s <= 0:
            return 0.0
        return self.total_messages / self.rate_msgs_per_s


def build_clients(plan: ClientPlan, addr: Tuple[str, int],
                  payload_factory: Callable[[random.Random, int], Any]
                  ) -> List[GatewayClient]:
    """Instantiate the fleet with seeded schedules and payloads.

    Message counts are spread round-robin; arrival gaps are exponential
    (Poisson arrivals at the per-client share of the aggregate rate),
    drawn from ``random.Random(seed)`` derivatives so the same plan
    always offers the same load.  Payloads come from
    ``payload_factory(client_rng, message_index)``.
    """
    counts = [plan.total_messages // plan.n_clients] * plan.n_clients
    for i in range(plan.total_messages % plan.n_clients):
        counts[i] += 1
    clients: List[GatewayClient] = []
    per_client_rate = (plan.rate_msgs_per_s / max(1, plan.n_clients)
                       if plan.rate_msgs_per_s > 0 else 0.0)
    for i, count in enumerate(counts):
        if count == 0:
            continue
        rng = random.Random(f"{plan.seed}:{plan.group}:{i}")
        if per_client_rate > 0:
            t = 0.0
            send_at = []
            for _ in range(count):
                t += rng.expovariate(per_client_rate)
                send_at.append(t)
        else:
            # Synchronized burst: tiny seeded jitter so frames do not
            # serialize on connect order, but all inside a few ms.
            send_at = sorted(rng.uniform(0.0, 0.005) for _ in range(count))
        payload_rng = random.Random(f"{plan.seed}:{plan.group}:{i}:payload")
        clients.append(GatewayClient(
            f"{plan.group}:{i}", addr, plan.input_id,
            payload_of=lambda idx, r=payload_rng: payload_factory(r, idx),
            send_at=send_at, drain_s=plan.drain_s,
        ))
    return clients


def fleet_summary(stats: List[ClientStats]) -> Dict[str, int]:
    """Aggregate fleet counters (stable keys, diffable)."""
    out = {
        "planned": sum(s.planned for s in stats),
        "sent": sum(s.sent for s in stats),
        "accepted": sum(len(s.accepted) for s in stats),
        "busy_rate": sum(s.busy.get("rate", 0) for s in stats),
        "busy_shed": sum(s.busy.get("shed", 0) for s in stats),
        "unresolved": sum(s.unresolved for s in stats),
        "reconnects": sum(s.reconnects for s in stats),
        "connect_errors": sum(s.connect_errors for s in stats),
        "conflicts": sum(s.conflicts for s in stats),
    }
    return out


def exactly_once_violations(stats: List[ClientStats],
                            shadow: Dict[str, List[Tuple[int, int, Any]]]
                            ) -> int:
    """Count observable exactly-once violations across the run.

    Two independent checks: (1) conflicting ACCEPTs for one req — a
    req stamped under two identities; (2) duplicate sequence numbers
    inside the gateway's own shadow log — an ingress double-append.
    Both must be zero on every run, faulted or not; shed/rate drops are
    *not* violations (the client was told, nothing was stamped).
    """
    violations = sum(s.conflicts for s in stats)
    for entries in shadow.values():
        seqs = [seq for seq, _vt, _payload in entries]
        violations += len(seqs) - len(set(seqs))
    return violations
