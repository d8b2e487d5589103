"""The gateway server: thousands of client sockets, one front door.

A :class:`GatewayServer` terminates external client connections and
bridges them onto the cluster's :class:`~repro.runtime.external
.ExternalIngress` objects.  The protocol (frame tags 8–12 of
:mod:`repro.net.codec`) is deliberately minimal:

* ``GW_HELLO`` / ``GW_WELCOME`` — session open + input-id advertisement;
* ``GW_SUBMIT {req, input, payload}`` — one submission, where ``req``
  is per-client monotonic and is the dedup key;
* ``GW_ACCEPT {req, seq, vt}`` — the payload was stamped with virtual
  time ``vt``, logged, and is now guaranteed exactly-once delivery;
* ``GW_BUSY {req, reason, retry_ms}`` — shed (``reason="shed"``) or
  rate-limited (``reason="rate"``); the submission consumed nothing and
  may be retried.

Ordering of defenses per submission: dedup (a retransmitted ``req`` is
re-answered from the session's reply table, never re-stamped), then the
per-client token bucket, then the global admission controller.  Only an
admitted submission reaches the simulator pump, where the ingress
assigns ``vt = max(now, last_vt + 1)``, stamps ``birth = vt`` into the
payload, logs it, and ships it over the exactly-once channel — so the
consumer-side latency metric measures admission-stamp to delivery.

Every admitted ``(seq, vt, stamped payload)`` is also appended to an
in-memory *shadow log* per input.  The shadow log is the determinism
oracle for gateway runs: wall-clock arrivals cannot be predicted by a
seeded simulation, but re-offering the recorded payloads at their
recorded virtual times in a fresh simulation reproduces the ingress log
(and therefore the consumer stream) byte for byte — see
``repro.gateway.cluster.replay_reference``.

Client sessions are keyed by the HELLO ``client`` id, not by the
connection: a client that reconnects (gateway-side reset, chaos fault)
resumes its dedup table, so retransmitting every unanswered ``req`` is
always safe.  Engine failover needs nothing from the gateway at all —
connections terminate here, and the ingress + channel layers already
hide the failover from anything upstream of them.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.errors import TransportError
from repro.net import codec
from repro.net.topology import ClusterSpec
from repro.runtime.external import ExternalIngress
from repro.runtime.metrics import MetricSet
from repro.gateway.admission import AdmissionController, TokenBucket

#: Seconds a new connection gets to present its GW_HELLO.
_HELLO_TIMEOUT_S = 10.0


@dataclass
class GatewayConfig:
    """Resolved gateway knobs (see ``ClusterSpec.gateway``)."""

    #: The address to bind (port 0: OS-assigned).
    host: str = "127.0.0.1"
    port: int = 0
    #: Global admission caps (non-positive disables a bound).
    max_inflight_msgs: int = 1024
    max_inflight_bytes: int = 8 * 1024 * 1024
    #: Per-client token bucket (rate <= 0 disables rate limiting).
    rate_msgs_per_s: float = 2000.0
    rate_burst: float = 200.0
    #: Backoff hint carried by BUSY rejects.
    retry_ms: float = 50.0

    @classmethod
    def from_spec(cls, spec: ClusterSpec) -> "GatewayConfig":
        """The spec's ``gateway`` dict over the defaults above, each
        value present cast to its default's type."""
        gw = spec.gateway
        return cls(**{f.name: type(f.default)(gw[f.name])
                      for f in fields(cls) if f.name in gw})


@dataclass
class _ClientSession:
    """Per-client (not per-connection) gateway state."""

    client_id: str
    bucket: TokenBucket
    #: req -> (input_id, seq, vt): the reply table retransmits are
    #: answered from.  Bounded by the client's lifetime request count.
    replies: Dict[int, Tuple[str, int, int]] = field(default_factory=dict)
    #: reqs admitted but not yet stamped (dedup for in-flight races).
    inflight: Set[int] = field(default_factory=set)


class GatewayServer:
    """Admission-controlled bridge from client sockets to ingresses."""

    def __init__(self, name: str, ingresses: Dict[str, ExternalIngress],
                 inject: Callable[[Callable[[], None]], None],
                 metrics: MetricSet, config: GatewayConfig,
                 congested: Optional[Callable[[], bool]] = None):
        self.name = name
        self.ingresses = ingresses
        self.inject = inject
        self.metrics = metrics
        self.config = config
        self.admission = AdmissionController(
            config.max_inflight_msgs, config.max_inflight_bytes,
            congested=congested,
        )
        self._sessions: Dict[str, _ClientSession] = {}
        #: input_id -> [(seq, vt, stamped payload)]: the admitted-work
        #: record the replay reference re-simulates from.
        self.shadow: Dict[str, List[Tuple[int, int, Any]]] = {
            input_id: [] for input_id in ingresses
        }
        self._server: Optional[asyncio.AbstractServer] = None
        self._conns: Set[asyncio.streams.StreamWriter] = set()
        self._accept_tasks: Set[asyncio.Task] = set()
        self.torn_frames = 0

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind the client listener; returns the bound (host, port),
        the address clients dial."""
        self._server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port)
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def close(self) -> None:
        for task in list(self._accept_tasks):
            if not task.done():
                task.cancel()
        self._accept_tasks.clear()
        for writer in list(self._conns):
            try:
                writer.close()
            except Exception:  # noqa: BLE001 - teardown best effort
                pass
        self._conns.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- metrics ---------------------------------------------------------
    def accepted(self) -> int:
        return self.metrics.counter("gateway.accepted")

    def report(self) -> Dict[str, int]:
        """The gateway's headline counters (stable keys, diffable)."""
        return {
            "accepted": self.metrics.counter("gateway.accepted"),
            "shed": self.metrics.counter("gateway.shed"),
            "rate_limited": self.metrics.counter("gateway.rate_limited"),
            "duplicates": self.metrics.counter("gateway.duplicates"),
            "rejected": self.metrics.counter("gateway.rejected"),
            "connections": self.metrics.counter("gateway.connections"),
            "torn_frames": self.torn_frames,
        }

    # -- inbound protocol ------------------------------------------------
    async def _handle_conn(self, reader, writer) -> None:
        self._conns.add(writer)
        try:
            frame = await asyncio.wait_for(codec.read_frame(reader),
                                           timeout=_HELLO_TIMEOUT_S)
            if frame is None or frame[0] != codec.FRAME_GW_HELLO:
                self.metrics.count("gateway.rejected")
                return
            proto = frame[1].get("proto")
            if proto != codec.WIRE_VERSION:
                self.metrics.count("gateway.rejected")
                writer.write(codec.encode_error(
                    f"unsupported wire protocol {proto!r}; "
                    f"{self.name} speaks {codec.WIRE_VERSION}"
                ))
                await writer.drain()
                return
            client_id = str(frame[1].get("client", ""))
            if not client_id:
                self.metrics.count("gateway.rejected")
                writer.write(codec.encode_error("GW_HELLO without client"))
                await writer.drain()
                return
            session = self._session(client_id)
            self.metrics.count("gateway.connections")
            self.metrics.gauge("gateway.clients", len(self._conns))
            writer.write(codec.encode_gw_welcome(self.name, self.ingresses))
            await writer.drain()
            await self._submit_loop(reader, writer, session)
        except codec.CodecError:
            self.metrics.count("gateway.rejected")
        except TransportError:
            self.torn_frames += 1
        except (ConnectionError, OSError, asyncio.TimeoutError):
            pass
        except asyncio.CancelledError:
            pass
        finally:
            self._conns.discard(writer)
            self.metrics.gauge("gateway.clients", len(self._conns))
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    def _session(self, client_id: str) -> _ClientSession:
        session = self._sessions.get(client_id)
        if session is None:
            session = _ClientSession(
                client_id,
                TokenBucket(self.config.rate_msgs_per_s,
                            self.config.rate_burst),
            )
            self._sessions[client_id] = session
        return session

    async def _submit_loop(self, reader, writer,
                           session: _ClientSession) -> None:
        """Read submissions; gate inline, stamp through the pump.

        The gate (dedup, rate, admission) runs synchronously per frame
        so an overloading client is answered BUSY immediately; only
        admitted submissions spawn a stamp task, so clients are free to
        pipeline without waiting for ACCEPTs (open-loop) while the
        reply order is allowed to interleave — ``req`` identifies each.
        """
        lock = asyncio.Lock()
        while True:
            frame = await codec.read_frame_sized(reader)
            if frame is None:
                return
            tag, body, nbytes = frame
            if tag != codec.FRAME_GW_SUBMIT:
                self.metrics.count("gateway.rejected")
                writer.write(codec.encode_error(
                    f"unexpected frame tag {tag} (want GW_SUBMIT)"
                ))
                await writer.drain()
                return
            reply = self._gate(session, body, nbytes)
            if reply is not None:
                async with lock:
                    writer.write(reply)
                    await writer.drain()
                continue
            task = asyncio.get_running_loop().create_task(
                self._stamp_and_reply(session, body, nbytes, writer, lock)
            )
            self._accept_tasks.add(task)
            task.add_done_callback(self._accept_tasks.discard)

    def _gate(self, session: _ClientSession, body: Dict,
              nbytes: int) -> Optional[bytes]:
        """Apply dedup/rate/admission; bytes to reply, or None=admitted."""
        try:
            req = int(body["req"])
            input_id = str(body["input"])
            payload = body["payload"]
        except (KeyError, TypeError, ValueError):
            self.metrics.count("gateway.rejected")
            return codec.encode_error(f"malformed GW_SUBMIT: {sorted(body)}")
        if not isinstance(payload, dict):
            self.metrics.count("gateway.rejected")
            return codec.encode_error("GW_SUBMIT payload must be a dict")
        done = session.replies.get(req)
        if done is not None:
            # Retransmit of an answered req: re-answer, never re-stamp.
            self.metrics.count("gateway.duplicates")
            _input, seq, vt = done
            return codec.encode_gw_accept(req, seq, vt)
        if req in session.inflight:
            # Retransmit racing its own original through the pump: the
            # original's ACCEPT is on its way; answering twice is
            # harmless but stamping twice would not be, so drop.
            self.metrics.count("gateway.duplicates")
            return b""
        if input_id not in self.ingresses:
            self.metrics.count("gateway.rejected")
            return codec.encode_error(f"unknown input {input_id!r}")
        if not session.bucket.allow():
            self.metrics.count("gateway.rate_limited")
            return codec.encode_gw_busy(req, "rate", self.config.retry_ms)
        if not self.admission.admit(nbytes):
            self.metrics.count("gateway.shed")
            return codec.encode_gw_busy(req, "shed", self.config.retry_ms)
        session.inflight.add(req)
        self.metrics.count("gateway.accepted")
        return None

    async def _stamp_and_reply(self, session: _ClientSession, body: Dict,
                               nbytes: int, writer, lock) -> None:
        req = int(body["req"])
        input_id = str(body["input"])
        payload = body["payload"]
        future = asyncio.get_running_loop().create_future()

        def _offer() -> None:
            # Runs inside the simulator pump: sim.now is the current
            # real tick, so the stamp is the admission time.  Failures
            # are routed onto the future instead of up through the pump
            # (an exception here must not take the coordinator down).
            try:
                ingress = self.ingresses[input_id]
                try:
                    seq = ingress.offer(payload, stamp=_stamp_birth)
                    vt = ingress.log.last_vt
                    self.shadow[input_id].append(
                        (seq, vt, _stamp_birth(vt, payload))
                    )
                finally:
                    self.admission.release(nbytes)
            except BaseException as exc:  # noqa: BLE001 - crosses the pump
                if not future.done():
                    future.set_exception(exc)
                return
            if not future.done():
                future.set_result((seq, vt))

        self.inject(_offer)
        try:
            seq, vt = await future
        finally:
            # Record the reply (if any) before leaving: a connection
            # death between stamp and write must still land the reply
            # in the dedup table so the reconnect retransmit is
            # re-answered instead of re-stamped.
            if (future.done() and not future.cancelled()
                    and future.exception() is None):
                done_seq, done_vt = future.result()
                session.replies[req] = (input_id, done_seq, done_vt)
            session.inflight.discard(req)
        try:
            async with lock:
                writer.write(codec.encode_gw_accept(req, seq, vt))
                await writer.drain()
        except (ConnectionError, OSError):
            pass  # client is gone; the reply table covers its return


def _stamp_birth(vt: int, payload: Dict) -> Dict:
    """The gateway's ingress stamp: ``birth = vt`` (admission time)."""
    out = dict(payload)
    out["birth"] = vt
    return out
