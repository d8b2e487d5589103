"""Layer drivers: each layer's public functions, measured on their own.

A traced run ends with these.  They do not depend on the workload; they
bound what work on one layer can win on the end-to-end chain:
``net.clock.wake_*`` and ``gateway.server.accept_rtt_*`` bound latency
work, ``net.codec.*`` and ``sim.kernel.*`` bound CPU work.

CPU-bound drivers report ``ref`` time (see ``calibrate``): one spin
before each repeat, the median over repeats.  Wake-up and round-trip
drivers report raw microseconds, because they wait on the event loop
and the socket rather than compute.
"""

from __future__ import annotations

import asyncio
import random
import statistics
import time
from typing import Callable, Dict, List, Tuple

from benchlib import Tracer, percentile
from calibrate import timed_spin, to_ref

from repro.core.message import DataMessage, SilenceAdvance
from repro.gateway.admission import AdmissionController, TokenBucket
from repro.gateway.client import ClientPlan, build_clients
from repro.gateway.cluster import gateway_payload_factory
from repro.gateway.server import GatewayConfig, GatewayServer
from repro.net import codec
from repro.net.clock import RealtimeClock, RealtimeKernel
from repro.net.topology import ClusterSpec, attach_workload, build_deployment
from repro.sim.kernel import Simulator, ms

REPEATS = 5
Metric = Tuple[float, str]


def _ref_per_op(body: Callable[[], None], ops: int) -> float:
    """Median ref-seconds per op of ``body`` (which performs ``ops`` ops)."""
    samples = []
    for _ in range(REPEATS):
        spin_s = timed_spin()
        started = time.perf_counter()
        body()
        samples.append(to_ref(time.perf_counter() - started, spin_s) / ops)
    return statistics.median(samples)


def sim_kernel() -> Dict[str, Metric]:
    """``Simulator.at`` + fire of a no-op event."""
    n = 40_000

    def body() -> None:
        sim = Simulator()
        noop = lambda: None  # noqa: E731 - the cheapest possible event
        for tick in range(n):
            sim.at(tick, noop)
        sim.run()

    return {"sim.kernel.event_refns": (_ref_per_op(body, n) * 1e9, "ns")}


def net_codec() -> Dict[str, Metric]:
    """Batches of 32 through the frame encoder and back."""
    rng = random.Random(1)
    batch = 32
    data = [codec.item_body(
        seq, "src", "dst", DataMessage(0, seq, 1_000_000 + seq, {
            "device": f"dev{rng.randrange(8)}",
            "fields": tuple(rng.randrange(100) for _ in range(4)),
            "birth": 1_000_000 + seq,
        })) for seq in range(batch)]
    silence = [codec.item_body(seq, "src", "dst",
                               SilenceAdvance(0, 1_000_000 + seq))
               for seq in range(batch)]
    encoder = codec.FrameEncoder()
    data_frame = encoder.encode_batch(data)
    silence_frame = encoder.encode_batch(silence)
    rounds = 200

    def encode(bodies):
        def body() -> None:
            for _ in range(rounds):
                encoder.encode_batch(bodies)
        return body

    def decode() -> None:
        for _ in range(rounds):
            _tag, body = codec.decode_frame_payload(data_frame[4:])
            for item in codec.batch_items(body):
                codec.decode_message(item["msg"])

    ops = rounds * batch
    return {
        "net.codec.encode_data_refus": (
            _ref_per_op(encode(data), ops) * 1e6, "us"),
        "net.codec.decode_data_refus": (_ref_per_op(decode, ops) * 1e6, "us"),
        "net.codec.encode_silence_refus": (
            _ref_per_op(encode(silence), ops) * 1e6, "us"),
        "net.codec.bytes_per_data_item": (len(data_frame) / batch, "B"),
        "net.codec.bytes_per_silence_item": (len(silence_frame) / batch, "B"),
    }


def _replicated_pipeline(seed: int, audit: str = "off"):
    """A pure-sim 2 x 1 pipeline with checkpointing, 1 000 msg/s offered."""
    spec = ClusterSpec(
        app="pipeline", app_args={"window": 1}, engines=["e0", "e1"],
        replicas=1, master_seed=seed, checkpoint_interval_ms=25.0,
        heartbeat_interval_ms=50.0, heartbeat_miss_limit=4, audit=audit,
        workload={"readings": {"n_messages": 100_000,
                               "mean_interarrival_ms": 1.0}},
    )
    deployment = build_deployment(spec)
    attach_workload(deployment, spec)
    return deployment


def runtime_checkpoint() -> Dict[str, Metric]:
    """Full and incremental capture, and the audit's chain rebuild."""
    deployment = _replicated_pipeline(seed=3, audit="raise")
    deployment.run(until=ms(300))
    engine = deployment.engines["e0"]
    metrics = deployment.metrics
    horizon = ms(300)
    timings: Dict[str, List[float]] = {"full": [], "incr": [], "audit": []}
    sizes: Dict[str, List[int]] = {"full": [], "incr": []}
    for round_no in range(30):
        horizon += ms(10)
        deployment.run(until=horizon)  # dirty some state between captures
        if round_no % 5 == 0:
            spin_s = timed_spin()
        for kind, kwargs in (("full", {"force_full": True}),
                             ("incr", {"avoid_full": True})):
            before = metrics.accumulator("checkpoint_bytes")
            started = time.perf_counter()
            engine.capture_checkpoint(**kwargs)
            timings[kind].append(
                to_ref(time.perf_counter() - started, spin_s))
            sizes[kind].append(metrics.accumulator("checkpoint_bytes") - before)
        started = time.perf_counter()
        engine.auditor.audit_once()
        timings["audit"].append(to_ref(time.perf_counter() - started, spin_s))
    return {
        "runtime.engine.capture_full_refus": (
            statistics.median(timings["full"]) * 1e6, "us"),
        "runtime.engine.capture_incr_refus": (
            statistics.median(timings["incr"]) * 1e6, "us"),
        "runtime.checkpoint.bytes_full": (
            statistics.median(sizes["full"]), "B"),
        "runtime.checkpoint.bytes_incr": (
            statistics.median(sizes["incr"]), "B"),
        "runtime.audit.rebuild_refus": (
            statistics.median(timings["audit"]) * 1e6, "us"),
    }


def runtime_recovery() -> Dict[str, Metric]:
    """Simulated failover: how fast the simulator gets through one.

    The 500 ms virtual window holds the kill, a 200 ms detection delay,
    promotion from the shipped chain and the replay that catches up.
    """
    window = ms(500)
    samples = []
    for rep in range(3):
        deployment = _replicated_pipeline(seed=10 + rep)
        deployment.run(until=ms(400))
        deployment.recovery.engine_failed("e0", detection_delay=ms(200))
        spin_s = timed_spin()
        started = time.perf_counter()
        deployment.run(until=ms(400) + window)
        samples.append(window / to_ref(time.perf_counter() - started, spin_s))
        if deployment.recovery.failover_count("e0") != 1:
            raise RuntimeError("simulated failover did not complete")
    return {"runtime.recovery.sim_replay_ticks_per_refs": (
        statistics.median(samples), "1/s")}


def gateway_admission() -> Dict[str, Metric]:
    """Token bucket + controller admit/release, the per-submission gate."""
    n = 50_000

    def body() -> None:
        bucket = TokenBucket(rate=1e9, burst=1e9)
        controller = AdmissionController(1024, 8 << 20, congested=lambda: False)
        for _ in range(n):
            if bucket.allow() and controller.admit(180):
                controller.release(180)

    return {"gateway.admission.decide_refus": (
        _ref_per_op(body, n) * 1e6, "us")}


async def _clock_wakeups(n: int, gap_s: float) -> Dict[str, Metric]:
    sim = Simulator()
    clock = RealtimeClock(1.0, epoch=time.time())
    kernel = RealtimeKernel(sim, clock)
    pump = asyncio.get_running_loop().create_task(kernel.run())
    wake_us: List[float] = []
    late_us: List[float] = []
    timer_delay = ms(2)

    def arrive(sent_at: float) -> None:
        wake_us.append((time.perf_counter() - sent_at) * 1e6)
        due = sim.now + timer_delay
        sim.at(due, lambda: late_us.append((clock.ticks() - due) / 1e3))

    for _ in range(n):
        kernel.inject(lambda sent_at=time.perf_counter(): arrive(sent_at))
        await asyncio.sleep(gap_s)
    kernel.stop()
    await pump
    return {
        "net.clock.wake_p50_us": (percentile(wake_us, 50), "us"),
        "net.clock.wake_p95_us": (percentile(wake_us, 95), "us"),
        "net.clock.timer_late_p50_us": (percentile(late_us, 50), "us"),
    }


def net_clock() -> Dict[str, Metric]:
    """``RealtimeKernel.inject`` -> callback on an idle pump, and timers."""
    return asyncio.run(_clock_wakeups(n=300, gap_s=0.004))


async def _accept_round_trips(rate: float, n: int) -> Dict[str, Metric]:
    spec = ClusterSpec(app="pipeline", app_args={"window": 1},
                       engines=["e0"], replicas=0, speed=1.0, workload={})
    sim = Simulator()
    deployment = build_deployment(spec, sim=sim)
    kernel = RealtimeKernel(sim, RealtimeClock(1.0, epoch=time.time()))
    gateway = GatewayServer(
        "gateway", ingresses=dict(deployment.ingresses), inject=kernel.inject,
        metrics=deployment.metrics,
        config=GatewayConfig(port=0, max_inflight_msgs=1_000_000,
                             rate_msgs_per_s=0.0),
    )
    addr = await gateway.start()
    deployment.start()
    pump = asyncio.get_running_loop().create_task(kernel.run())
    plan = ClientPlan(n_clients=2, total_messages=n, rate_msgs_per_s=rate,
                      seed=5, drain_s=5.0)
    clients = build_clients(plan, addr, gateway_payload_factory())
    t0 = time.monotonic() + 0.1
    stats = await asyncio.gather(*(c.run(t0) for c in clients))
    kernel.stop()
    await pump
    await gateway.close()
    rtt_us = [s * 1e6 for stat in stats for s in stat.rtt_s]
    if len(rtt_us) != n:
        raise RuntimeError(f"gateway accepted {len(rtt_us)} of {n}")
    return {
        "gateway.server.accept_rtt_p50_us": (percentile(rtt_us, 50), "us"),
        "gateway.server.accept_rtt_p95_us": (percentile(rtt_us, 95), "us"),
    }


def gateway_server() -> Dict[str, Metric]:
    """Client-observed SUBMIT -> ACCEPT over a pure-sim ingress."""
    return asyncio.run(_accept_round_trips(rate=400.0, n=800))


DRIVERS = (sim_kernel, net_codec, runtime_checkpoint, runtime_recovery,
           gateway_admission, net_clock, gateway_server)


def run_all(tracer: Tracer) -> Dict[str, Metric]:
    out: Dict[str, Metric] = {}
    with tracer.span("layers"):
        for driver in DRIVERS:
            with tracer.span(f"layers.{driver.__name__}"):
                out.update(driver())
    return out
