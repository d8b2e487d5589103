"""Workload ``wire_stream``: one channel, one real socket, one receiver.

A ``net.channel.OutboundChannel`` sends over localhost TCP to a real
``net.server.ProcessRuntime`` (its connection handler, with its pump
running) that hosts a counting sink node.  Two phases use the same layer
two ways:

* **bulk** -- bursts of ``BURST`` items (4 pipeline-shaped
  ``DataMessage`` : 1 ``SilenceAdvance``), each burst timed until it is
  both acknowledged and delivered to the sink.  Rewards batching.
* **trickle** -- single ``DataMessage``s ``TRICKLE_GAP_S`` apart, each
  timed enqueue -> ack.  Exposes any linger or coalescing delay.  The
  median is reported raw: between messages the CPU idles, a spin that
  follows an idle gap ran 13-54 % slow on the build host while the
  400 us ack path did not, and dividing by it tripled the spread.  The
  tail is the median over groups of 50 of each group's p95, divided by
  the group's spin: a stretch where the whole host stalls then spoils
  its own groups and not the figure (6 % spread against 14 % for the
  plain p95 of all samples).

Why: all the work is in ``net.codec``, ``net.channel``, ``net.server``
and ``net.clock`` and none in the scheduler.  Sender and receiver share
one event loop in one process, so a burst's time is the CPU of both ends.
"""

from __future__ import annotations

import asyncio
import random
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

from benchlib import (BENCH_DIR, LayerProfile, Outcome, Tracer,
                      channel_layers, peak_rss_mb, percentile)
from calibrate import ChunkRate, timed_spin, to_ref

from repro.core.message import DataMessage, SilenceAdvance
from repro.net.channel import OutboundChannel
from repro.net.server import ProcessRuntime
from repro.net.topology import ClusterSpec

BURST = 2_500
#: Bulk bursts and trickle messages sent per second of ``--seconds``.
BURSTS_PER_SECOND = 100.0 / 15.0
TRICKLE_PER_SECOND = 100.0
TRICKLE_GAP_S = 0.005
#: Trickle messages share one calibration spin per group.
TRICKLE_GROUP = 50
SETUP_REPEATS = 3
_WIRE_ID = 0
_PROBE = ("import asyncio, sys, benchlib; benchlib.bootstrap(); "
          "import wl_wire_stream; "
          "asyncio.run(wl_wire_stream._prove_link(int(sys.argv[1])))")
_STEP_TIMEOUT_S = 60.0


class CountingSink:
    """Sink node: counts deliveries and checks they arrive once, in order.

    Every item carries its global index (``seq`` of a ``DataMessage``,
    ``through_vt`` of a ``SilenceAdvance``).
    """

    def __init__(self, node_id: str):
        self.node_id = node_id
        self.alive = True
        self.count = 0
        self.misordered = 0
        self.target = 0
        self.reached = asyncio.Event()

    def receive(self, item: Any) -> None:
        index = item.seq if isinstance(item, DataMessage) else item.through_vt
        if index != self.count:
            self.misordered += 1
        self.count += 1
        if self.count >= self.target:
            self.reached.set()

    def expect(self, target: int) -> None:
        self.target = target
        self.reached.clear()
        if self.count >= target:
            self.reached.set()


def _payload_pool(seed: int) -> List[Dict]:
    """``BURST`` pipeline-shaped readings, as ``reading_factory`` makes."""
    rng = random.Random(seed)
    return [{"device": f"dev{rng.randrange(8)}",
             "fields": tuple(rng.randrange(100) for _ in range(4)),
             "birth": rng.randrange(10**9, 10**10)}
            for _ in range(BURST)]


class _Link:
    """Receiver runtime + sender channel, set up and torn down as one."""

    async def open(self) -> None:
        spec = ClusterSpec(engines=["e0"], replicas=0, speed=1.0)
        self.runtime = ProcessRuntime("wire-recv", spec)
        self.sink = CountingSink("sink")
        self.runtime.transport.register(self.sink)
        self.server = await asyncio.start_server(
            self.runtime._handle_conn, "127.0.0.1", 0)
        port = self.server.sockets[0].getsockname()[1]
        self.runtime.clock.set_epoch(time.time())
        self.pump = asyncio.get_running_loop().create_task(
            self.runtime.rtk.run(), name="pump:wire-recv")
        self.acked = asyncio.Event()
        self.ack_target = 0
        self.acked_at = 0.0
        self.channel = OutboundChannel(
            "bench:1", "sink", [("127.0.0.1", port)],
            batch_max_items=spec.batch_max_items, ack_watcher=self._on_ack)
        self.channel.start()
        # One item end to end proves the link before anything is timed.
        await self.send_and_wait([DataMessage(_WIRE_ID, 0, 0, {})], 1)

    def _on_ack(self, upto: int) -> None:
        if upto >= self.ack_target and not self.acked.is_set():
            self.acked_at = time.perf_counter()
            self.acked.set()

    async def send_and_wait(self, items: List[Any], total: int) -> None:
        """Enqueue ``items``; return once ``total`` are acked and delivered."""
        self.ack_target = total
        self.acked.clear()
        self.sink.expect(total)
        for item in items:
            self.channel.enqueue("bench-src", item)
        await asyncio.wait_for(
            asyncio.gather(self.acked.wait(), self.sink.reached.wait()),
            _STEP_TIMEOUT_S)

    async def close(self) -> None:
        await self.channel.close()
        self.runtime.rtk.stop()
        await self.pump
        await self.runtime.transport.close()
        self.server.close()
        await self.server.wait_closed()


def _burst_items(pool: List[Dict], first: int) -> List[Any]:
    """Items ``first .. first+BURST``: every fifth is a silence advance."""
    items = []
    for offset in range(BURST):
        index = first + offset
        if index % 5 == 4:
            items.append(SilenceAdvance(_WIRE_ID, index))
        else:
            items.append(DataMessage(_WIRE_ID, index, index, pool[offset]))
    return items


async def _prove_link(seed: int) -> None:
    _payload_pool(seed)
    link = _Link()
    await link.open()
    await link.close()


def _setup_s(seed: int, tracer: Tracer) -> float:
    """Median wall time from nothing to a proven link and back.

    Measured on a fresh interpreter (imports, inputs, receiver, connect,
    one item end to end, teardown): in-process the same steps take under
    10 ms, too little to repeat within a quarter.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        with tracer.span("wire_stream.setup"):
            subprocess.run([sys.executable, "-c", _PROBE, str(seed)],
                           cwd=BENCH_DIR, check=True)
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


async def _drive(seed: int, n_bursts: int, n_trickle: int, tracer: Tracer,
                 profile: LayerProfile) -> Dict:
    pool = _payload_pool(seed)
    link = _Link()
    await link.open()
    sent = 1  # the link-proving item

    bulk = ChunkRate()
    with tracer.span("wire_stream.bulk"):
        for _ in range(n_bursts):
            items = _burst_items(pool, sent)
            spin_s = timed_spin()
            with tracer.span("net.channel.burst"), profile.on():
                started = time.perf_counter()
                await link.send_and_wait(items, sent + BURST)
                bulk.add(BURST, time.perf_counter() - started, spin_s)
            sent += BURST

    ack_ref_us: List[float] = []
    ack_raw_us: List[float] = []
    with tracer.span("wire_stream.trickle"), profile.on():
        for i in range(n_trickle):
            if i % TRICKLE_GROUP == 0:
                spin_s = timed_spin()
                slot = time.perf_counter()
            msg = DataMessage(_WIRE_ID, sent, sent, pool[i % BURST])
            started = time.perf_counter()
            await link.send_and_wait([msg], sent + 1)
            ack_s = link.acked_at - started
            ack_raw_us.append(ack_s * 1e6)
            ack_ref_us.append(to_ref(ack_s, spin_s) * 1e6)
            sent += 1
            slot += TRICKLE_GAP_S
            await asyncio.sleep(max(0.0, slot - time.perf_counter()))

    counters = link.channel.counters()
    sink = link.sink
    await link.close()
    return {"bulk": bulk, "ack_ref_us": ack_ref_us,
            "ack_raw_us": ack_raw_us, "counters": counters, "sent": sent,
            "delivered": sink.count, "misordered": sink.misordered}


def run(seed: int, run_seconds: float, tracer: Tracer,
        profile: LayerProfile) -> Outcome:
    n_bursts = max(2, round(run_seconds * BURSTS_PER_SECOND))
    n_trickle = max(TRICKLE_GROUP, round(run_seconds * TRICKLE_PER_SECOND))
    setup_s = _setup_s(seed, tracer)
    with tracer.span("wire_stream"):
        got = asyncio.run(_drive(seed, n_bursts, n_trickle, tracer, profile))

    out = Outcome("wire_stream", attempted=got["sent"], failed=0)
    counters = got["counters"]
    if got["misordered"]:
        out.failed = got["sent"]
        out.failures.append(f"{got['misordered']} items out of order")
    elif got["delivered"] != got["sent"] or counters["items_acked"] != got["sent"]:
        out.failed = got["sent"] - min(got["delivered"],
                                       counters["items_acked"])
        out.failures.append(
            f"sent {got['sent']}, delivered {got['delivered']}, "
            f"acked {counters['items_acked']}")

    bulk: ChunkRate = got["bulk"]
    ref_us = got["ack_ref_us"]
    out.metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_per_refs": (bulk.per_ref_s(), "1/s"),
        "latency_p50_us": (percentile(got["ack_raw_us"], 50), "us"),
        "latency_tail_us": (statistics.median(
            percentile(ref_us[first:first + TRICKLE_GROUP], 95)
            for first in range(0, len(ref_us), TRICKLE_GROUP)), "us"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    out.layers = {
        "latency_p99_us": (percentile(got["ack_ref_us"], 99), "us"),
        **channel_layers([counters]),
    }
    out.raw = {
        "bulk_items": float(n_bursts * BURST),
        "trickle_items": float(n_trickle),
        "bulk_items_per_s_raw": bulk.raw_per_s(),
        "trickle_ack_p50_refus": percentile(got["ack_ref_us"], 50),
        "trickle_ack_p95_us_raw": percentile(got["ack_raw_us"], 95),
        "median_spin_ms": bulk.median_spin_ms(),
    }
    out.profiled_ops = float(got["sent"])
    return out

