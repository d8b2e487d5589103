"""``python -m repro.tools.bench_net``: the wire + scheduler perf
trajectory, written to ``BENCH_net.json`` and ``BENCH_sched.json``.

Two measurements; the committed snapshots are the repository's own
perf history:

1. **Streaming wire path** — a message stream crosses a real localhost
   socket from the shipped :class:`~repro.net.channel.OutboundChannel`
   (``FRAME_BATCH`` packing of item records) to a
   protocol-faithful receiver that answers one coalesced ACK per frame.
   Reported: msgs/sec, bytes per frame write (≈ bytes per syscall), ack
   frames per delivered item, and p50/p99 enqueue-to-ack latency.  The
   pre-batching sender this was first measured against (3.78x slower)
   is in git history and in the committed ``BENCH_net.json``.
2. **Scheduler dispatch** — the stock pipeline deployment runs purely
   in simulation and we report dispatched messages per wall second,
   which is dominated by the dispatch/silence hot loop
   (:meth:`~repro.core.scheduler.ComponentRuntime.maybe_dispatch`).

``--quick`` shrinks both runs for CI smoke; the committed snapshots
should come from a full run.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import statistics
import time
from pathlib import Path
from typing import Dict, List

from repro.core.message import SilenceAdvance
from repro.net import codec
from repro.net.channel import OutboundChannel

#: Messages enqueued between cooperative yields: the pump injects sim
#: events in bursts, and the socket loop coalesces whatever accumulated.
_ENQUEUE_CHUNK = 256


async def _batched_stream(port: int, n_messages: int) -> Dict:
    """Drive a real :class:`OutboundChannel` (batch frames) against
    ``port``."""
    enqueued_at: List[float] = []
    latencies_us: List[float] = []
    acked_through = 0

    def on_ack(upto: int) -> None:
        nonlocal acked_through
        now = time.perf_counter()
        for seq in range(acked_through, upto):
            latencies_us.append((now - enqueued_at[seq]) * 1e6)
        acked_through = max(acked_through, upto)

    channel = OutboundChannel("bench:1", "sink", [("127.0.0.1", port)],
                              ack_watcher=on_ack)
    channel.start()
    started = time.perf_counter()
    for seq in range(n_messages):
        enqueued_at.append(time.perf_counter())
        channel.enqueue("bench-src", SilenceAdvance(0, seq))
        if seq % _ENQUEUE_CHUNK == _ENQUEUE_CHUNK - 1:
            await asyncio.sleep(0)
    while channel.items_acked < n_messages:
        await asyncio.sleep(0.001)
    wall_s = time.perf_counter() - started
    counters = channel.counters()
    await channel.close()
    return _mode_result(n_messages, wall_s, counters, latencies_us)


class _Receiver:
    """Protocol-faithful receiving end: like the server, it answers one
    cumulative ACK per received frame."""

    def __init__(self):
        self.expected = 0
        self.server = None
        self.port = None

    async def start(self) -> None:
        self.server = await asyncio.start_server(self._conn, "127.0.0.1", 0)
        self.port = self.server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        self.server.close()
        await self.server.wait_closed()

    async def _conn(self, reader, writer) -> None:
        try:
            frame = await codec.read_frame(reader)
            if frame is None or frame[0] != codec.FRAME_HELLO:
                return
            writer.write(codec.encode_welcome("bench#1"))
            await writer.drain()
            encoder = codec.FrameEncoder()
            while True:
                frame = await codec.read_frame(reader)
                if frame is None:
                    return
                tag, body = frame
                if tag != codec.FRAME_ITEM and tag != codec.FRAME_BATCH:
                    continue
                for item in codec.batch_items(body):
                    seq = item["seq"]
                    if seq >= self.expected:
                        self.expected = seq + 1
                writer.write(encoder.encode_ack(self.expected))
                await writer.drain()
        except (ConnectionError, OSError, codec.TransportError):
            pass
        finally:
            writer.close()


def _latency_summary(samples_us: List[float]) -> Dict:
    ordered = sorted(samples_us)
    return {
        "samples": len(ordered),
        "mean_us": round(statistics.fmean(ordered), 2),
        "p50_us": round(ordered[len(ordered) // 2], 2),
        "p99_us": round(ordered[min(len(ordered) - 1,
                                    int(len(ordered) * 0.99))], 2),
    }


def _mode_result(n_messages: int, wall_s: float, counters: Dict,
                 latencies_us: List[float]) -> Dict:
    return {
        "messages": n_messages,
        "wall_s": round(wall_s, 4),
        "msgs_per_sec": round(n_messages / wall_s, 1),
        "frames_sent": counters["frames_sent"],
        "batches_sent": counters["batches_sent"],
        "bytes_sent": counters["bytes_sent"],
        "bytes_per_frame": round(
            counters["bytes_sent"] / max(1, counters["frames_sent"]), 1),
        "acks_received": counters["acks_received"],
        "ack_frames_per_item": round(
            counters["acks_received"] / max(1, n_messages), 4),
        "enqueue_to_ack": _latency_summary(latencies_us),
    }


async def _stream_to_receiver(n_messages: int) -> Dict:
    receiver = _Receiver()
    await receiver.start()
    try:
        return await _batched_stream(receiver.port, n_messages)
    finally:
        await receiver.stop()


def bench_wire(n_messages: int) -> Dict:
    """The shipped batched wire path over a localhost socket."""
    return {"batched": asyncio.run(_stream_to_receiver(n_messages))}


def bench_scheduler(span_ms: float) -> Dict:
    """Dispatched messages per wall second on the stock pipeline app."""
    from repro.apps.pipeline import build_pipeline_app, reading_factory
    from repro.runtime.app import Deployment
    from repro.runtime.placement import Placement
    from repro.sim.kernel import ms

    app = build_pipeline_app(window=5)
    dep = Deployment(
        app,
        Placement({"parser": "E1", "enricher": "E1", "aggregator": "E2"}),
        master_seed=7,
    )
    dep.add_poisson_producer("readings", reading_factory(),
                             mean_interarrival=ms(1))
    started = time.perf_counter()
    dep.run(until=ms(span_ms))
    wall_s = time.perf_counter() - started
    processed = dep.metrics.counter("messages_processed")
    return {
        "span_sim_ms": span_ms,
        "wall_s": round(wall_s, 4),
        "messages_processed": processed,
        "events_per_sec": round(processed / wall_s, 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.bench_net",
        description="Measure wire-path and scheduler throughput; write "
                    "BENCH_net.json and BENCH_sched.json.",
    )
    parser.add_argument("--quick", action="store_true",
                        help="small run for CI smoke (do not commit)")
    parser.add_argument("--out-dir", default=".",
                        help="directory the BENCH files are written to")
    args = parser.parse_args(argv)

    n_messages = 2_000 if args.quick else 20_000
    span_ms = 200.0 if args.quick else 2_000.0

    net = {"bench": "net", "quick": args.quick}
    net.update(bench_wire(n_messages))
    sched = {"bench": "sched", "quick": args.quick}
    sched.update(bench_scheduler(span_ms))

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, payload in (("BENCH_net.json", net),
                          ("BENCH_sched.json", sched)):
        path = out_dir / name
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(json.dumps(payload, indent=2, sort_keys=True))
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
