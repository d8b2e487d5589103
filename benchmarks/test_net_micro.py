"""Micro-benchmarks of the networked runtime's substrates.

Wall-clock cost of the wire codec and of a localhost channel round
trip — the two per-message overheads the networked runtime adds on top
of the simulated one.  Same shape as ``test_substrate_micro.py``: not
paper figures, just regression tripwires.
"""

import asyncio
import time

from repro.core.message import DataMessage
from repro.net import codec


def _sample_messages(n):
    return [
        DataMessage(
            wire_id=i % 7, seq=i, vt=i * 1_000,
            payload={"device": f"dev{i % 8}",
                     "fields": (i, i + 1, i + 2, i + 3),
                     "birth": i * 10},
        )
        for i in range(n)
    ]


def test_codec_encode_decode_throughput(benchmark):
    messages = _sample_messages(1_000)

    def roundtrip():
        out = []
        for msg in messages:
            out.append(codec.decode_message_bytes(
                codec.encode_message_bytes(msg)
            ))
        return out

    restored = benchmark(roundtrip)
    assert restored == messages


def test_frame_split_throughput(benchmark):
    messages = _sample_messages(1_000)
    wire = b"".join(codec.encode_item(i, "a", m)
                    for i, m in enumerate(messages))

    def split():
        return codec.FrameSplitter().feed(wire)

    frames = benchmark(split)
    assert len(frames) == len(messages)
    assert all(tag == codec.FRAME_ITEM for tag, _ in frames)


def test_localhost_channel_round_trip(benchmark):
    """Acked end-to-end delivery over a real localhost socket."""
    from tests.net.test_channel import FakeHost
    from repro.net.channel import OutboundChannel

    n_items = 200
    messages = _sample_messages(n_items)

    async def run_once():
        host = FakeHost()
        await host.start()
        channel = OutboundChannel("bench:1", "n",
                                  [("127.0.0.1", host.port)])
        channel.start()
        started = time.perf_counter()
        for msg in messages:
            channel.enqueue("src", msg)
        while channel.items_acked < n_items:
            await asyncio.sleep(0)
        elapsed = time.perf_counter() - started
        await channel.close()
        await host.stop()
        return len(host.items), elapsed

    def deliver():
        return asyncio.run(run_once())

    delivered, elapsed = benchmark(deliver)
    assert delivered == n_items
    per_item_us = elapsed / n_items * 1e6
    print(f"\nlocalhost channel: {n_items} items acked in "
          f"{elapsed * 1e3:.1f} ms ({per_item_us:.0f} us/item)")
