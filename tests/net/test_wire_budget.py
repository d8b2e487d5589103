"""A count budget for one item on the wire, not a stopwatch.

Every message a live cluster moves goes ``item_body`` -> ``encode_batch``
on the sender and ``decode_frame_payload`` -> ``batch_items`` ->
``decode_message`` on the receiver.  What that costs is guarded here by
the number of Python-visible calls per item, which repeats exactly for
an interpreter, so the guard cannot flake on a noisy host.  The run
measures 48 calls per item; the budget leaves about 10 % of headroom.
(Wire version 1 measured 179 on the same items.)
"""

import cProfile
import pstats
import random

from repro.core.message import DataMessage
from repro.net import codec

MAX_CALLS_PER_ITEM = 53
BATCH = 32


def _messages():
    """Pipeline-shaped readings, as ``bench/layers.py`` drives them."""
    rng = random.Random(1)
    return [DataMessage(0, seq, 1_000_000 + seq, {
        "device": f"dev{rng.randrange(8)}",
        "fields": tuple(rng.randrange(100) for _ in range(4)),
        "birth": 1_000_000 + seq,
    }) for seq in range(BATCH)]


def test_one_item_stays_within_its_call_budget():
    messages = _messages()
    encoder = codec.FrameEncoder()
    profile = cProfile.Profile()
    profile.enable()
    try:
        items = [codec.item_body(seq, "src", "dst", msg)
                 for seq, msg in enumerate(messages)]
        frame = encoder.encode_batch(items)
        _tag, body = codec.decode_frame_payload(frame[4:])
        restored = [codec.decode_message(item["msg"])
                    for item in codec.batch_items(body)]
    finally:
        profile.disable()
    assert restored == messages
    stats = pstats.Stats(profile)
    calls = stats.total_calls / BATCH
    if calls > MAX_CALLS_PER_ITEM:
        top = sorted(stats.stats.items(), key=lambda kv: -kv[1][1])[:10]
        callees = "\n".join(
            f"  {ncalls / BATCH:7.2f}/item  {name}  ({filename}:{line})"
            for (filename, line, name), (_cc, ncalls, *_rest) in top
        )
        raise AssertionError(
            f"{calls:.1f} calls per item (budget {MAX_CALLS_PER_ITEM}); "
            f"most-called:\n{callees}"
        )
