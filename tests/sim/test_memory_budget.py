"""A memory budget for what a run retains per message, not an RSS reading.

The paper logs one thing, the external inputs, to stable storage, and
the sinks that judge a run keep the outputs: the log should cost the
bytes of its payloads and little more, and so should the sinks.  Every
allocation still held after a run of Fig. 1, payloads included, is
counted by ``tracemalloc``, per delivered message, so the guard repeats
for a seed and an interpreter.  With the log and the sinks holding each
payload as the live object the run retains 770 B per delivered message
on Python 3.11; with each payload held as its ``marshal`` bytes it
retains 357 B.  The budget leaves room for the interpreters' different
object sizes and growth steps of lists, deques and arrays.
"""

import tracemalloc

from repro.experiments.common import Fig1Params, build_fig1
from repro.sim.kernel import seconds

MAX_BYTES_PER_MESSAGE = 400


def test_fig1_bookkeeping_stays_within_its_memory_budget():
    tracemalloc.start()
    try:
        deployment = build_fig1(Fig1Params(mode="deterministic", seed=3))
        deployment.start()
        deployment.sim.run(until=seconds(1))
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    delivered = len(next(iter(deployment.consumers.values())))
    assert delivered > 1000
    sites = snapshot.statistics("lineno")
    per_message = sum(stat.size for stat in sites) / delivered
    if per_message > MAX_BYTES_PER_MESSAGE:
        top = "\n".join(f"  {stat.size / delivered:7.1f} B/message  {stat}"
                        for stat in sites[:10])
        raise AssertionError(
            f"{per_message:.1f} B per delivered message retained by the "
            f"run (budget {MAX_BYTES_PER_MESSAGE}); largest sites:\n{top}")
