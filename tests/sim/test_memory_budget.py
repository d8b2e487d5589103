"""A memory budget for the per-message bookkeeping, not an RSS reading.

The paper logs one thing, the external inputs, and the sinks that judge
a run keep the outputs: the log should cost its payloads and little
more, and so should the sinks.  What ``runtime/external.py`` (ingress
and sink), ``runtime/message_log.py`` (the stable log) and
``runtime/metrics.py`` (latency samples) still hold after a run of
Fig. 1 is counted by ``tracemalloc``, per delivered message, so the
guard repeats for a seed and an interpreter.  Records kept as tuples of
boxed ints read 240–249 B per message on Python 3.10–3.13; the columns
read 75–76 B.  The budget leaves room for the interpreters' different
growth steps of lists, deques and arrays.
"""

import tracemalloc

from repro.experiments.common import Fig1Params, build_fig1
from repro.sim.kernel import seconds

MAX_BYTES_PER_MESSAGE = 90
FILES = ("runtime/external.py", "runtime/message_log.py",
         "runtime/metrics.py")


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
    sites = [stat for stat in snapshot.statistics("lineno")
             if stat.traceback[0].filename.replace("\\", "/").endswith(FILES)]
    per_message = sum(stat.size for stat in sites) / delivered
    if per_message > MAX_BYTES_PER_MESSAGE:
        top = "\n".join(f"  {stat.size / delivered:7.1f} B/message  {stat}"
                        for stat in sites[:10])
        raise AssertionError(
            f"{per_message:.1f} B per delivered message retained by the "
            f"bookkeeping (budget {MAX_BYTES_PER_MESSAGE}); largest sites:\n"
            f"{top}")
