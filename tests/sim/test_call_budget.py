"""A count budget for the simulated core, not a stopwatch.

Every replay oracle, chaos judge and time-travel seek is a run of
``sim.kernel`` + ``core.scheduler`` + ``runtime.link``.  What that run
costs per dispatched message is guarded here by two counts that repeat
exactly for a seed and an interpreter — Python-visible calls and fired
kernel events — so the guard cannot flake on a noisy host.  Every
call counts (:func:`tests.helpers.profiled_calls`), whatever ran before.
The run measures 213.77 calls per dispatch on Python 3.11 (214.27
before the stable log and the sinks encoded each payload, which costs
one ``marshal.dumps`` per logged input and per delivered output and
was paid for by taking 1.5 calls off ``ExternalIngress.offer``) and
3.52 events per dispatch.  The call budget leaves 1.23 calls of
headroom on 3.11; the event budget leaves about 2 %.
"""

import cProfile
import pstats

from repro.experiments.common import Fig1Params, build_fig1
from repro.sim.kernel import ms

from tests.helpers import profiled_calls

MAX_CALLS_PER_DISPATCH = 215
MAX_EVENTS_PER_DISPATCH = 3.6


def test_fig1_stays_within_its_call_and_event_budget():
    deployment = build_fig1(Fig1Params(mode="deterministic", seed=3))
    deployment.start()
    profile = cProfile.Profile()
    profile.enable()
    try:
        deployment.sim.run(until=ms(500))
    finally:
        profile.disable()
    dispatched = deployment.metrics.counter("messages_processed")
    assert dispatched > 2000
    calls = profiled_calls(profile) / dispatched
    events = deployment.sim.events_executed / dispatched
    if calls > MAX_CALLS_PER_DISPATCH or events > MAX_EVENTS_PER_DISPATCH:
        stats = pstats.Stats(profile)
        top = sorted(stats.stats.items(), key=lambda kv: -kv[1][1])[:10]
        callees = "\n".join(
            f"  {ncalls / dispatched:7.2f}/dispatch  {name}  ({filename}:{line})"
            for (filename, line, name), (_cc, ncalls, *_rest) in top
        )
        raise AssertionError(
            f"{calls:.1f} calls per dispatch (budget "
            f"{MAX_CALLS_PER_DISPATCH}), {events:.2f} kernel events per "
            f"dispatch (budget {MAX_EVENTS_PER_DISPATCH}); most-called:\n"
            f"{callees}"
        )
