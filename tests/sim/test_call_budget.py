"""A count budget for the simulated core, not a stopwatch.

Every replay oracle, chaos judge and time-travel seek is a run of
``sim.kernel`` + ``core.scheduler`` + ``runtime.link``.  What that run
costs per dispatched message is guarded here by two counts that repeat
exactly for a seed and an interpreter — Python-visible calls and fired
kernel events — so the guard cannot flake on a noisy host.  The run
measures 210.5 calls and 3.52 events per dispatch; the budgets leave
about 1 % and 2 % of headroom.
"""

import cProfile
import pstats

from repro.experiments.common import Fig1Params, build_fig1
from repro.sim.kernel import ms

MAX_CALLS_PER_DISPATCH = 213
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
    stats = pstats.Stats(profile)
    dispatched = deployment.metrics.counter("messages_processed")
    assert dispatched > 2000
    calls = stats.total_calls / dispatched
    events = deployment.sim.events_executed / dispatched
    if calls > MAX_CALLS_PER_DISPATCH or events > MAX_EVENTS_PER_DISPATCH:
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
