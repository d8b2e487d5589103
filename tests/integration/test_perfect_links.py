"""Perfect links change no outcome.

A simulated channel whose link cannot fault skips the reliability
protocol until ``Network.link_fault`` hands its knobs out.  Pinning
every node pair to the protocol before ``start()`` (asking for the
knobs, setting none) must leave each latency, sink record, checkpoint
and metric where the default run put them.
"""

import pytest

from repro.chaos.schedule import generate_schedule
from repro.experiments.common import Fig1Params, build_fig1
from repro.net.topology import simulated_twin, twin_horizon
from repro.runtime.flightrec import checkpoint_manifests
from repro.sim.kernel import ms
from repro.tools.verify_determinism import streams_of

from tests.net.test_chaos_smoke import chaos_spec


def _outcome(deployment):
    return (deployment.metrics.latencies, streams_of(deployment),
            checkpoint_manifests(deployment), deployment.state_digest(),
            deployment.metrics.dump_json(wall_clock=False))


def _compare(build, run):
    default = build()
    run(default)
    pairs = sorted(default.network.channels())
    assert any(ch.perfect for ch in default.network.channels().values())

    pinned = build()
    for src, dst in pairs:
        pinned.network.link_fault(src, dst)
    assert not any(ch.perfect for ch in pinned.network.channels().values())
    run(pinned)
    assert sorted(pinned.network.channels()) == pairs
    assert _outcome(pinned) == _outcome(default)
    frames = [ch.frames_sent for ch in default.network.channels().values()]
    assert frames == [pinned.network.channels()[key].frames_sent
                      for key in default.network.channels()]
    return default


@pytest.mark.parametrize("mode", ["deterministic", "nondeterministic"])
@pytest.mark.parametrize("seed", [3, 7])
def test_fig1_runs_the_same_on_protocol_links(mode, seed):
    def run(deployment):
        deployment.run(until=ms(500))

    default = _compare(
        lambda: build_fig1(Fig1Params(mode=mode, seed=seed)), run)
    # No Fig. 1 link can fault: every frame skipped the protocol.
    assert all(ch.perfect for ch in default.network.channels().values())


def test_a_chaos_twin_with_a_kill_and_a_partition_runs_the_same():
    spec = chaos_spec()
    schedule = generate_schedule(4, spec, "partition_promotion")
    assert {e.kind for e in schedule.events} == {"kill", "partition"}

    def run(deployment):
        deployment.run(until=twin_horizon(spec, schedule))

    _compare(lambda: simulated_twin(spec, schedule), run)
