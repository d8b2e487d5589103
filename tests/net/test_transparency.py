"""Replication is output-transparent in simulation.

The fault-free reference (:func:`~repro.net.topology.reference_run`
without a schedule) is the paper's unreplicated deployment: no
followers, so no checkpoint is captured, shipped or folded.  It may
stand as the judge of a replicated cluster only because replication
changes no output: the same spec's simulated twin *with* its followers,
checkpoint chains and stable notices, gives byte-identical streams.
This module checks that over a grid of pipeline shapes and over one
gateway shadow replay.
"""

import random

import pytest

from repro.gateway.cluster import gateway_payload_factory
from repro.net.topology import (
    pipeline_spec,
    reference_run,
    simulated_twin,
    twin_horizon,
)
from repro.tools.verify_determinism import streams_of


def replicated_streams(spec, external=None):
    """The streams of the spec's twin with its followers."""
    twin = simulated_twin(spec, external=external)
    twin.run(until=twin_horizon(spec, external=external))
    assert twin.metrics.counter("checkpoints_stable") > 0
    return streams_of(twin)


@pytest.mark.parametrize("engines", [1, 2, 3])
@pytest.mark.parametrize("replicas", [1, 2])
@pytest.mark.parametrize("window", [1, 10])
@pytest.mark.parametrize("seed", [0, 5])
def test_followers_change_no_output(engines, replicas, window, seed):
    spec = pipeline_spec(engines=engines, messages=400, window=window,
                         replicas=replicas, master_seed=seed)
    reference = reference_run(spec)
    assert sum(map(len, reference.values())) > 0
    assert reference == replicated_streams(spec)


def test_followers_change_no_output_of_a_gateway_shadow_replay():
    spec = pipeline_spec(messages=0, window=1, replicas=1, master_seed=3,
                         gateway={"span_ms": 400.0})
    rng = random.Random(3)
    payload = gateway_payload_factory()
    shadow, vt = [], 0
    for seq in range(150):
        vt += 1 + int(rng.expovariate(1 / 2_500_000))  # ~400 msgs/s
        shadow.append((seq, vt, {**payload(rng, seq), "birth": vt}))
    external = {"readings": shadow}
    reference = reference_run(spec, external=external)
    assert len(reference["sink"]) == 150
    assert reference == replicated_streams(spec, external)
