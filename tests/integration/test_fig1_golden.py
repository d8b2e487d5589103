"""Golden determinism digests for the Figure 1 application.

The digests below were computed on the commit *before* the event-and-
call diet of the simulated core (ISSUE 14) and pasted in: every
optimisation of ``sim.kernel`` / ``runtime.link`` / ``core.scheduler``
must leave each latency and each sink record — sequence number, virtual
time, payload and real delivery tick — exactly where it was.
"""

import hashlib

import pytest

from repro.experiments.common import Fig1Params, build_fig1
from repro.runtime import checkpoint as cpser
from repro.sim.kernel import ms

DURATION = ms(500)

#: (mode, seed) -> (sha256 of the latency list, sha256 of the sink's
#: effective_outputs), 0.5 virtual seconds.
GOLDEN = {
    ("deterministic", 3): (
        "04ac32ad650ab63987f9fc0594f393f595432eec50c5c7ce2eb13ce5a208bd11",
        "5a132b45d45338550a74c94efb505cae1bad598919ab8cc59b2d7d5ef0314323",
    ),
    ("deterministic", 7): (
        "1a2d0515b88b551dad4f9c5a74b7e5c722685775d228d3ac09f4e2393740f394",
        "9a305619f9059751a1b5a1b57fedaadba177f0bc03f168a72e1aec64da92b6d2",
    ),
    ("nondeterministic", 3): (
        "fe835507cdbd720e5f665de877005752bb00408cfa31caf33959dc869c27a495",
        "06a79153c1888ce546672c2709f00d9bf39554df9a7bcc0467716186699396bb",
    ),
    ("nondeterministic", 7): (
        "8a234e47a92a8bb37e8d2e93b2435945a361d461737b7ac67fb6a41649d74f44",
        "ca30ebf06411e804b959a46dc8328c14df80c8df254feadf606fcc51cd16d9b4",
    ),
}


def _sha(obj) -> str:
    return hashlib.sha256(cpser.dumps(obj)).hexdigest()


def _digests(deployment):
    sink = next(iter(deployment.consumers.values()))
    return _sha(deployment.metrics.latencies), _sha(sink.effective_outputs)


def _run(mode: str, seed: int, chunk=None):
    deployment = build_fig1(Fig1Params(mode=mode, seed=seed))
    deployment.start()
    if chunk is None:
        deployment.sim.run(until=DURATION)
    else:
        for until in range(chunk, DURATION + 1, chunk):
            deployment.sim.run(until=until)
    assert deployment.sim.now == DURATION
    return deployment


@pytest.mark.parametrize("mode,seed", sorted(GOLDEN))
def test_fig1_matches_golden_digests(mode, seed):
    deployment = _run(mode, seed)
    assert len(deployment.metrics.latencies) > 400
    assert _digests(deployment) == GOLDEN[(mode, seed)]


@pytest.mark.parametrize("mode", ["deterministic", "nondeterministic"])
def test_chunked_run_equals_one_shot(mode):
    """Stepping in 100 ms chunks changes nothing (what bench/ checks)."""
    chunked = _run(mode, 3, chunk=ms(100))
    assert _digests(chunked) == GOLDEN[(mode, 3)]
    one_shot = _run(mode, 3)
    assert (chunked.metrics.latencies == one_shot.metrics.latencies)
    assert (next(iter(chunked.consumers.values())).effective_outputs
            == next(iter(one_shot.consumers.values())).effective_outputs)
