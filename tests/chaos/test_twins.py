"""The simulated twin of every chaos scenario delivers the reference.

Tier-1 judge for the sim lowering of the fault plane: seeds 0-9 of
every scenario in the rotation, on the chaos smoke's spec, without a
live cluster.  A twin that wedges or diverges makes the live chaos
verdict red even when the real cluster recovered, so this catches it
in seconds instead of in the slow smoke.  ``-m slow`` sweeps seeds
0-999.
"""

import pytest

from repro.chaos.runner import run_chaos
from repro.chaos.schedule import SCENARIOS

from tests.net.test_chaos_smoke import chaos_spec


def twin_verdict(seed, scenario):
    report = run_chaos(chaos_spec(), seed, scenario=scenario,
                       run_live=False, log=lambda line: None)
    return report["sim"]


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_every_scenario_twin_is_deterministic(scenario, tmp_path,
                                              monkeypatch):
    # A failing twin writes chaos-failure-seed<N>.replay into the cwd.
    monkeypatch.chdir(tmp_path)
    diverged = [seed for seed in range(10)
                if not twin_verdict(seed, scenario)["deterministic"]]
    assert diverged == []


@pytest.mark.slow
def test_twin_sweep_seeds_0_to_999(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    diverged = [seed for seed in range(1000)
                if not twin_verdict(seed, None)["deterministic"]]
    assert diverged == []
