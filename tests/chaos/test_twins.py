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


def test_corrupt_state_lands_where_an_audit_sees_it():
    """Every corruption the generator places is healed in the twin: it
    lands after the victim's first (full) checkpoint and before an audit
    boundary the run reaches.  A spec too short for that is refused."""
    from repro.chaos.schedule import generate_schedule
    from repro.errors import ScenarioTooShortError
    from repro.net.topology import pipeline_spec, simulated_twin, twin_horizon

    short = pipeline_spec(messages=40, master_seed=7, audit="heal")
    with pytest.raises(ScenarioTooShortError) as refused:
        generate_schedule(7, short, "corrupt_state")
    assert refused.value.min_span_ms == 77
    assert "at least 77 simulated ms" in str(refused.value)

    for messages in (77, 160):
        spec = pipeline_spec(messages=messages, master_seed=7, audit="heal")
        unhealed = []
        for seed in range(10):
            schedule = generate_schedule(seed, spec, "corrupt_state")
            twin = simulated_twin(spec, schedule)
            twin.run(until=twin_horizon(spec, schedule))
            victim = schedule.events[0].target.split("-", 1)[1]
            if twin.engines[victim].auditor.heals < 1:
                unhealed.append(seed)
        assert unhealed == [], messages


def test_a_recorded_bundle_repeats_byte_for_byte(tmp_path):
    """Seed 7 (corrupt_state) audits, which times its rebuild on the
    wall clock; the bundle keeps such figures out, so two recordings of
    one seed are the same files."""
    import json
    from pathlib import Path

    from repro.chaos.__main__ import main

    bundles = []
    for run in ("a", "b"):
        assert main(["--seed", "7", "--messages", "160", "--sim-only",
                     "--record", str(tmp_path / run)]) == 0
        bundles.append(tmp_path / f"{run}.replay")
    first, second = ({p.relative_to(b): p.read_bytes()
                      for p in sorted(b.rglob("*")) if p.is_file()}
                     for b in bundles)
    assert first == second
    metrics = json.loads(first[Path("metrics.json")])
    assert metrics["counters"]["audit.checks"] > 0
