"""The seeded schedule format: determinism, lowering, survivability."""

import pytest

from repro.chaos.schedule import (
    ChaosEvent,
    ChaosSchedule,
    SCENARIOS,
    generate_schedule,
)
from repro.errors import ChaosError
from repro.net.topology import ClusterSpec, reference_run


def spec_for_tests(**overrides) -> ClusterSpec:
    params = dict(
        engines=["e0", "e1"],
        replicas=1,
        master_seed=7,
        workload={"readings": {"n_messages": 160,
                               "mean_interarrival_ms": 1.0}},
    )
    params.update(overrides)
    return ClusterSpec(**params)


def test_same_seed_same_schedule():
    spec = spec_for_tests()
    for seed in range(12):
        a = generate_schedule(seed, spec)
        b = generate_schedule(seed, spec)
        assert a.to_json() == b.to_json()
        assert a.log_lines() == b.log_lines()


def test_seed_rotation_covers_every_scenario():
    spec = spec_for_tests()
    seen = [generate_schedule(seed, spec).scenario
            for seed in range(len(SCENARIOS))]
    assert seen == list(SCENARIOS)


def test_json_roundtrip_preserves_events():
    spec = spec_for_tests()
    schedule = generate_schedule(4, spec)  # kill + partition
    clone = ChaosSchedule.from_json(schedule.to_json())
    assert clone.seed == schedule.seed
    assert clone.scenario == schedule.scenario
    assert clone.log_lines() == schedule.log_lines()


def test_events_validate():
    with pytest.raises(ChaosError):
        ChaosEvent("kill", 10.0).validate()  # no target
    with pytest.raises(ChaosError):
        ChaosEvent("partition", 10.0, link=("a",)).validate()
    with pytest.raises(ChaosError):
        ChaosEvent("meteor", 10.0).validate()
    with pytest.raises(ChaosError):
        ChaosEvent("kill", -1.0, target="engine-e0").validate()


def test_lost_state_names_unsurvivable_schedules():
    spec = spec_for_tests()
    assert generate_schedule(0, spec, "kill_active").lost_state(spec) is None
    lost = generate_schedule(0, spec, "unsurvivable").lost_state(spec)
    assert lost is not None and "follower process(es) dead" in lost
    # SIGSTOP without SIGCONT counts as dead ...
    frozen = ChaosSchedule(events=[
        ChaosEvent("kill", 5.0, target="engine-e0"),
        ChaosEvent("stop", 6.0, target="replica-e0"),
    ])
    assert frozen.lost_state(spec) is not None
    # ... but a continued freeze does not.
    thawed = ChaosSchedule(events=[
        ChaosEvent("kill", 5.0, target="engine-e0"),
        ChaosEvent("stop", 6.0, target="replica-e0"),
        ChaosEvent("cont", 7.0, target="replica-e0"),
    ])
    assert thawed.lost_state(spec) is None
    # With no replicas, any engine kill destroys state.
    bare = spec_for_tests(replicas=0)
    killed = ChaosSchedule(events=[
        ChaosEvent("kill", 5.0, target="engine-e0"),
    ])
    assert "no followers" in killed.lost_state(bare)


def test_expected_hosts_after_kill():
    spec = spec_for_tests()
    schedule = ChaosSchedule(events=[
        ChaosEvent("kill", 5.0, target="engine-e0"),
        ChaosEvent("stop", 6.0, target="engine-e1"),
        ChaosEvent("cont", 9.0, target="engine-e1"),
    ])
    expected = schedule.expected_hosts(spec)
    assert expected["e0"] == "replica-e0"
    assert expected["e1"] is None  # stop/cont duel: either may win


def test_sim_lowering_keeps_content_faults_only():
    spec = spec_for_tests()
    schedule = ChaosSchedule(events=[
        ChaosEvent("kill", 50.0, target="engine-e1"),
        ChaosEvent("kill", 55.0, target="replica-e0"),  # no sim analogue
        ChaosEvent("partition", 60.0, link=("coordinator", "engine-e0"),
                   duration_ms=20.0),
        ChaosEvent("latency", 70.0, link=("coordinator", "engine-e0"),
                   delay_ms=5.0, duration_ms=10.0),
        ChaosEvent("reset", 80.0, link=("coordinator", "engine-e0")),
    ])
    lowered = schedule.sim_events(spec)
    kinds = [event["kind"] for event in lowered]
    assert kinds == ["kill", "partition"]
    assert lowered[0]["node"] == "e1"
    assert lowered[1]["duration_ticks"] == 20_000_000
    assert "e0" in lowered[1]["b_nodes"]


def test_link_faults_cut_the_layout_at_the_fault_not_at_startup():
    # After e0's kill its follower's process hosts e0: that is where the
    # live proxy cuts "replica-e0", and where the twin must cut it too.
    spec = spec_for_tests()
    schedule = ChaosSchedule(events=[
        ChaosEvent("partition", 10.0, link=("coordinator", "replica-e0"),
                   duration_ms=5.0),
        ChaosEvent("kill", 20.0, target="engine-e0"),
        ChaosEvent("partition", 30.0, link=("coordinator", "replica-e0"),
                   duration_ms=5.0),
        ChaosEvent("partition", 40.0, link=("coordinator", "engine-e0"),
                   duration_ms=5.0),
        ChaosEvent("impair", 50.0, link=("engine-e1", "replica-e0"),
                   loss_prob=0.1),
    ])
    before, _kill, after, old_host, *impair = schedule.sim_events(spec)
    assert before["b_nodes"] == ["replica:e0"]
    assert sorted(after["b_nodes"]) == ["e0", "replica:e0"]
    assert "e0" not in old_host["b_nodes"] and old_host["b_nodes"] == []
    assert {(e["src"], e["dst"]) for e in impair} == {
        ("e1", "replica:e0"), ("replica:e0", "e1"),
        ("e1", "e0"), ("e0", "e1")}


def test_sim_replay_of_kill_schedule_matches_clean_reference():
    """The sim half of the shared-schedule contract: a survivable kill
    schedule applied in-simulator still yields the reference stream."""
    spec = spec_for_tests()
    schedule = generate_schedule(0, spec, "kill_active")
    reference = reference_run(spec)
    observed = reference_run(spec, schedule)
    assert observed == reference


def test_stall_budget_counts_windows():
    schedule = ChaosSchedule(events=[
        ChaosEvent("partition", 10.0, link=("a", "b"), duration_ms=40.0),
        ChaosEvent("latency", 20.0, link=("a", "b"), delay_ms=1.0,
                   duration_ms=99.0),  # latency does not stall
    ])
    assert schedule.stall_budget_s(speed=0.1) == pytest.approx(0.4)


class TestCorruptScenario:
    def test_appended_last_keeps_historical_seed_mapping(self):
        # Adding corrupt_state must not reshuffle which scenario a
        # historical seed selects — it is appended, never inserted.
        assert list(SCENARIOS) == [
            "kill_active", "kill_replica", "partition_heal",
            "double_fault", "partition_promotion", "latency_throttle",
            "stop_cont", "corrupt_state", "group_leader_kill",
            "leader_then_follower_kill",
        ]
        spec = spec_for_tests()
        assert generate_schedule(7, spec).scenario == "corrupt_state"

    def test_generator_targets_the_enricher(self):
        from repro.net.topology import component_placement

        spec = spec_for_tests()
        schedule = generate_schedule(7, spec, "corrupt_state")
        (event,) = schedule.events
        assert event.kind == "corrupt"
        assert event.component == "enricher"
        placement = component_placement(spec)
        assert event.target == f"engine-{placement['enricher']}"

    def test_component_survives_json_roundtrip(self):
        schedule = ChaosSchedule(events=[
            ChaosEvent("corrupt", 30.0, target="engine-e0",
                       component="enricher"),
        ], seed=7, scenario="corrupt_state")
        clone = ChaosSchedule.from_json(schedule.to_json())
        (event,) = clone.events
        assert event.component == "enricher"
        assert "component=enricher" in event.log_line()

    def test_validation_requires_target(self):
        with pytest.raises(ChaosError):
            ChaosEvent("corrupt", 10.0).validate()
        ChaosEvent("corrupt", 10.0, target="engine-e0").validate()

    def test_corrupt_is_non_lethal(self):
        spec = spec_for_tests()
        schedule = ChaosSchedule(events=[
            ChaosEvent("corrupt", 30.0, target="engine-e0",
                       component="enricher"),
        ])
        assert schedule.lost_state(spec) is None
        assert schedule.expected_hosts(spec)["e0"] == "engine-e0"

    def test_sim_lowering_carries_component(self):
        spec = spec_for_tests()
        schedule = ChaosSchedule(events=[
            ChaosEvent("corrupt", 30.0, target="engine-e1",
                       component="enricher"),
            ChaosEvent("corrupt", 35.0, target="replica-e0"),  # no analogue
        ])
        lowered = schedule.sim_events(spec)
        assert len(lowered) == 1
        assert lowered[0]["kind"] == "corrupt"
        assert lowered[0]["node"] == "e1"
        assert lowered[0]["component"] == "enricher"
        assert lowered[0]["at_ticks"] == 30_000_000

    def test_sim_replay_heals_and_matches_clean_reference(self):
        """The sim half of the contract for corruption: the schedule's
        untracked state corruption is healed by the audit and the output
        stays byte-identical to the failure-free reference."""
        spec = spec_for_tests(audit="heal")
        schedule = generate_schedule(7, spec, "corrupt_state")
        reference = reference_run(spec)
        observed = reference_run(spec, schedule)
        assert observed == reference


class TestGatewayClientReset:
    """The gateway's client-reset scenario (extra rotation, opt-in)."""

    def gateway_spec(self, **gateway):
        params = {"span_ms": 500.0}
        params.update(gateway)
        return spec_for_tests(workload={}, gateway=params)

    def test_same_seed_same_schedule(self):
        spec = self.gateway_spec()
        a = generate_schedule(3, spec, "gateway_client_reset")
        b = generate_schedule(3, spec, "gateway_client_reset")
        assert a.to_json() == b.to_json()

    def test_resets_the_clients_gateway_link_mid_burst(self):
        spec = self.gateway_spec()
        schedule = generate_schedule(3, spec, "gateway_client_reset")
        (event,) = schedule.events
        assert event.kind == "reset"
        assert event.link == ("clients", "gateway")
        # Mid-burst: inside 35..65% of the planned client span.
        assert 0.35 * 500.0 <= event.at_ms <= 0.65 * 500.0

    def test_span_falls_back_when_gateway_span_missing(self):
        spec = self.gateway_spec()
        del spec.gateway["span_ms"]
        (event,) = generate_schedule(
            3, spec, "gateway_client_reset").events
        assert 0.35 * 400.0 <= event.at_ms <= 0.65 * 400.0

    def test_not_in_seed_rotation(self):
        # Opt-in only: historical seeds must keep their scenarios.
        spec = self.gateway_spec()
        for seed in range(len(SCENARIOS)):
            assert generate_schedule(seed, spec).scenario \
                != "gateway_client_reset"

    def test_reset_is_non_lethal_and_survivable(self):
        spec = self.gateway_spec()
        schedule = generate_schedule(3, spec, "gateway_client_reset")
        assert schedule.lost_state(spec) is None
        # No sim analogue: client resets never reach the simulator.
        assert schedule.sim_events(spec) == []


class TestGroupScenarios:
    """Sharded-group failover scenarios (rotation seeds 8 and 9)."""

    def group_spec(self, followers=2, engines=3):
        return spec_for_tests(engines=[f"e{i}" for i in range(engines)],
                              replicas=followers)

    def test_rotation_picks_group_scenarios(self):
        spec = self.group_spec()
        assert generate_schedule(8, spec).scenario == "group_leader_kill"
        assert generate_schedule(9, spec).scenario \
            == "leader_then_follower_kill"

    def test_group_leader_kill_targets_a_hosting_engine(self):
        from repro.net.topology import component_placement

        spec = self.group_spec()
        schedule = generate_schedule(8, spec, "group_leader_kill")
        (event,) = schedule.events
        assert event.kind == "kill"
        hosting = set(component_placement(spec).values())
        assert event.target[len("engine-"):] in hosting
        assert schedule.lost_state(spec) is None

    def test_second_kill_targets_rank_zero_follower(self):
        spec = self.group_spec(followers=2)
        schedule = generate_schedule(9, spec, "leader_then_follower_kill")
        first, second = schedule.ordered()
        victim = first.target[len("engine-"):]
        assert second.target == f"replica-{victim}"
        assert second.at_ms > first.at_ms
        # Rank 1 survives, so state is never lost.
        assert schedule.lost_state(spec) is None

    def test_second_kill_withheld_with_single_follower(self):
        spec = self.group_spec(followers=1)
        schedule = generate_schedule(9, spec, "leader_then_follower_kill")
        assert len(schedule.events) == 1
        assert schedule.lost_state(spec) is None

    def test_lost_state_when_whole_group_dies(self):
        spec = self.group_spec(followers=2)
        dead = ChaosSchedule(events=[
            ChaosEvent("kill", 5.0, target="engine-e0"),
            ChaosEvent("kill", 6.0, target="replica-e0"),
            ChaosEvent("kill", 7.0, target="replica-e0.1"),
        ])
        assert dead.lost_state(spec) is not None
        survivable = ChaosSchedule(events=dead.events[:2])
        assert survivable.lost_state(spec) is None

    def test_expected_hosts_walk_the_succession_line(self):
        spec = self.group_spec(followers=2)
        schedule = ChaosSchedule(events=[
            ChaosEvent("kill", 5.0, target="engine-e0"),
            ChaosEvent("kill", 50.0, target="replica-e0"),
        ])
        assert schedule.expected_hosts(spec)["e0"] == "replica-e0.1"

    def test_sim_lowering_is_promotion_aware(self):
        spec = self.group_spec(followers=2)
        schedule = ChaosSchedule(events=[
            ChaosEvent("kill", 5.0, target="engine-e0"),
            ChaosEvent("kill", 50.0, target="replica-e0"),
            ChaosEvent("kill", 90.0, target="replica-e0.1"),
        ])
        lowered = schedule.sim_events(spec)
        # Each kill of the *current* host lowers to an engine kill.
        assert [e["kind"] for e in lowered] == ["kill"] * 3
        assert [e["node"] for e in lowered] == ["e0"] * 3

    def test_a_takeover_dies_with_its_host_and_the_next_follower_takes_over(
            self):
        # The rank-0 follower dies 1 ms into its takeover, long before
        # the 30 ms detection: the twin's engine is still down.
        spec = self.group_spec(followers=2)
        schedule = ChaosSchedule(events=[
            ChaosEvent("kill", 50.0, target="engine-e0"),
            ChaosEvent("kill", 51.0, target="replica-e0"),
        ])
        assert [e["promote"] for e in schedule.sim_events(spec)] \
            == [True, True]
        assert reference_run(spec, schedule) == reference_run(spec)

    def test_with_no_follower_left_the_group_stays_down(self):
        from repro.net.topology import simulated_twin, twin_horizon

        spec = self.group_spec(followers=1)
        schedule = ChaosSchedule(events=[
            ChaosEvent("kill", 50.0, target="engine-e0"),
            ChaosEvent("kill", 51.0, target="replica-e0"),
        ])
        assert [e["promote"] for e in schedule.sim_events(spec)] \
            == [True, False]
        twin = simulated_twin(spec, schedule)
        twin.run(until=twin_horizon(spec, schedule))
        assert twin.recovery.failover_count("e0") == 0
        assert not twin.engines["e0"].alive

    def test_idle_follower_kill_has_no_sim_analogue(self):
        spec = self.group_spec(followers=2)
        schedule = ChaosSchedule(events=[
            ChaosEvent("kill", 5.0, target="replica-e0.1"),
        ])
        assert schedule.sim_events(spec) == []
        assert schedule.expected_hosts(spec)["e0"] == "engine-e0"


def test_every_schedule_aims_at_processes_that_exist():
    """Kills, stops and link faults name only processes the spec plans
    (or the gateway's client side), for every scenario and group size."""
    from repro.chaos.schedule import EXTRA_SCENARIOS
    from repro.net.topology import pipeline_spec, plan_cluster_nodes

    scenarios = list(SCENARIOS) + list(EXTRA_SCENARIOS)
    checked, misses, bystander_kills = 0, [], 0
    for engines in (1, 2, 3):
        for replicas in (1, 2):
            spec = pipeline_spec(engines=engines, messages=240,
                                 replicas=replicas)
            known = set(plan_cluster_nodes(spec)) | {"clients", "gateway"}
            for scenario in scenarios:
                for seed in range(30):
                    schedule = generate_schedule(seed, spec, scenario)
                    checked += 1
                    for event in schedule.events:
                        ends = [end for end in (event.target,
                                                *(event.link or ()))
                                if end is not None]
                        misses += [(engines, replicas, scenario, seed, end)
                                   for end in ends if end not in known]
                    if (scenario == "double_fault" and engines == 3
                            and replicas == 2
                            and any(e.target.startswith("replica-")
                                    for e in schedule.events)):
                        bystander_kills += 1
    assert checked == 3 * 2 * len(scenarios) * 30
    assert misses == []
    # A different engine's follower dies too whenever there is one.
    assert bystander_kills == 30


def test_unsurvivable_run_records_its_reproducer(tmp_path):
    """Seed 9 of the unsurvivable scenario, on the chaos CLI's default
    spec, kills the follower while it is still taking over; its red run
    must still write a loadable reproducer bundle."""
    from repro.chaos.runner import record_chaos_bundle
    from repro.net.topology import pipeline_spec
    from repro.runtime.flightrec import ReplayBundle

    spec = pipeline_spec(messages=240, master_seed=7, replicas=1)
    schedule = generate_schedule(9, spec, "unsurvivable")
    path = record_chaos_bundle(spec, schedule,
                               tmp_path / "chaos-failure-seed9",
                               log=lambda line: None)
    assert path is not None
    bundle = ReplayBundle.load(path)
    assert bundle.schedule.to_json() == schedule.to_json()
