"""Cluster specs: serialization, layout, and the simulated oracle."""

import pytest

from repro.errors import WiringError
from repro.net.topology import (
    ClusterSpec,
    assign_addresses,
    build_deployment,
    contiguous_placement,
    pipeline_spec,
    plan_cluster_nodes,
    reference_run,
)


def small_spec(**overrides):
    defaults = dict(
        engines=["e0", "e1"],
        replicas=1,
        master_seed=11,
        workload={"readings": {"n_messages": 30,
                               "mean_interarrival_ms": 1.0}},
    )
    defaults.update(overrides)
    return ClusterSpec(**defaults)


def test_spec_json_roundtrip():
    spec = small_spec()
    ports = {name: ("127.0.0.1", 9000 + i)
             for i, name in enumerate(plan_cluster_nodes(spec))}
    assign_addresses(spec, ports)
    restored = ClusterSpec.from_json(spec.to_json())
    assert restored == spec
    # Address tuples survive JSON's list coercion.
    assert restored.addresses["e0"][0] == spec.addresses["e0"][0]


def test_spec_rejects_unknown_keys():
    with pytest.raises(WiringError, match="unknown cluster spec keys"):
        ClusterSpec.from_json('{"bogus_key": 1}')


def test_contiguous_placement_keeps_neighbours_together():
    placement = contiguous_placement(["a", "b", "c"], ["e0", "e1"])
    assert placement == {"a": "e0", "b": "e0", "c": "e1"}
    # More engines than components: extras are simply unused.
    placement = contiguous_placement(["a"], ["e0", "e1"])
    assert placement == {"a": "e0"}
    with pytest.raises(WiringError):
        contiguous_placement(["a"], [])


def test_plan_cluster_nodes_layout():
    layout = plan_cluster_nodes(small_spec())
    assert set(layout) == {"coordinator", "engine-e0", "engine-e1",
                           "replica-e0", "replica-e1"}
    assert layout["engine-e0"] == ["e0"]
    assert layout["replica-e1"] == ["replica:e1"]
    assert "ext:readings" in layout["coordinator"]
    assert "sink" in layout["coordinator"]
    # No replicas -> no replica processes and no checkpointing config.
    bare = small_spec(replicas=0)
    assert set(plan_cluster_nodes(bare)) == {"coordinator", "engine-e0",
                                             "engine-e1"}
    assert bare.engine_config().checkpoint_interval is None


def test_assign_addresses_gives_engines_failover_candidates():
    spec = small_spec()
    ports = {name: ("127.0.0.1", 9100 + i)
             for i, name in enumerate(plan_cluster_nodes(spec))}
    assign_addresses(spec, ports)
    # Engine nodes: primary process first, replica process second.
    assert spec.addresses["e0"] == [ports["engine-e0"],
                                    ports["replica-e0"]]
    # Singly-hosted nodes get exactly one candidate.
    assert spec.addresses["replica:e0"] == [ports["replica-e0"]]
    assert spec.addresses["ext:readings"] == [ports["coordinator"]]
    # Every process has a reachable control node.
    for name in plan_cluster_nodes(spec):
        assert spec.addresses[f"proc:{name}"] == [ports[name]]


def test_identical_specs_build_identical_wire_tables():
    spec = small_spec()
    plans = []
    for _ in range(2):
        dep = build_deployment(spec)
        plans.append(sorted(
            (spec_.wire_id, spec_.kind, spec_.src_component or "",
             spec_.dst_component or "")
            for specs in dep._wire_plan.values() for spec_ in specs
        ))
    assert plans[0] == plans[1]


def test_reference_run_is_deterministic_and_complete():
    spec = small_spec()
    first = reference_run(spec)
    second = reference_run(spec)
    assert first == second
    assert set(first) == {"sink"}
    # 30 readings through a window-10 aggregator: 3 reports.
    assert len(first["sink"]) == 3
    seqs = [seq for seq, _vt, _p in first["sink"]]
    assert seqs == [0, 1, 2]
    # A different seed yields a different stream (the oracle is not
    # trivially constant).
    other = reference_run(small_spec(master_seed=12))
    assert other != first


class TestReplicationGroups:
    def test_follower_naming_and_rank_zero_compat(self):
        spec = small_spec(followers_per_group=3)
        assert spec.followers() == 3
        assert spec.replica_node("e0") == "replica:e0"
        assert spec.replica_node("e0", 2) == "replica:e0.2"
        assert spec.follower_process("e0", 0) == "replica-e0"
        assert spec.follower_process("e0", 2) == "replica-e0.2"
        assert spec.follower_processes("e1") == [
            "replica-e1", "replica-e1.1", "replica-e1.2"
        ]

    def test_followers_falls_back_to_replicas(self):
        assert small_spec(replicas=1).followers() == 1
        assert small_spec(replicas=0).followers() == 0
        assert small_spec(replicas=0, followers_per_group=2).followers() == 2

    def test_plan_cluster_nodes_multi_follower_layout(self):
        spec = small_spec(followers_per_group=2)
        layout = plan_cluster_nodes(spec)
        assert set(layout) == {
            "coordinator", "engine-e0", "engine-e1",
            "replica-e0", "replica-e0.1", "replica-e1", "replica-e1.1",
        }
        assert layout["replica-e0.1"] == ["replica:e0.1"]

    def test_assign_addresses_orders_succession_line(self):
        spec = small_spec(followers_per_group=2)
        ports = {name: ("127.0.0.1", 9200 + i)
                 for i, name in enumerate(sorted(plan_cluster_nodes(spec)))}
        assign_addresses(spec, ports)
        assert spec.addresses["e0"] == [
            ports["engine-e0"], ports["replica-e0"], ports["replica-e0.1"]
        ]
        assert spec.addresses["replica:e0.1"] == [ports["replica-e0.1"]]

    def test_deployment_wires_all_follower_ids(self):
        spec = small_spec(followers_per_group=2)
        dep = build_deployment(spec)
        assert [r.node_id for r in dep.followers["e0"]] == [
            "replica:e0", "replica:e0.1"
        ]
        config = dep.engines["e0"].config
        assert config.replica_id == "replica:e0"
        assert config.replica_ids == ("replica:e0", "replica:e0.1")
        assert [r.rank for r in dep.followers["e0"]] == [0, 1]


class TestSpecValidation:
    def test_unknown_keys_name_the_first_offender(self):
        from repro.errors import SpecValidationError

        with pytest.raises(SpecValidationError) as info:
            ClusterSpec.from_json('{"zz_bogus": 1, "aa_bogus": 2}')
        assert info.value.key == "aa_bogus"
        assert "aa_bogus" in str(info.value)

    def test_rejects_bad_engine_ids(self):
        from repro.errors import SpecValidationError

        for engines in ([], ["e0", "e0"], ["e.0"], ["e 0"], [""]):
            with pytest.raises(SpecValidationError):
                small_spec(engines=engines).validate()

    def test_rejects_bad_numeric_fields(self):
        from repro.errors import SpecValidationError

        bad = [
            dict(replicas=-1),
            dict(followers_per_group=-2),
            dict(speed=0),
            dict(checkpoint_interval_ms=-1.0),
            dict(heartbeat_miss_limit=0),
            dict(backoff_min_s=0.5, backoff_max_s=0.1),
            dict(recovery_target_ms=0),
            dict(audit="sometimes"),
        ]
        for overrides in bad:
            with pytest.raises(SpecValidationError):
                small_spec(**overrides).validate()

    def test_rejects_placement_onto_unknown_engine(self):
        from repro.errors import SpecValidationError

        with pytest.raises(SpecValidationError) as info:
            small_spec(placement={"source": "nope"}).validate()
        assert info.value.key == "placement"

    def test_spec_validation_error_is_a_wiring_error(self):
        from repro.errors import SpecValidationError

        assert issubclass(SpecValidationError, WiringError)

    def test_valid_spec_passes_and_roundtrips(self):
        spec = small_spec(followers_per_group=2)
        spec.validate()
        assert ClusterSpec.from_json(spec.to_json()) == spec


class TestPipelineSpec:
    def test_three_engines_shard_the_seeded_budget_one_lane_each(self):
        spec = pipeline_spec(engines=3, messages=10, mean_ms=2.0,
                             master_seed=5)
        assert spec.engines == ["e0", "e1", "e2"]
        assert spec.app_args == {"window": 10, "lanes": 3}
        assert sorted(p["n_messages"] for p in spec.workload.values()) \
            == [3, 3, 4]
        assert {p["mean_interarrival_ms"]
                for p in spec.workload.values()} == {2.0}
        assert set(spec.placement.values()) == set(spec.engines)
        assert spec.master_seed == 5
        spec.validate()

    def test_two_engines_and_gateway_fed_specs_stay_single_lane(self):
        seeded = pipeline_spec(engines=2, messages=7)
        assert seeded.app_args == {"window": 10}
        assert seeded.placement == {}
        assert seeded.workload == {"readings": {
            "n_messages": 7, "mean_interarrival_ms": 1.0}}
        fed = pipeline_spec(engines=3, window=4, gateway={"span_ms": 400.0})
        assert fed.app_args == {"window": 4}
        assert fed.placement == {} and fed.workload == {}
        assert fed.gateway_enabled()
