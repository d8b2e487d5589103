"""The post-run invariant checker, on synthetic run results."""

import dataclasses

import pytest

from repro.chaos.invariants import (
    check_invariants,
    convergence_violations,
    exactly_once_violations,
    incarnation_host,
    judged_schedule,
    liveness_violations,
)
from repro.chaos.schedule import ChaosEvent, ChaosSchedule
from repro.errors import UnrecoverableClusterError
from repro.net.topology import (
    ClusterSpec,
    pipeline_spec,
    simulated_twin,
    twin_horizon,
)


def spec_for_tests() -> ClusterSpec:
    return ClusterSpec(
        engines=["e0", "e1"], replicas=1,
        workload={"readings": {"n_messages": 10,
                               "mean_interarrival_ms": 1.0}},
    )


def test_incarnation_host_strips_uuid_and_counter():
    assert incarnation_host("engine-e0:ab12cd34#3") == "engine-e0"
    assert incarnation_host("replica-e1:00ff00ff#12") == "replica-e1"
    assert incarnation_host(None) is None
    assert incarnation_host("") is None


def test_exactly_once_flags_dups_and_gaps():
    ok = {"sink": [(0, 1, "a"), (1, 2, "b"), (2, 3, "c")]}
    assert exactly_once_violations(ok) == []
    dup = {"sink": [(0, 1, "a"), (1, 2, "b"), (1, 2, "b")]}
    assert any("duplicate" in v for v in exactly_once_violations(dup))
    gap = {"sink": [(0, 1, "a"), (2, 3, "c")]}
    assert any("gap" in v for v in exactly_once_violations(gap))


def test_convergence_checks_expected_host():
    spec = spec_for_tests()
    schedule = ChaosSchedule(events=[
        ChaosEvent("kill", 5.0, target="engine-e0"),
    ], seed=3)
    # Converged on the replica: what the schedule predicts.
    good = {"e0": "replica-e0:12345678#2", "e1": "engine-e1:abcdefab#1"}
    assert convergence_violations(spec, schedule, good) == []
    # Still pointing at the killed engine process: violation.
    bad = {"e0": "engine-e0:12345678#1"}
    violations = convergence_violations(spec, schedule, bad)
    assert len(violations) == 1
    assert "expected replica-e0" in violations[0]
    # Unobserved engines (no coordinator channel) are skipped.
    assert convergence_violations(spec, schedule, {}) == []


def make_result(streams, incarnations=None, error=None):
    return {
        "streams": streams,
        "incarnations": incarnations or {},
        "complete": True,
        "error": error,
    }


def test_check_invariants_passes_identical_run():
    spec = spec_for_tests()
    schedule = ChaosSchedule(events=[], seed=0)
    reference = {"sink": [(0, 10, "a"), (1, 20, "b")]}
    verdict = check_invariants(
        spec, schedule, reference,
        make_result({"sink": [(0, 10, "a"), (1, 20, "b")]}),
    )
    assert verdict["ok"]
    assert verdict["byte_identical"]
    assert verdict["exactly_once"]
    assert verdict["converged"]


def test_check_invariants_flags_divergence():
    spec = spec_for_tests()
    schedule = ChaosSchedule(events=[], seed=0)
    reference = {"sink": [(0, 10, "a"), (1, 20, "b")]}
    verdict = check_invariants(
        spec, schedule, reference,
        make_result({"sink": [(0, 10, "a"), (1, 20, "WRONG")]}),
    )
    assert not verdict["ok"]
    assert not verdict["byte_identical"]


def test_unsurvivable_incomplete_raises_structured_error():
    spec = spec_for_tests()
    schedule = ChaosSchedule(events=[
        ChaosEvent("kill", 5.0, target="engine-e0"),
        ChaosEvent("kill", 6.0, target="replica-e0"),
    ], seed=42)
    reference = {"sink": [(0, 10, "a"), (1, 20, "b")]}
    with pytest.raises(UnrecoverableClusterError) as info:
        check_invariants(spec, schedule, reference,
                         make_result({"sink": [(0, 10, "a")]}))
    err = info.value
    assert "follower process(es) dead" in err.lost_state
    assert err.schedule_seed == 42
    assert (err.delivered, err.expected) == (1, 2)
    assert "unrecoverable" in str(err)


def test_unsurvivable_but_complete_is_judged_normally():
    """Faults that land after the last output destroy nothing observable."""
    spec = spec_for_tests()
    schedule = ChaosSchedule(events=[
        ChaosEvent("kill", 5000.0, target="engine-e0"),
        ChaosEvent("kill", 6000.0, target="replica-e0"),
    ], seed=42)
    reference = {"sink": [(0, 10, "a")]}
    verdict = check_invariants(spec, schedule, reference,
                               make_result({"sink": [(0, 10, "a")]}))
    assert verdict["byte_identical"]
    assert verdict["lost_state"] is not None


class TestAuditViolations:
    def _result(self, reports=None, corrupted=None):
        result = make_result({"sink": []})
        if reports is not None:
            result["audit_reports"] = reports
        result["chaos"] = {"corrupted": corrupted or []}
        return result

    def _schedule(self, events=()):
        return ChaosSchedule(events=list(events), seed=7)

    def test_clean_reports_no_corruption_pass(self):
        from repro.chaos.invariants import audit_violations

        spec = spec_for_tests()
        reports = {"engine-e0": {"mode": "heal", "engine": "e0",
                                 "checks": 9, "divergences": 0,
                                 "heals": 0}}
        assert audit_violations(spec, self._schedule(),
                                self._result(reports)) == []

    def test_raise_mode_divergence_is_a_violation(self):
        from repro.chaos.invariants import audit_violations

        spec = spec_for_tests()
        reports = {"engine-e0": {"mode": "raise", "engine": "e0",
                                 "divergences": 1, "heals": 0}}
        violations = audit_violations(spec, self._schedule(),
                                      self._result(reports))
        assert any("raise mode" in v for v in violations)

    def test_unhealed_divergence_is_a_violation(self):
        from repro.chaos.invariants import audit_violations

        spec = spec_for_tests()
        reports = {"engine-e0": {"mode": "heal", "engine": "e0",
                                 "divergences": 2, "heals": 1}}
        violations = audit_violations(spec, self._schedule(),
                                      self._result(reports))
        assert any("healed only 1/2" in v for v in violations)

    def test_delivered_corruption_must_be_healed(self):
        from repro.chaos.invariants import audit_violations

        spec = spec_for_tests()
        corrupted = [{"target": "engine-e0", "component": "enricher"}]
        healed = {"engine-e0": {"mode": "heal", "engine": "e0",
                                "divergences": 1, "heals": 1}}
        assert audit_violations(spec, self._schedule(),
                                self._result(healed, corrupted)) == []
        ignored = {"engine-e0": {"mode": "heal", "engine": "e0",
                                 "divergences": 0, "heals": 0}}
        violations = audit_violations(spec, self._schedule(),
                                      self._result(ignored, corrupted))
        assert any("healed nothing" in v for v in violations)

    def test_corruption_without_any_report_is_a_violation(self):
        from repro.chaos.invariants import audit_violations

        spec = spec_for_tests()
        corrupted = [{"target": "engine-e0", "component": None}]
        violations = audit_violations(spec, self._schedule(),
                                      self._result({}, corrupted))
        assert any("no audit report" in v for v in violations)

    def test_corruption_on_killed_process_is_excused(self):
        from repro.chaos.invariants import audit_violations

        spec = spec_for_tests()
        schedule = self._schedule([
            ChaosEvent("corrupt", 30.0, target="engine-e0",
                       component="enricher"),
            ChaosEvent("kill", 40.0, target="engine-e0"),
        ])
        corrupted = [{"target": "engine-e0", "component": "enricher"}]
        reports = {"engine-e1": {"mode": "heal", "engine": "e1",
                                 "divergences": 0, "heals": 0}}
        assert audit_violations(spec, schedule,
                                self._result(reports, corrupted)) == []

    def test_verdict_carries_audit_clean(self):
        spec = spec_for_tests()
        schedule = ChaosSchedule(events=[], seed=0)
        reference = {"sink": [(0, 10, "a")]}
        result = make_result({"sink": [(0, 10, "a")]})
        result["audit_reports"] = {
            "engine-e0": {"mode": "heal", "engine": "e0",
                          "divergences": 1, "heals": 0},
        }
        verdict = check_invariants(spec, schedule, reference, result)
        assert not verdict["ok"]
        assert not verdict["audit_clean"]
        assert verdict["byte_identical"]


class TestNonVictimLiveness:
    """One lane per engine: ``sink`` <- e0, ``sink1`` <- e1, ``sink2``
    <- e2.  e0 dies at 10 ms; its failover window runs from the kill to
    ``sink``'s first recovered output.  Reference outputs carry their
    delivery instant as ``vt``, as the unreplicated reference does."""

    MS = 1_000_000

    def spec(self):
        return pipeline_spec(engines=3, messages=30, replicas=1)

    def kill(self):
        return ChaosSchedule(events=[
            ChaosEvent("kill", 10.0, target="engine-e0")], seed=5)

    def reference(self, **vts_ms):
        return {sink: [(seq, int(t * self.MS), "x")
                       for seq, t in enumerate(vts)]
                for sink, vts in vts_ms.items()}

    def result(self, **arrivals_ms):
        return {"arrival_ticks": {
            sink: [int(t * self.MS) for t in ticks]
            for sink, ticks in arrivals_ms.items()}}

    def test_an_independent_sink_silent_through_the_window_is_flagged(self):
        violations = liveness_violations(
            self.spec(), self.kill(),
            self.result(sink=[5, 20], sink1=[5, 25], sink2=[15]),
            self.reference(sink=[5, 20], sink1=[5, 15], sink2=[15]))
        assert violations == [
            "sink1: no delivery during e0's failover window "
            "[10000000, 20000000] ticks"]

    def test_a_sink_the_reference_leaves_idle_in_the_window_is_not_flagged(
            self):
        assert liveness_violations(
            self.spec(), self.kill(),
            self.result(sink=[5, 20], sink1=[5, 25], sink2=[15]),
            self.reference(sink=[5, 20], sink1=[5, 25], sink2=[15])) == []

    def test_a_sink_complete_before_the_kill_is_excused(self):
        assert liveness_violations(
            self.spec(), self.kill(),
            self.result(sink=[5, 20], sink1=[5, 6], sink2=[15]),
            self.reference(sink=[5, 20], sink1=[5, 15], sink2=[15])) == []

    def test_when_the_victim_never_recovers_the_window_runs_to_the_end(
            self):
        violations = liveness_violations(
            self.spec(), self.kill(),
            self.result(sink=[5], sink1=[5, 40], sink2=[5, 8]),
            self.reference(sink=[5, 20], sink1=[5, 15], sink2=[5, 8, 30]))
        assert violations == [
            "sink2: no delivery during e0's failover window "
            "[10000000, 40000000] ticks"]

    def test_a_harness_kill_is_judged_as_the_same_schedule_event(self):
        spec = self.spec()
        reference = self.reference(sink=[5, 20], sink1=[5, 15], sink2=[15])
        result = dict(
            self.result(sink=[5, 20], sink1=[5, 25], sink2=[15]),
            streams=reference, complete=True, error=None,
            incarnations={"e0": "replica-e0:12345678#2"},
            killed={"engine": "e0", "at_s": 1.0, "at_ticks": 10 * self.MS,
                    "at_outputs": 2})
        explicit = ChaosSchedule(events=[
            ChaosEvent("kill", 10.0, target="engine-e0")])
        folded = judged_schedule(None, result)
        assert folded.expected_hosts(spec) == explicit.expected_hosts(spec)
        assert folded.expected_hosts(spec)["e0"] == "replica-e0"
        by_harness = check_invariants(spec, None, reference, result)
        by_schedule = check_invariants(spec, explicit, reference,
                                       dict(result, killed=None))
        assert by_harness["violations"] == by_schedule["violations"]
        assert by_harness["converged"] and not by_harness["liveness"]
        assert len(by_harness["violations"]) == 1
        # No kill and no schedule: nothing to fold in.
        assert judged_schedule(None, dict(result, killed=None)).events == []

    def test_the_reference_delivers_each_output_at_its_vt(self):
        # The rule reads the reference's delivery ticks off its vts.
        spec = dataclasses.replace(
            pipeline_spec(engines=3, messages=240, master_seed=8),
            replicas=0)
        twin = simulated_twin(spec)
        twin.run(until=twin_horizon(spec))
        assert sum(map(len, twin.consumers.values())) == 24
        for consumer in twin.consumers.values():
            assert ([vt for _seq, vt, _p, _t in consumer.effective_outputs]
                    == consumer.arrival_ticks())
