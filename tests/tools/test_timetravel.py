"""Time-travel debugger: causal queries and byte-identical seeks.

The causal-closure tests run against a hand-constructed fan-in event
stream (the acceptance scenario from the issue); the seek tests record
real bundles — including a fixed-seed chaos schedule — and assert the
re-executed state is byte-identical to the recorded audit snapshot.
"""

import json

import pytest

from repro.chaos.schedule import generate_schedule
from repro.net.topology import ClusterSpec
from repro.runtime.flightrec import ReplayBundle, record_run
from repro.tools.timetravel import (
    TimeTravelSession,
    causal_closure,
    diff_states,
    main,
    target_clock,
)
from repro.vt.repcl import RepCl


# ----------------------------------------------------------------------
# Causal closure over a hand-built fan-in scenario
# ----------------------------------------------------------------------

def ev(index, kind, component, wire, seq, vt, epoch=None):
    return {
        "index": index, "kind": kind, "component": component,
        "engine": "e0", "wire": wire, "seq": seq, "vt": vt,
        "repcl": RepCl(epoch=epoch if epoch is not None else vt).encode(),
    }


def fan_in_events():
    """A dispatches external wire 1 then sends wire 10 to C; B dispatches
    external wire 2 then sends wire 11 to C; C dispatches both.  D -> E
    (wires 3, 12) is causally unrelated.  A later A dispatch (wire 4)
    happens after A's send, so it must NOT leak into C's closure."""
    return [
        ev(0, "dispatch", "A", 1, 0, 100),
        ev(1, "send", "A", 10, 0, 150),
        ev(2, "dispatch", "B", 2, 0, 200),
        ev(3, "send", "B", 11, 0, 250),
        ev(4, "dispatch", "D", 3, 0, 300),
        ev(5, "send", "D", 12, 0, 350),
        ev(6, "dispatch", "E", 12, 0, 400),
        ev(7, "dispatch", "A", 4, 0, 450),  # after A's send: excluded
        ev(8, "dispatch", "C", 10, 0, 500),
        ev(9, "dispatch", "C", 11, 0, 600),
    ]


class TestCausalClosure:
    def test_fan_in_includes_both_branches_transitively(self):
        closure = causal_closure(fan_in_events(), "C", vt=600)
        wires = {m["wire"] for m in closure}
        assert wires == {1, 2, 10, 11}
        by_wire = {m["wire"]: m for m in closure}
        assert by_wire[10]["from"] == "A" and by_wire[10]["to"] == "C"
        assert by_wire[11]["from"] == "B" and by_wire[11]["to"] == "C"
        assert by_wire[1]["from"] == "external"
        assert by_wire[2]["from"] == "external"

    def test_unrelated_chain_excluded(self):
        closure = causal_closure(fan_in_events(), "C", vt=600)
        assert not {3, 12} & {m["wire"] for m in closure}

    def test_dispatches_after_the_send_excluded(self):
        # A dispatched wire 4 *after* emitting wire 10, so it cannot
        # have influenced C: the walk is bounded by the send's index.
        closure = causal_closure(fan_in_events(), "C", vt=600)
        assert 4 not in {m["wire"] for m in closure}

    def test_vt_cut_limits_direct_dispatches(self):
        closure = causal_closure(fan_in_events(), "C", vt=500)
        assert {m["wire"] for m in closure} == {1, 10}

    def test_unknown_component_has_empty_closure(self):
        assert causal_closure(fan_in_events(), "Z", vt=600) == []

    def test_closure_sorted_by_vt(self):
        closure = causal_closure(fan_in_events(), "C", vt=600)
        vts = [m["vt"] for m in closure]
        assert vts == sorted(vts)

    def test_target_clock_dominates_closure(self):
        events = fan_in_events()
        clock = target_clock(events, "C", 600)
        for m in causal_closure(events, "C", 600):
            assert clock.dominates(RepCl.decode(m["repcl"]))


# ----------------------------------------------------------------------
# Recorded bundles: seeks, byte identity, CLI
# ----------------------------------------------------------------------

def small_spec(**overrides) -> ClusterSpec:
    params = dict(
        engines=["e0", "e1"],
        replicas=1,
        master_seed=7,
        workload={"readings": {"n_messages": 40,
                               "mean_interarrival_ms": 1.0}},
    )
    params.update(overrides)
    return ClusterSpec(**params)


def lane_spec() -> ClusterSpec:
    from repro.apps.pipeline import build_pipeline_app, lane_key
    from repro.net.topology import sharded_placement

    engines = ["e0", "e1", "e2"]
    app = build_pipeline_app(window=10, lanes=3)
    return ClusterSpec(
        engines=engines,
        app_args={"window": 10, "lanes": 3},
        placement=sharded_placement(app.component_names(), engines,
                                    group_key=lane_key),
        replicas=1,
        master_seed=7,
        workload={f"readings{suffix}": {"n_messages": 12,
                                        "mean_interarrival_ms": 1.0}
                  for suffix in ("", "1", "2")},
    )


@pytest.fixture(scope="module")
def chaos_bundle(tmp_path_factory):
    spec = small_spec()
    schedule = generate_schedule(0, spec)
    path = record_run(spec, tmp_path_factory.mktemp("tt") / "chaos0",
                      schedule=schedule, seed=0,
                      scenario=schedule.scenario, source="chaos")
    return ReplayBundle.load(path)


class TestSeek:
    def test_chaos_seed_seek_to_final_is_byte_identical(self, chaos_bundle):
        session = TimeTravelSession(chaos_bundle)
        assert session.verify_final()

    def test_stepped_seek_equals_one_shot(self, chaos_bundle):
        # Forward seeks reuse the live simulator; stepping through an
        # intermediate VT must not change the horizon bytes.
        stepped = TimeTravelSession(chaos_bundle)
        stepped.seek(chaos_bundle.ran_until // 2)
        assert stepped.verify_final()
        assert stepped.stats["rebuilds"] == 1

    def test_backward_seek_rebuilds(self, chaos_bundle):
        session = TimeTravelSession(chaos_bundle)
        session.seek(chaos_bundle.ran_until)
        session.seek(chaos_bundle.ran_until // 2)
        assert session.stats["rebuilds"] == 2

    def test_repeated_seek_is_skipped_not_reexecuted(self, chaos_bundle):
        session = TimeTravelSession(chaos_bundle)
        vt = chaos_bundle.ran_until // 2
        session.seek(vt)
        session.seek(vt)
        assert session.stats == {"executed": 1, "skipped": 1,
                                 "rebuilds": 1}

    def test_diff_between_vts_shows_progress(self, chaos_bundle):
        from repro.sim.kernel import ms

        session = TimeTravelSession(chaos_bundle)
        early = session.seek(ms(2))  # mid-workload, state still growing
        late = session.seek(chaos_bundle.ran_until)
        changed = diff_states(early, late)
        assert changed, "state must change between mid-workload and final VT"


class TestWhyOnRecordedRun:
    def test_aggregator_closure_spans_the_pipeline(self, chaos_bundle):
        closure = causal_closure(chaos_bundle.events, "aggregator",
                                 chaos_bundle.ran_until)
        assert closure
        senders = {m["from"] for m in closure}
        assert "external" in senders  # raw readings are causal roots
        assert "parser" in senders or "enricher" in senders
        clock = target_clock(chaos_bundle.events, "aggregator",
                             chaos_bundle.ran_until)
        assert all(clock.dominates(RepCl.decode(m["repcl"]))
                   for m in closure)

    def test_lanes_are_causally_independent(self, tmp_path):
        path = record_run(lane_spec(), tmp_path / "lanes", source="test")
        bundle = ReplayBundle.load(path)
        closure = causal_closure(bundle.events, "aggregator",
                                 bundle.ran_until)
        assert closure
        touched = {m["from"] for m in closure} | {m["to"] for m in closure}
        assert not any(name.endswith(("1", "2")) for name in touched), \
            f"lane-0 closure leaked into other lanes: {sorted(touched)}"


class TestCli:
    def test_seek_cli_verifies_horizon(self, chaos_bundle, capsys):
        rc = main(["seek", "--bundle", str(chaos_bundle.path), "--json"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["byte_identical"] is True

    def test_seek_cli_accepts_explicit_vt(self, chaos_bundle, capsys):
        vt = chaos_bundle.ran_until // 2
        rc = main(["seek", "--bundle", str(chaos_bundle.path),
                   "--vt", str(vt), "--json"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["vt"] == vt

    def test_why_cli_reports_closure(self, chaos_bundle, capsys):
        rc = main(["why", "--bundle", str(chaos_bundle.path),
                   "--component", "aggregator", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["count"] == len(out["messages"]) > 0
        assert out["dominated_by_target"] == out["count"]

    def test_info_cli(self, chaos_bundle, capsys):
        rc = main(["info", "--bundle", str(chaos_bundle.path), "--json"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["source"] == "chaos" and out["has_schedule"]

    def test_missing_bundle_exits_2(self, tmp_path, capsys):
        rc = main(["info", "--bundle", str(tmp_path / "absent")])
        assert rc == 2

    def test_unknown_component_exits_2(self, chaos_bundle, capsys):
        rc = main(["why", "--bundle", str(chaos_bundle.path),
                   "--component", "nope"])
        assert rc == 2

    def test_unknown_spec_key_exits_2_with_one_line(self, chaos_bundle,
                                                    tmp_path, capsys):
        # A bundle recorded with a since-removed spec field: the load
        # error names the file instead of ending in a traceback.
        import shutil

        path = tmp_path / "old.replay"
        shutil.copytree(chaos_bundle.path, path)
        spec = json.loads((path / "spec.json").read_text())
        spec["zz_retired_knob"] = None
        (path / "spec.json").write_text(json.dumps(spec))
        rc = main(["info", "--bundle", str(path)])
        err = capsys.readouterr().err.strip().splitlines()
        assert rc == 2
        assert len(err) == 1 and err[0].startswith("timetravel: ")
        assert "spec.json" in err[0] and "zz_retired_knob" in err[0]

    def test_external_log_for_unknown_input_exits_2_with_one_line(
            self, tmp_path, capsys):
        from repro.runtime.flightrec import encode_external

        path = record_run(small_spec(workload={}), tmp_path / "gw",
                          external={}, source="gateway")
        (path / "external.bin").write_bytes(
            encode_external({"nope": [(0, 5, {"device": "dev0"})]}))
        rc = main(["seek", "--bundle", str(path)])
        err = capsys.readouterr().err.strip().splitlines()
        assert rc == 2
        assert len(err) == 1 and err[0].startswith("timetravel: ")
        assert "'nope'" in err[0]
