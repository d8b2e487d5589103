"""Flight recorder: bundle round trips, state capture determinism, and
the encode/decode codecs (property-tested)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.topology import ClusterSpec, simulated_twin, twin_horizon
from repro.runtime import checkpoint as cpser
from repro.runtime.flightrec import (
    BUNDLE_SUFFIX,
    BundleError,
    ReplayBundle,
    capture_state,
    decode_events,
    decode_external,
    encode_events,
    encode_external,
    record_run,
)


def spec_for_tests(**overrides) -> ClusterSpec:
    params = dict(
        engines=["e0", "e1"],
        replicas=1,
        master_seed=7,
        workload={"readings": {"n_messages": 40,
                               "mean_interarrival_ms": 1.0}},
    )
    params.update(overrides)
    return ClusterSpec(**params)


# ----------------------------------------------------------------------
# Codec properties
# ----------------------------------------------------------------------

repcl_docs = st.fixed_dictionaries({
    "e": st.integers(0, 1 << 40),
    "o": st.lists(st.tuples(st.integers(0, 30), st.integers(0, 1 << 16))
                  .map(list), max_size=4),
    "c": st.integers(0, 1000),
})

event_docs = st.fixed_dictionaries({
    "index": st.integers(0, 1 << 30),
    "kind": st.sampled_from(["dispatch", "send", "complete"]),
    "component": st.text(max_size=12),
    "engine": st.text(max_size=6),
    "wire": st.integers(0, 500),
    "seq": st.integers(0, 1 << 30),
    "vt": st.integers(0, 1 << 50),
    "repcl": repcl_docs,
})

external_logs = st.dictionaries(
    st.text(min_size=1, max_size=10),
    st.lists(st.tuples(st.integers(0, 1 << 20), st.integers(0, 1 << 50),
                       st.one_of(st.text(max_size=10),
                                 st.binary(max_size=10),
                                 st.dictionaries(st.text(max_size=4),
                                                 st.integers(),
                                                 max_size=3))),
             max_size=5),
    max_size=4,
)


@settings(max_examples=50)
@given(st.lists(event_docs, max_size=8))
def test_event_stream_roundtrip(events):
    assert decode_events(encode_events(events)) == events


@settings(max_examples=50)
@given(external_logs, st.dictionaries(st.text(max_size=6),
                                      st.integers(-1, 1 << 20), max_size=3))
def test_external_log_roundtrip(logs, truncated):
    decoded = decode_external(encode_external(logs, truncated))
    assert decoded == {k: [tuple(e) for e in v] for k, v in logs.items()}


def test_codecs_reject_unknown_format():
    blob = cpser.dumps({"format": 999, "events": []})
    with pytest.raises(BundleError):
        decode_events(blob)
    blob = cpser.dumps({"format": 999, "logs": {}})
    with pytest.raises(BundleError):
        decode_external(blob)


# ----------------------------------------------------------------------
# State capture and re-execution
# ----------------------------------------------------------------------

def test_capture_state_is_deterministic():
    spec = spec_for_tests()
    until = twin_horizon(spec)
    docs = []
    for _ in range(2):
        dep = simulated_twin(spec)
        dep.run(until=until)
        docs.append(cpser.dumps(capture_state(dep)))
    assert docs[0] == docs[1]
    state = cpser.loads(docs[0])
    assert set(state["components"]) == set(spec_app_components(spec))
    assert state["digests"]


def spec_app_components(spec):
    from repro.net.topology import build_deployment

    return build_deployment(spec).app.component_names()


def test_external_replay_reproduces_stamps():
    """Replaying recorded (seq, vt, payload) logs into a workload-free
    spec reproduces the ingress stamps exactly."""
    # A huge checkpoint interval keeps the external log untrimmed, so
    # the recording is complete and the replay can be compared 1:1.
    spec = spec_for_tests(checkpoint_interval_ms=60_000.0)
    dep = simulated_twin(spec)
    dep.run(until=twin_horizon(spec))
    from repro.runtime.flightrec import external_logs_of

    logs, _trunc = external_logs_of(dep)
    replay_spec = spec_for_tests(workload={},
                                 checkpoint_interval_ms=60_000.0)
    assert not replay_spec.workload
    surviving = {k: v for k, v in logs.items() if v}
    assert surviving, "untrimmed run must retain its external log"
    twin = simulated_twin(replay_spec, external=surviving)
    twin.run(until=twin_horizon(replay_spec, external=surviving))
    replayed, _ = external_logs_of(twin)
    for input_id, entries in surviving.items():
        got = {(seq, vt) for seq, vt, _p in replayed[input_id]}
        assert {(seq, vt) for seq, vt, _p in entries} <= got


# ----------------------------------------------------------------------
# Bundle round trip
# ----------------------------------------------------------------------

def test_record_and_load_roundtrip(tmp_path):
    spec = spec_for_tests()
    path = record_run(spec, tmp_path / "run", seed=11, source="test")
    assert path.name.endswith(BUNDLE_SUFFIX)
    bundle = ReplayBundle.load(path)
    assert bundle.manifest["source"] == "test"
    assert bundle.manifest["seed"] == 11
    assert bundle.manifest["replay_mode"] == "workload"
    assert bundle.spec.to_json() == spec.to_json()
    assert bundle.events, "event stream must not be empty"
    assert bundle.manifest["event_count"] == len(bundle.events)
    assert bundle.ran_until > 0
    assert bundle.state["digests"]
    assert "sink" in bundle.streams
    assert bundle.metrics is not None and "counters" in bundle.metrics


def test_load_accepts_suffixless_path(tmp_path):
    spec = spec_for_tests()
    record_run(spec, tmp_path / "run", source="test")
    bundle = ReplayBundle.load(tmp_path / "run")  # no .replay suffix
    assert bundle.path.name == "run" + BUNDLE_SUFFIX


def test_load_missing_bundle_raises(tmp_path):
    with pytest.raises(BundleError):
        ReplayBundle.load(tmp_path / "nope")


def test_verdict_persisted(tmp_path):
    spec = spec_for_tests()
    path = record_run(spec, tmp_path / "bad", source="chaos",
                      verdict={"ok": False, "violations": ["x"]})
    bundle = ReplayBundle.load(path)
    assert bundle.verdict == {"ok": False, "violations": ["x"]}
    assert json.loads((path / "verdict.json").read_text())["ok"] is False
