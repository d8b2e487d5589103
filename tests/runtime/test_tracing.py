"""Tests for execution tracing and hold diagnosis."""

import ast
import hashlib
import inspect
from pathlib import Path

import pytest

import repro
from repro.apps.wordcount import birth_of, build_wordcount_app, sentence_factory
from repro.core.component import Component, on_message
from repro.core.cost import fixed_cost
from repro.core.message import DataMessage, SilenceAdvance
from repro.core.scheduler import ComponentRuntime
from repro.core.silence_policy import LazySilencePolicy
from repro.runtime.app import Deployment
from repro.runtime.engine import EngineConfig, ExecutionEngine
from repro.runtime.failure import FailureInjector
from repro.runtime.placement import Placement, single_engine_placement
from repro.runtime.tracing import (
    ExecutionTracer,
    TraceEvent,
    explain_hold,
    render_hold_report,
)
from repro.runtime.transport import LinkParams
from repro.sim.distributions import Constant
from repro.sim.jitter import NormalTickJitter
from repro.sim.kernel import ms, seconds, us

from tests.helpers import Hub, wire

#: SHA-256 of ``ExecutionTracer.dump(path)`` after 100 ms of
#: ``two_engine_deployment(policy_factory=LazySilencePolicy)``: 775
#: events, of which 359 dispatch, 357 complete and 59 hold.
LAZY_TRACE_DIGEST = (
    "60906973bf0eaae527f9bc26f75afcb7eaf7532d1f39c98de3748aae08f2a600")


def traced_deployment(seed=0):
    app = build_wordcount_app(2)
    dep = Deployment(app, single_engine_placement(app.component_names()),
                     engine_config=EngineConfig(jitter=NormalTickJitter()),
                     control_delay=us(10), birth_of=birth_of,
                     master_seed=seed)
    factory = sentence_factory()
    for i in (1, 2):
        dep.add_poisson_producer(f"ext{i}", factory, mean_interarrival=ms(1))
    return dep


def two_engine_deployment(**config):
    """Wordcount with the merger alone on E2 (the failover tests' layout)."""
    app = build_wordcount_app(2)
    dep = Deployment(
        app, Placement({"sender1": "E1", "sender2": "E1", "merger": "E2"}),
        engine_config=EngineConfig(jitter=NormalTickJitter(),
                                   checkpoint_interval=ms(50), **config),
        default_link=LinkParams(delay=Constant(us(100))),
        control_delay=us(10), birth_of=birth_of,
    )
    factory = sentence_factory()
    for i in (1, 2):
        dep.add_poisson_producer(f"ext{i}", factory, mean_interarrival=ms(1))
    return dep


class TestExecutionTracer:
    def test_records_dispatch_and_complete(self):
        dep = traced_deployment()
        tracer = ExecutionTracer()
        tracer.attach(dep)
        dep.run(until=ms(30))
        dispatches = tracer.events(kind="dispatch")
        completes = tracer.events(kind="complete")
        assert len(dispatches) > 20
        assert len(completes) > 20
        assert {e.component for e in dispatches} >= {"sender1", "merger"}

    def test_filtering(self):
        dep = traced_deployment()
        tracer = ExecutionTracer()
        tracer.attach(dep)
        dep.run(until=ms(30))
        merger_only = tracer.events(component="merger")
        assert merger_only
        assert all(e.component == "merger" for e in merger_only)

    def test_capacity_bound(self):
        tracer = ExecutionTracer(capacity=10)
        for i in range(25):
            tracer.record(TraceEvent(i, "c", "dispatch"))
        assert len(tracer) == 10
        assert tracer.events()[0].real_time == 15

    def test_dump_renders(self):
        dep = traced_deployment()
        tracer = ExecutionTracer()
        tracer.attach(dep)
        dep.run(until=ms(10))
        text = tracer.dump(limit=5)
        assert "dispatch" in text or "complete" in text

    def test_tracing_does_not_perturb_execution(self):
        plain = traced_deployment()
        plain.run(until=ms(200))
        traced = traced_deployment()
        ExecutionTracer().attach(traced)
        traced.run(until=ms(200))
        want = [(s, p["total"]) for s, _v, p, _t in
                plain.consumer("sink").effective_outputs]
        got = [(s, p["total"]) for s, _v, p, _t in
               traced.consumer("sink").effective_outputs]
        assert got == want

    def test_monotonic_index_assigned_on_record(self):
        tracer = ExecutionTracer(capacity=10)
        for i in range(25):
            tracer.record(TraceEvent(i, "c", "dispatch"))
        indices = [e.index for e in tracer.events()]
        # The ring dropped the first 15 events, but indices keep
        # counting: post-hoc order survives eviction.
        assert indices == list(range(15, 25))

    def test_dump_load_roundtrip(self, tmp_path):
        dep = traced_deployment()
        tracer = ExecutionTracer()
        tracer.attach(dep)
        dep.run(until=ms(20))
        path = tmp_path / "trace.bin"
        tracer.dump(path=str(path))
        loaded = ExecutionTracer.load(str(path))
        assert loaded.capacity == tracer.capacity
        assert loaded.events() == tracer.events()
        # A reloaded tracer keeps numbering where the original left off.
        loaded.record(TraceEvent(0, "x", "dispatch"))
        assert loaded.events()[-1].index == tracer._next_index

    def test_load_rejects_unknown_format(self, tmp_path):
        from repro.errors import TartError
        from repro.runtime import checkpoint as cpser

        path = tmp_path / "bad.bin"
        path.write_bytes(cpser.dumps({"format": 99, "capacity": 1,
                                      "next_index": 0, "events": []}))
        with pytest.raises(TartError):
            ExecutionTracer.load(str(path))

    def test_holds_recorded_under_lazy_policy(self):
        app = build_wordcount_app(2)
        dep = Deployment(app,
                         single_engine_placement(app.component_names()),
                         engine_config=EngineConfig(
                             jitter=NormalTickJitter(),
                             policy_factory=LazySilencePolicy),
                         control_delay=us(10), birth_of=birth_of)
        tracer = ExecutionTracer()
        tracer.attach(dep)
        factory = sentence_factory()
        for i in (1, 2):
            dep.add_poisson_producer(f"ext{i}", factory,
                                     mean_interarrival=ms(1))
        dep.run(until=ms(100))
        assert tracer.events(component="merger", kind="hold")

    def test_lazy_trace_dump_is_golden(self, tmp_path):
        # Pins the hold / dispatch / complete events in count, order and
        # content, whatever mechanism delivers them to the tracer.
        dep = two_engine_deployment(policy_factory=LazySilencePolicy)
        tracer = ExecutionTracer()
        tracer.attach(dep)
        dep.run(until=ms(100))
        counts = {kind: len(tracer.events(kind=kind))
                  for kind in ("dispatch", "complete", "hold")}
        assert len(tracer) == 775
        assert counts == {"dispatch": 359, "complete": 357, "hold": 59}
        path = tmp_path / "trace.bin"
        tracer.dump(path=str(path))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == LAZY_TRACE_DIGEST

    def test_follows_a_promoted_engine(self):
        dep = two_engine_deployment()
        tracer = ExecutionTracer(capacity=100_000)
        tracer.attach(dep)
        FailureInjector(dep).kill_engine("E2", at=ms(500),
                                         detection_delay=ms(2))
        dep.run(until=seconds(1))
        assert dep.recovery.failover_count() == 1
        merger = tracer.events(component="merger", kind="dispatch")
        assert any(e.real_time < ms(500) for e in merger)
        assert any(e.real_time > ms(500) for e in merger)


def test_no_method_of_a_runtime_engine_or_deployment_is_reassigned():
    """Observers ride ``ComponentRuntime.observers``; nothing in the
    package may patch a method on another object to see an event."""
    methods = {name
               for cls in (ComponentRuntime, ExecutionEngine, Deployment)
               for name, _ in inspect.getmembers(cls, inspect.isfunction)}
    root = Path(repro.__file__).parent
    patched = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and node.attr in methods
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id == "self")):
                patched.append(
                    f"{path.relative_to(root)}:{node.lineno} .{node.attr}")
    assert patched == []


class Recorder(Component):
    def setup(self):
        self.seen = self.state.value("seen", [])

    @on_message("input", cost=fixed_cost(us(100)))
    def handle(self, payload):
        self.seen.set(self.seen.get() + [payload])


class TestExplainHold:
    def _held_merger(self):
        hub = Hub()
        merger = hub.add(Recorder("m"), policy=LazySilencePolicy())
        hub.connect(wire(1, "data", dst="m"), None, "m")
        hub.connect(wire(2, "data", dst="m"), None, "m")
        return hub, merger

    def test_idle_component(self):
        hub, merger = self._held_merger()
        report = explain_hold(merger)
        assert not report["holding"]
        assert "no pending" in report["reason"]
        assert "idle" in render_hold_report(report) or "no pending" in \
            render_hold_report(report)

    def test_holding_identifies_blockers(self):
        hub, merger = self._held_merger()
        merger.on_data(DataMessage(1, 0, us(100), "x"))
        report = explain_hold(merger)
        assert report["holding"]
        assert report["candidate"]["wire"] == 1
        (blocker,) = report["blocking_wires"]
        assert blocker["wire"] == 2
        assert blocker["shortfall"] == us(100) + 1
        text = render_hold_report(report)
        assert "HOLDING" in text and "wire 2" in text

    def test_dispatchable_candidate(self):
        hub, merger = self._held_merger()
        merger.on_silence(SilenceAdvance(2, us(1_000)))
        merger.on_data(DataMessage(1, 0, us(100), "x"))
        hub.run()  # processes
        merger.on_data(DataMessage(1, 1, us(2_000), "held-again?"))
        report = explain_hold(merger)
        # Wire 2's horizon (1ms) is below 2ms: held again.
        assert report["holding"]

    def test_busy_component_reported(self):
        hub, merger = self._held_merger()
        merger.on_silence(SilenceAdvance(2, us(1_000)))
        merger.on_data(DataMessage(1, 0, us(100), "x"))
        assert merger.busy_info is not None
        report = explain_hold(merger)
        assert report["busy"]
        assert "executing" in render_hold_report(report)

    def test_candidate_carries_repcl_when_tracer_attached(self):
        from repro.vt.repcl import ReplayClockTracer

        hub, merger = self._held_merger()
        ReplayClockTracer().attach_runtime(merger, "e0")
        merger.on_data(DataMessage(1, 0, us(100), "x"))
        report = explain_hold(merger)
        assert report["holding"]
        assert set(report["candidate"]["repcl"]) == {"e", "o", "c"}
        text = render_hold_report(report)
        assert "candidate repcl" in text

    def test_json_render_is_machine_readable(self):
        import json

        hub, merger = self._held_merger()
        merger.on_data(DataMessage(1, 0, us(100), "x"))
        report = explain_hold(merger)
        doc = json.loads(render_hold_report(report, as_json=True))
        assert doc["holding"] is True
        assert doc["candidate"]["wire"] == 1
        assert doc["blocking_wires"][0]["wire"] == 2
