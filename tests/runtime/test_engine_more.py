"""Additional engine coverage: wiring validation, mid-call checkpoint
deferral, reply-wire silence handling, failover plumbing details."""

import pytest

from repro.apps.callgraph import build_callgraph_app, request_factory
from repro.apps.wordcount import birth_of, build_wordcount_app, sentence_factory
from repro.core.message import SilenceAdvance
from repro.errors import WiringError
from repro.runtime.app import Deployment
from repro.runtime.engine import EngineConfig
from repro.runtime.failure import FailureInjector
from repro.runtime.placement import Placement, single_engine_placement
from repro.runtime.transport import LinkParams
from repro.sim.distributions import Constant
from repro.sim.jitter import NormalTickJitter
from repro.sim.kernel import ms, seconds, us


class TestWiringValidation:
    def test_unknown_port_rejected(self):
        from repro.core.ports import WireSpec
        from repro.core.estimators import CommDelayEstimator

        app = build_wordcount_app(1)
        dep = Deployment(app, single_engine_placement(app.component_names()))
        engine = dep.engine("engine0")
        bad = WireSpec(99, "data", "sender1", "no_such_port", "merger",
                       "input", CommDelayEstimator(0))
        with pytest.raises(WiringError):
            engine.wire_out("sender1", bad, "no_such_port")

    def test_reply_in_requires_service_port(self):
        from repro.core.ports import WireSpec
        from repro.core.estimators import CommDelayEstimator

        app = build_wordcount_app(1)
        dep = Deployment(app, single_engine_placement(app.component_names()))
        engine = dep.engine("engine0")
        bad = WireSpec(98, "reply", "merger", None, "sender1", None,
                       CommDelayEstimator(0))
        with pytest.raises(WiringError):
            engine.wire_reply_in("sender1", bad, "port1")

    def test_duplicate_component_rejected(self):
        from repro.apps.wordcount import WordCountSender

        app = build_wordcount_app(1)
        dep = Deployment(app, single_engine_placement(app.component_names()))
        with pytest.raises(WiringError):
            dep.engine("engine0").add_component(WordCountSender("sender1"))

    def test_unknown_engine_mode_rejected(self):
        import dataclasses

        from repro.apps.wordcount import WordCountSender

        app = build_wordcount_app(1)
        dep = Deployment(app, single_engine_placement(app.component_names()))
        engine = dep.engine("engine0")
        engine.config = dataclasses.replace(engine.config, mode="quantum")
        with pytest.raises(WiringError):
            engine.add_component(WordCountSender("another"))


class TestMidCallCheckpointDeferral:
    def test_checkpoints_still_happen_despite_frequent_calls(self):
        # The frontend spends ~40% of its time suspended on calls (200us
        # RTT per 500us request); mid-call captures must defer and retry,
        # yet checkpoints keep flowing.
        app = build_callgraph_app()
        dep = Deployment(
            app, Placement({"frontend": "E1", "directory": "E2"}),
            engine_config=EngineConfig(jitter=NormalTickJitter(),
                                       checkpoint_interval=ms(10)),
            default_link=LinkParams(delay=Constant(us(100))),
            control_delay=us(5), birth_of=birth_of,
        )
        dep.add_poisson_producer("requests", request_factory(),
                                 mean_interarrival=us(500))
        dep.run(until=ms(300))
        captured = dep.metrics.counter("checkpoints_captured")
        assert captured >= 40  # two engines, ~30 intervals each
        assert dep.followers["E1"][0].has_checkpoint
        assert dep.followers["E2"][0].has_checkpoint

    def test_explicit_mid_call_capture_raises(self):
        from repro.errors import SchedulingError

        app = build_callgraph_app()
        dep = Deployment(
            app, Placement({"frontend": "E1", "directory": "E2"}),
            engine_config=EngineConfig(jitter=NormalTickJitter(),
                                       checkpoint_interval=seconds(10)),
            default_link=LinkParams(delay=Constant(us(200))),
            control_delay=us(5), birth_of=birth_of,
        )
        dep.start()
        dep.ingress("requests").offer({"key": "k", "birth": 0})
        dep.run(until=us(120))  # call in flight, frontend suspended
        frontend = dep.runtime("frontend")
        assert frontend.mid_call
        with pytest.raises(SchedulingError):
            dep.engine("E1").capture_checkpoint()


class TestReplyWireSilence:
    def test_silence_on_reply_wire_dropped_quietly(self):
        app = build_callgraph_app()
        dep = Deployment(
            app, Placement({"frontend": "E1", "directory": "E2"}),
            engine_config=EngineConfig(),
            birth_of=birth_of,
        )
        reply_wire = next(
            wid for wid in dep.router.wire_ids()
            if dep.router.spec(wid).kind == "reply"
        )
        # Must not raise even though reply wires are not in silence maps.
        dep.engine("E1").receive(SilenceAdvance(reply_wire, 10**9))


class TestFailoverPlumbing:
    def test_runtime_accessor_follows_failover(self):
        app = build_wordcount_app(2)
        dep = Deployment(
            app, Placement({"sender1": "E1", "sender2": "E1",
                            "merger": "E2"}),
            engine_config=EngineConfig(jitter=NormalTickJitter(),
                                       checkpoint_interval=ms(30)),
            default_link=LinkParams(delay=Constant(us(50))),
            control_delay=us(5), birth_of=birth_of,
        )
        factory = sentence_factory()
        for i in (1, 2):
            dep.add_poisson_producer(f"ext{i}", factory,
                                     mean_interarrival=ms(1))
        before = dep.runtime("merger")
        FailureInjector(dep).kill_engine("E2", at=ms(200),
                                         detection_delay=ms(2))
        dep.run(until=ms(400))
        after = dep.runtime("merger")
        assert after is not before
        assert after.component_vt > 0  # restored and progressing

    def test_checkpoint_seq_continues_across_failover(self):
        app = build_wordcount_app(2)
        dep = Deployment(
            app, Placement({"sender1": "E1", "sender2": "E1",
                            "merger": "E2"}),
            engine_config=EngineConfig(jitter=NormalTickJitter(),
                                       checkpoint_interval=ms(30)),
            default_link=LinkParams(delay=Constant(us(50))),
            control_delay=us(5), birth_of=birth_of,
        )
        factory = sentence_factory()
        for i in (1, 2):
            dep.add_poisson_producer(f"ext{i}", factory,
                                     mean_interarrival=ms(1))
        FailureInjector(dep).kill_engine("E2", at=ms(200),
                                         detection_delay=ms(2))
        dep.run(until=ms(600))
        replica = dep.followers["E2"][0]
        # Checkpoints kept flowing after failover, with increasing seqs.
        assert replica.last_cp_seq >= 10
