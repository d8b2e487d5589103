"""Integration tests: failover + replay equals failure-free execution.

This is the paper's correctness criterion made executable: "despite
fail-stop failures ... and link failures ..., the behavior of the
application will be the same as the behavior of some correct execution
of the application in the absence of failure, except for possible output
stutter."  Determinism strengthens "some correct execution" to *the*
execution the deterministic schedule defines, so the effective output
stream must match exactly.
"""

import pytest

from repro.apps.callgraph import build_callgraph_app, request_factory
from repro.apps.pipeline import build_pipeline_app, reading_factory
from repro.apps.wordcount import birth_of, build_wordcount_app, sentence_factory
from repro.core.component import Component, on_message
from repro.core.cost import fixed_cost
from repro.runtime.app import Application, Deployment
from repro.runtime.engine import EngineConfig
from repro.runtime.failure import FailureInjector
from repro.runtime.placement import Placement
from repro.runtime.transport import LinkParams
from repro.sim.distributions import Constant
from repro.sim.jitter import NormalTickJitter
from repro.sim.kernel import ms, seconds, us


def wordcount_deployment(seed=0, checkpoint_interval=ms(50)):
    app = build_wordcount_app(2)
    dep = Deployment(
        app, Placement({"sender1": "E1", "sender2": "E1", "merger": "E2"}),
        engine_config=EngineConfig(jitter=NormalTickJitter(),
                                   checkpoint_interval=checkpoint_interval),
        default_link=LinkParams(delay=Constant(us(100))),
        control_delay=us(10), birth_of=birth_of, master_seed=seed,
    )
    factory = sentence_factory()
    for i in (1, 2):
        dep.add_poisson_producer(f"ext{i}", factory, mean_interarrival=ms(1))
    return dep


def effective(dep, fields=("total", "count", "events")):
    return [
        tuple([seq] + [payload[f] for f in fields])
        for seq, _vt, payload, _t in dep.consumer("sink").effective_outputs
    ]


class TestWordcountFailover:
    def test_merger_engine_failover_identical_output(self):
        faulty = wordcount_deployment()
        FailureInjector(faulty).kill_engine("E2", at=ms(500),
                                            detection_delay=ms(2))
        faulty.run(until=seconds(2))
        clean = wordcount_deployment()
        clean.run(until=seconds(2))
        assert effective(faulty) == effective(clean)
        assert faulty.consumer("sink").stutter > 0  # rollback re-delivered
        assert faulty.recovery.failover_count() == 1

    def test_sender_engine_failover_identical_output(self):
        faulty = wordcount_deployment()
        FailureInjector(faulty).kill_engine("E1", at=ms(500),
                                            detection_delay=ms(2))
        faulty.run(until=seconds(2))
        clean = wordcount_deployment()
        clean.run(until=seconds(2))
        assert effective(faulty) == effective(clean)
        # Duplicates of re-sent sender messages were discarded downstream.
        assert faulty.metrics.counter("duplicates_discarded") > 0

    def test_failover_before_first_checkpoint(self):
        # The replica has nothing: recovery restarts from the initial
        # state and replays everything from the stable logs.  Replaying
        # the whole prefix through the 80%-utilized merger takes a while
        # to drain, so the faulty run trails the clean one: its effective
        # output must be an exact *prefix* that keeps growing.
        faulty = wordcount_deployment(checkpoint_interval=seconds(10))
        FailureInjector(faulty).kill_engine("E2", at=ms(300),
                                            detection_delay=ms(2))
        faulty.run(until=seconds(1))
        clean = wordcount_deployment(checkpoint_interval=seconds(10))
        clean.run(until=seconds(1))
        got, want = effective(faulty), effective(clean)
        assert len(got) > len(want) // 2
        assert got == want[:len(got)]

    def test_two_sequential_failovers(self):
        faulty = wordcount_deployment()
        injector = FailureInjector(faulty)
        injector.kill_engine("E2", at=ms(400), detection_delay=ms(2))
        injector.kill_engine("E1", at=ms(1_200), detection_delay=ms(2))
        faulty.run(until=seconds(2))
        clean = wordcount_deployment()
        clean.run(until=seconds(2))
        assert effective(faulty) == effective(clean)
        assert faulty.recovery.failover_count() == 2

    def test_recovery_metrics_recorded(self):
        dep = wordcount_deployment()
        FailureInjector(dep).kill_engine("E2", at=ms(500),
                                         detection_delay=ms(3))
        dep.run(until=seconds(1))
        assert dep.metrics.counter("engine_failures") == 1
        assert dep.metrics.counter("failovers_completed") == 1
        assert dep.metrics.accumulator("failover_downtime_ticks") >= ms(3)
        history = dep.recovery.history["E2"]
        assert len(history) == 1
        failed_at, active_at = history[0]
        assert active_at - failed_at >= ms(3)

    def test_kill_dead_engine_rejected(self):
        from repro.errors import RecoveryError

        dep = wordcount_deployment()
        injector = FailureInjector(dep)
        injector.kill_engine("E2", at=ms(100), detection_delay=ms(500))
        injector.kill_engine("E2", at=ms(200), detection_delay=ms(1))
        with pytest.raises(RecoveryError):
            dep.run(until=ms(400))


class TestCallgraphFailover:
    def _deployment(self, seed=0):
        app = build_callgraph_app()
        dep = Deployment(
            app, Placement({"frontend": "E1", "directory": "E2"}),
            engine_config=EngineConfig(jitter=NormalTickJitter(),
                                       checkpoint_interval=ms(40)),
            default_link=LinkParams(delay=Constant(us(50))),
            control_delay=us(5), birth_of=birth_of, master_seed=seed,
        )
        dep.add_poisson_producer("requests", request_factory(),
                                 mean_interarrival=ms(2))
        return dep

    def _effective(self, dep):
        return [
            (seq, p["key"], p["resolved"], p["hits"], p["served"])
            for seq, _v, p, _t in dep.consumer("sink").effective_outputs
        ]

    @pytest.mark.parametrize("victim", ["E1", "E2"])
    def test_either_side_of_a_call_can_fail(self, victim):
        faulty = self._deployment()
        FailureInjector(faulty).kill_engine(victim, at=ms(300),
                                            detection_delay=ms(2))
        faulty.run(until=seconds(1))
        clean = self._deployment()
        clean.run(until=seconds(1))
        assert self._effective(faulty) == self._effective(clean)


class TestPipelineFailover:
    def _deployment(self, seed=0):
        app = build_pipeline_app()
        dep = Deployment(
            app,
            Placement({"parser": "E1", "enricher": "E2", "aggregator": "E3"}),
            engine_config=EngineConfig(jitter=NormalTickJitter(),
                                       checkpoint_interval=ms(40)),
            default_link=LinkParams(delay=Constant(us(30))),
            control_delay=us(5), birth_of=birth_of, master_seed=seed,
        )
        dep.add_poisson_producer("readings", reading_factory(),
                                 mean_interarrival=us(500))
        return dep

    def _effective(self, dep):
        return [
            (seq, p["report_no"], p["devices"], p["grand_total"])
            for seq, _v, p, _t in dep.consumer("sink").effective_outputs
        ]

    @pytest.mark.parametrize("victim", ["E1", "E2", "E3"])
    def test_any_stage_can_fail(self, victim):
        faulty = self._deployment()
        FailureInjector(faulty).kill_engine(victim, at=ms(300),
                                            detection_delay=ms(2))
        faulty.run(until=seconds(1))
        clean = self._deployment()
        clean.run(until=seconds(1))
        assert self._effective(faulty) == self._effective(clean)


class TestLinkFaults:
    def test_link_outage_delays_but_loses_nothing(self):
        dep = wordcount_deployment()
        FailureInjector(dep).link_outage("E1", "E2", start=ms(200),
                                         duration=ms(50))
        dep.run(until=seconds(1))
        clean = wordcount_deployment()
        clean.run(until=seconds(1))
        assert effective(dep) == effective(clean)

    def test_steady_link_impairment_masked_by_reliability(self):
        dep = wordcount_deployment()
        FailureInjector(dep).set_link_impairment("E1", "E2",
                                                 loss_prob=0.1, dup_prob=0.1)
        dep.run(until=seconds(1))
        clean = wordcount_deployment()
        clean.run(until=seconds(1))
        # Loss adds retransmission delay, so a couple of tail messages
        # may still be in flight at cutoff; everything delivered matches.
        got, want = effective(dep), effective(clean)
        assert got == want[:len(got)]
        assert len(got) >= len(want) - 5

    def test_outage_plus_engine_failure(self):
        dep = wordcount_deployment()
        injector = FailureInjector(dep)
        injector.link_outage("E1", "E2", start=ms(200), duration=ms(100))
        injector.kill_engine("E2", at=ms(250), detection_delay=ms(2))
        dep.run(until=seconds(2))
        clean = wordcount_deployment()
        clean.run(until=seconds(2))
        assert effective(dep) == effective(clean)


class TestInputAliasing:
    """The stable log keeps each input as it was offered.

    A handler that mutates its input in place must not rewrite the log:
    replay after a failover re-delivers the payload as offered, so the
    replayed handler computes what the first one did.
    """

    def _deployment(self, offered, received):
        class Mutator(Component):
            def setup(self):
                self.out = self.output_port("out")

            @on_message("input", cost=fixed_cost(us(10)))
            def handle(self, payload):
                received.append(dict(payload))
                payload["n"] += 1_000  # in place, on the delivered object
                self.out.send({"n": payload["n"], "birth": payload["birth"]})

        def factory(rng, i, now):
            offered.append({"n": i, "birth": now})
            return {"n": i, "birth": now}

        app = Application("mutate")
        app.add_component("mutator", Mutator)
        app.external_input("in", "mutator", "input")
        app.external_output("mutator", "out", "sink")
        dep = Deployment(app, Placement({"mutator": "E1"}),
                         default_link=LinkParams(delay=Constant(us(100))),
                         control_delay=us(10), birth_of=birth_of)
        dep.add_poisson_producer("in", factory, mean_interarrival=ms(1),
                                 max_messages=200)
        return dep

    def test_a_handler_mutating_its_input_does_not_rewrite_the_log(self):
        offered, received = [], []
        dep = self._deployment(offered, received)
        FailureInjector(dep).kill_host("E1", at=ms(100), promote=True)
        dep.run(until=ms(400))
        log = dep.ingress("in").log
        assert [p for _seq, _vt, p in log.entries_from(0)] == offered
        assert dep.recovery.failover_count() == 1
        # Without a checkpoint the replica replays the log from seq 0:
        # every input it saw, first delivery or replay, was as offered.
        assert len(received) > len(offered)
        assert all(p in offered for p in received)
        clean = self._deployment([], [])
        clean.run(until=ms(400))
        # Same outputs as the failure-free run; only arrival ticks differ.
        got = dep.consumer("sink").effective_outputs
        want = clean.consumer("sink").effective_outputs
        assert [r[:3] for r in got] == [r[:3] for r in want]
