"""Unit tests for engine-level behaviour: checkpoints, acks, re-tuning."""

import pytest

from repro.apps.wordcount import birth_of, build_wordcount_app, sentence_factory
from repro.core.estimators import LinearEstimator
from repro.apps.wordcount import make_merger_class, make_sender_class
from repro.errors import RecoveryError, TransportError
from repro.runtime.app import Deployment
from repro.runtime.engine import EngineConfig
from repro.runtime.placement import Placement, single_engine_placement
from repro.runtime.transport import LinkParams
from repro.sim.distributions import Constant
from repro.sim.jitter import NormalTickJitter
from repro.sim.kernel import ms, seconds, us


def make_deployment(checkpoint_interval=ms(20), duration=None, seed=0,
                    sender_class=None, config_kwargs=None,
                    producers=True):
    app = build_wordcount_app(
        2, sender_class or make_sender_class(), make_merger_class())
    config = EngineConfig(
        jitter=NormalTickJitter(),
        checkpoint_interval=checkpoint_interval,
        **(config_kwargs or {}),
    )
    dep = Deployment(
        app, Placement({"sender1": "E1", "sender2": "E1", "merger": "E2"}),
        engine_config=config,
        default_link=LinkParams(delay=Constant(us(50))),
        control_delay=us(5), birth_of=birth_of, master_seed=seed,
    )
    if producers:
        factory = sentence_factory()
        for i in (1, 2):
            dep.add_poisson_producer(f"ext{i}", factory,
                                     mean_interarrival=ms(1))
    return dep


class TestCheckpointing:
    def test_periodic_capture_and_ack(self):
        dep = make_deployment(checkpoint_interval=ms(20))
        dep.run(until=ms(200))
        captured = dep.metrics.counter("checkpoints_captured")
        stable = dep.metrics.counter("checkpoints_stable")
        # Two engines, ~10 intervals each.
        assert captured >= 14
        assert stable >= captured - 4  # acks lag slightly
        assert dep.metrics.accumulator("checkpoint_bytes") > 0

    def test_first_checkpoint_full_then_incremental(self):
        dep = make_deployment(checkpoint_interval=ms(20))
        replica = dep.followers["E1"][0]
        dep.run(until=ms(100))
        chain = replica._chain
        assert chain[0][1] is False        # full base
        assert any(inc for _, inc, _ in chain[1:])  # deltas follow

    def test_full_checkpoint_every_n(self):
        dep = make_deployment(checkpoint_interval=ms(10),
                              config_kwargs={"full_checkpoint_every": 4})
        dep.run(until=ms(200))
        # Chain resets on each full checkpoint: its length stays < 4 + 1.
        assert 1 <= len(dep.followers["E1"][0]._chain) <= 4

    def test_stable_ack_trims_retained_buffers(self):
        dep = make_deployment(checkpoint_interval=ms(10))
        dep.run(until=seconds(1))
        sender_runtime = dep.runtime("sender1")
        wire_id = next(iter(sender_runtime.out_senders))
        retained = sender_runtime.out_senders[wire_id].retained_count()
        sent = sender_runtime.out_senders[wire_id].next_seq
        # Without trimming, retained == sent (hundreds); with stable
        # notices it stays a small tail.
        assert sent > 300
        assert retained < 60

    def test_stable_notice_truncates_external_log(self):
        dep = make_deployment(checkpoint_interval=ms(10))
        dep.run(until=seconds(1))
        log = dep.ingress("ext1").log
        assert log.truncated_through > 100

    def test_checkpointing_requires_replica(self):
        app = build_wordcount_app(1)
        dep = Deployment(app,
                         single_engine_placement(app.component_names()),
                         engine_config=EngineConfig(checkpoint_interval=ms(10)))
        # Deployment always assigns replica ids, so start() succeeds; but
        # an engine configured manually without one must refuse.
        import dataclasses

        engine = dep.engine("engine0")
        engine.config = dataclasses.replace(engine.config, replica_ids=())
        with pytest.raises(RecoveryError):
            engine.start()

    def test_no_checkpointing_when_disabled(self):
        dep = make_deployment(checkpoint_interval=None)
        dep.run(until=ms(100))
        assert dep.metrics.counter("checkpoints_captured") == 0
        # Without checkpoints there is no replay source, so retention is
        # disabled to bound memory.
        sender_runtime = dep.runtime("sender1")
        wire_id = next(iter(sender_runtime.out_senders))
        assert sender_runtime.out_senders[wire_id].retained_count() == 0


class TestReceiveDispatch:
    def test_unknown_wire_rejected(self):
        from repro.core.message import DataMessage, ReplayRequest

        dep = make_deployment(producers=False)
        engine = dep.engine("E1")
        with pytest.raises(TransportError):
            engine.receive(DataMessage(999, 0, 10, "x"))
        with pytest.raises(TransportError):
            engine.receive(ReplayRequest(999, 0))
        with pytest.raises(TransportError):
            engine.receive("garbage")

    def test_dead_engine_ignores_traffic(self):
        from repro.core.message import DataMessage

        dep = make_deployment(producers=False)
        engine = dep.engine("E1")
        engine.halt()
        engine.receive(DataMessage(999, 0, 10, "x"))  # no error: dropped


class TestDynamicRetuning:
    def test_drift_triggers_determinism_fault(self):
        bad = make_sender_class(
            per_iteration_true=us(60),
            estimator=LinearEstimator({"loop": us(100)}),
        )
        dep = make_deployment(
            sender_class=bad,
            config_kwargs={"calibrate": True, "drift_window": 50,
                           "recalibrate_cooldown_samples": 100},
        )
        dep.run(until=seconds(1))
        assert dep.metrics.counter("determinism_faults") >= 1
        assert len(dep.fault_logs["E1"]) >= 1
        # The installed estimator approximates the physical truth.
        runtime = dep.runtime("sender1")
        wire = next(w for w in runtime.in_wires.values() if w.external)
        latest = wire.handler_spec.cost.estimator.revisions()[-1][1]
        assert latest.estimate({"loop": 10}) == pytest.approx(us(600),
                                                              rel=0.05)

    def test_accurate_estimator_never_recalibrates(self):
        dep = make_deployment(
            config_kwargs={"calibrate": True, "drift_window": 50,
                           "recalibrate_cooldown_samples": 100},
        )
        dep.run(until=seconds(1))
        assert dep.metrics.counter("determinism_faults") == 0
