"""Unit tests for engine-level behaviour: checkpoints, acks, re-tuning."""

import pytest

from repro.apps.wordcount import birth_of, build_wordcount_app, sentence_factory
from repro.core.estimators import LinearEstimator
from repro.core.message import CheckpointAck, StableNotice
from repro.apps.wordcount import make_merger_class, make_sender_class
from repro.errors import RecoveryError, TransportError
from repro.runtime.app import Deployment
from repro.runtime.engine import EngineConfig
from repro.runtime.failure import FailureInjector
from repro.runtime.placement import Placement, single_engine_placement
from repro.runtime.transport import LinkParams
from repro.sim.distributions import Constant
from repro.sim.jitter import NormalTickJitter
from repro.sim.kernel import ms, seconds, us

from tests.helpers import shipped_kinds


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
        kinds = shipped_kinds(dep.followers["E1"][0])
        dep.run(until=ms(100))
        assert kinds[0] == (1, False)  # full base
        assert any(inc for _, inc in kinds[1:])  # deltas follow

    def test_only_an_incarnations_first_capture_is_full(self):
        dep = make_deployment(checkpoint_interval=ms(10))
        kinds = {engine_id: shipped_kinds(group[0])
                 for engine_id, group in dep.followers.items()}
        dep.run(until=seconds(1))
        engine = dep.engine("E1")
        for shipped in kinds.values():
            assert len(shipped) > 90
            assert [seq for seq, inc in shipped if not inc] == [1]
        # A promoted engine is a new incarnation: its first capture is
        # full, and only that one.
        del kinds["E1"][:]
        FailureInjector(dep).kill_engine("E1")
        dep.run(until=seconds(2))
        assert dep.engine("E1") is not engine
        full = [seq for seq, inc in kinds["E1"] if not inc]
        assert full == [kinds["E1"][0][0]] and len(kinds["E1"]) > 90

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

    def test_an_ack_names_its_follower(self, monkeypatch):
        # A checkpoint is stable once every follower acked it; an ack
        # that names no follower is none of them and stabilises nothing.
        dep = make_deployment(checkpoint_interval=seconds(10))
        dep.run(until=ms(50))
        engine = dep.engine("E1")
        (follower,) = engine.config.replica_ids
        sent = []
        monkeypatch.setattr(engine, "_send_control",
                            lambda spec, control, toward_src:
                            sent.append(control))
        cp_seq = engine.capture_checkpoint()
        engine.receive(CheckpointAck("E1", cp_seq, replica_id=""))
        assert sent == []
        assert dep.metrics.counter("checkpoints_stable") == 0
        engine.receive(CheckpointAck("E1", cp_seq, replica_id=follower))
        assert sent and all(isinstance(c, StableNotice) for c in sent)
        assert dep.metrics.counter("checkpoints_stable") == 1

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
