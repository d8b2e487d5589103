"""Divergence-auditor tests: detect, heal, raise, defer — in a real
pipeline deployment, with untracked corruption injected mid-run.

Also covers the bounded mid-call checkpoint retry (``checkpoint.retries``
/ ``checkpoint.stalls``) that keeps a stuck component from turning the
checkpoint timer into a silent hot loop.
"""

import types

import pytest

from repro.apps.callgraph import build_callgraph_app, request_factory
from repro.apps.pipeline import build_pipeline_app, reading_factory
from repro.apps.wordcount import birth_of
from repro.core.message import DataMessage
from repro.errors import DivergenceError, StateError
from repro.runtime import checkpoint as cpser
from repro.runtime.app import Deployment
from repro.runtime.audit import CORRUPTION_KEY, corrupt_component_state
from repro.runtime.engine import CHECKPOINT_MAX_RETRIES, EngineConfig
from repro.runtime.placement import Placement
from repro.runtime.transport import LinkParams
from repro.sim.distributions import Constant
from repro.sim.kernel import ms, us

from tests.helpers import shipped_kinds


def build(audit="heal", audit_every=1, master_seed=7):
    """Pipeline on two engines; parser+enricher share the audited one."""
    app = build_pipeline_app(window=5)
    dep = Deployment(
        app,
        Placement({"parser": "E1", "enricher": "E1", "aggregator": "E2"}),
        engine_config=EngineConfig(checkpoint_interval=ms(10),
                                   audit=audit, audit_every=audit_every),
        master_seed=master_seed,
        birth_of=birth_of,
    )
    dep.add_poisson_producer("readings", reading_factory(),
                             mean_interarrival=ms(1))
    return dep


class TestCleanRuns:
    def test_clean_run_audits_clean(self):
        dep = build(audit="heal")
        dep.run(until=ms(200))
        auditor = dep.engine("E1").auditor
        assert auditor.checks > 5
        assert auditor.divergences == 0
        assert auditor.heals == 0
        assert dep.engine("E1").incarnation_epoch == 0
        assert dep.metrics.counter("audit.checks") == (
            dep.engine("E1").auditor.checks
            + dep.engine("E2").auditor.checks
        )

    def test_raise_mode_is_quiet_without_corruption(self):
        dep = build(audit="raise")
        dep.run(until=ms(200))
        assert dep.engine("E1").auditor.divergences == 0

    def test_audit_every_thins_the_checks(self):
        dep = build(audit="heal", audit_every=3)
        dep.run(until=ms(200))
        engine = dep.engine("E1")
        assert engine.auditor.checks >= 1
        assert engine.auditor.checks <= engine._cp_seq // 3 + 1


class TestHealMode:
    def test_untracked_corruption_detected_and_healed(self):
        dep = build(audit="heal")
        dep.run(until=ms(50))
        planted = corrupt_component_state(dep.engine("E1"), "enricher")
        assert planted == "enricher.devices"
        assert CORRUPTION_KEY in dep.runtime("enricher").component.devices
        dep.run(until=ms(200))
        auditor = dep.engine("E1").auditor
        assert auditor.divergences == 1
        assert auditor.heals == 1
        assert dep.engine("E1").incarnation_epoch == 1
        assert dep.metrics.counter("audit.heals") == 1
        assert dep.metrics.counter("audit.healed_components") == 1
        # The foreign key is gone from live state after the heal.
        assert CORRUPTION_KEY not in dep.runtime("enricher").component.devices

    def test_healed_run_is_byte_identical_to_clean_twin(self):
        clean = build(audit="heal")
        clean.run(until=ms(250))
        healed = build(audit="heal")
        healed.run(until=ms(50))
        corrupt_component_state(healed.engine("E1"), "enricher")
        healed.run(until=ms(250))
        assert healed.engine("E1").auditor.heals == 1
        assert cpser.dumps(healed.consumer("sink").payloads()) == \
            cpser.dumps(clean.consumer("sink").payloads())

    def test_heal_restarts_chain_so_replica_rebuild_matches_live(self):
        # After a heal the next capture is forced FULL, so the shipped
        # chain restarts from healed state: the replica's materialized
        # view must equal the live engine at the capture boundary.
        dep = build(audit="heal")
        dep.run(until=ms(50))
        corrupt_component_state(dep.engine("E1"), "enricher")
        dep.run(until=ms(120))
        # Step past the 10ms tick grid so no scheduled capture races the
        # manual one inside the short delivery window below.
        dep.run(until=ms(123))
        engine = dep.engine("E1")
        assert engine.auditor.heals == 1
        cp_seq = engine.capture_checkpoint()
        live = {name: rt.snapshot(incremental=False)
                for name, rt in engine.runtimes.items()}
        dep.run(until=dep.sim.now + ms(2))  # let the blob reach the replica
        replica = dep.followers["E1"][0]
        assert replica.last_cp_seq == cp_seq
        assert cpser.dumps(replica.materialize()) == cpser.dumps(live)

    def test_a_heal_is_followed_by_exactly_one_full_capture(self):
        dep = build(audit="heal")
        kinds = shipped_kinds(dep.followers["E1"][0])
        dep.run(until=ms(50))
        corrupt_component_state(dep.engine("E1"), "enricher")
        dep.run(until=ms(300))
        engine = dep.engine("E1")
        assert engine.auditor.heals == 1
        full = [seq for seq, inc in kinds if not inc]
        assert len(full) == 2 and full[0] == 1
        assert len(kinds) > 25

    def test_value_cell_fallback_corruption_also_healed(self):
        # A flipped ValueCell is only *detectable* while the cell is
        # quiescent: once the component writes it again, the corruption
        # becomes tracked computation and ships in the next delta (the
        # documented detection limit).  So: drain traffic, then corrupt.
        app = build_pipeline_app(window=5)
        dep = Deployment(
            app,
            Placement({"parser": "E1", "enricher": "E1",
                       "aggregator": "E2"}),
            engine_config=EngineConfig(checkpoint_interval=ms(10),
                                       audit="heal"),
            master_seed=7, birth_of=birth_of,
        )
        dep.add_poisson_producer("readings", reading_factory(),
                                 mean_interarrival=ms(1), max_messages=40)
        dep.run(until=ms(100))  # workload finished and drained
        planted = corrupt_component_state(dep.engine("E1"), "parser")
        assert planted.startswith("parser.")
        dep.run(until=ms(200))
        assert dep.engine("E1").auditor.heals == 1


class TestRaiseMode:
    def test_corruption_raises_structured_divergence_error(self):
        dep = build(audit="raise")
        dep.run(until=ms(50))
        corrupt_component_state(dep.engine("E1"), "enricher")
        with pytest.raises(DivergenceError) as exc_info:
            dep.run(until=ms(200))
        err = exc_info.value
        assert err.engine_id == "E1"
        assert err.components == ("enricher",)
        assert err.cp_seq >= 0
        assert dep.engine("E1").auditor.divergences == 1
        assert dep.engine("E1").auditor.heals == 0


class TestDeferredHeal:
    def test_heal_deferred_while_handler_in_flight(self):
        dep = build(audit="heal")
        dep.run(until=ms(50))
        engine = dep.engine("E1")
        corrupt_component_state(engine, "enricher")
        rt = dep.runtime("parser")
        # A busy single-segment handler: busy_info set, mid_call False.
        wid = next(iter(rt.in_wires))
        rt._busy = types.SimpleNamespace(
            generator=None, awaiting_reply=False,
            message=DataMessage(wid, 999_999, dep.sim.now, {"x": 1}),
        )
        try:
            assert engine.auditor.audit_once() == "deferred"
        finally:
            rt._busy = None
        assert engine.auditor.deferred == 1
        assert engine.auditor.heals == 0
        # Detection stood; once the handler clears, the heal lands.
        assert engine.auditor.audit_once() == "healed"
        assert engine.auditor.heals == 1

    def test_a_deferred_heal_ships_no_full_capture(self):
        dep = build(audit="heal")
        kinds = shipped_kinds(dep.followers["E1"][0])
        # Step off the 10ms tick grid: only the ticks driven below run
        # until the next multiple of 10ms.
        dep.run(until=ms(53))
        engine = dep.engine("E1")
        corrupt_component_state(engine, "enricher")
        rt = dep.runtime("parser")
        wid = next(iter(rt.in_wires))
        rt._busy = types.SimpleNamespace(
            generator=None, awaiting_reply=False,
            message=DataMessage(wid, 999_999, dep.sim.now, {"x": 1}),
        )
        try:
            for _ in range(4):
                engine._checkpoint_tick()
        finally:
            rt._busy = None
        dep.run(until=ms(56))
        assert engine.auditor.deferred == 4
        assert engine.auditor.heals == 0
        assert [seq for seq, inc in kinds if not inc] == [1]
        assert kinds[-4:] == [(seq, True) for seq in
                              range(engine._cp_seq - 3, engine._cp_seq + 1)]
        # The next boundary heals, and that capture is full.
        dep.run(until=ms(200))
        assert engine.auditor.heals == 1
        assert len([seq for seq, inc in kinds if not inc]) == 2


class TestCorruptComponentState:
    def test_unknown_component_raises(self):
        dep = build(audit="heal")
        dep.run(until=ms(20))
        with pytest.raises(StateError):
            corrupt_component_state(dep.engine("E1"), "ghost")

    def test_counts_corruptions_metric(self):
        dep = build(audit="heal")
        dep.run(until=ms(20))
        corrupt_component_state(dep.engine("E1"), "enricher")
        assert dep.metrics.counter("chaos.corruptions") == 1


class TestCheckpointRetryCap:
    def test_stuck_mid_call_counts_retries_then_stalls(self):
        # A 100ms round trip (2 x 50ms links) pins the frontend mid-call
        # across many 1ms checkpoint intervals: retries must be counted
        # and capped into stalls, never a silent hot loop.
        app = build_callgraph_app()
        dep = Deployment(
            app, Placement({"frontend": "E1", "directory": "E2"}),
            engine_config=EngineConfig(checkpoint_interval=ms(1)),
            default_link=LinkParams(delay=Constant(ms(50))),
            control_delay=us(5), birth_of=birth_of,
        )
        dep.start()
        dep.ingress("requests").offer({"key": "k", "birth": 0})
        dep.run(until=ms(60))
        assert dep.runtime("frontend").mid_call
        assert (dep.metrics.counter("checkpoint.retries")
                >= CHECKPOINT_MAX_RETRIES)
        assert dep.metrics.counter("checkpoint.stalls") >= 1
        # Once the call completes, checkpoints flow again.
        dep.run(until=ms(250))
        assert not dep.runtime("frontend").mid_call
        assert dep.metrics.counter("checkpoints_captured") > 0
