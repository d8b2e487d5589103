"""Unit tests for the replay-budget cadence controller.

Covers the control law (budget minus fixed overheads), hysteresis,
clamping, the ``cadence.*`` gauge exports, the EngineConfig validation
that guards the budget, and the claim that adaptation cannot perturb
deterministic replay.
"""

import dataclasses

import pytest

from repro.chaos.schedule import generate_schedule
from repro.errors import RecoveryError
from repro.net.topology import (
    pipeline_spec,
    simulated_twin,
    twin_horizon,
)
from repro.runtime.cadence import CLAMP, CadenceController
from repro.runtime.engine import EngineConfig
from repro.runtime.metrics import MetricSet
from repro.sim.kernel import ms
from repro.tools.verify_determinism import streams_of


class TestRecoveryTarget:
    def test_rejects_non_positive_budgets(self):
        with pytest.raises(RecoveryError):
            CadenceController(0, base_interval=ms(10))
        with pytest.raises(ValueError):
            EngineConfig(checkpoint_interval=ms(10), recovery_target=0)
        with pytest.raises(ValueError):
            EngineConfig(checkpoint_interval=ms(10), recovery_target=-ms(5))


class TestCadenceController:
    def test_interval_fills_budget_minus_overheads(self):
        ctl = CadenceController(ms(40), base_interval=ms(10),
                                detect_ticks=ms(6))
        ctl.observe_ack(ms(2))
        assert ctl.next_interval() == ms(40) - ms(6) - ms(2)
        # The worst case implied by the chosen interval meets the budget.
        assert ctl.predicted_replay_ticks() == pytest.approx(ms(40))

    def test_hysteresis_suppresses_small_corrections(self):
        ctl = CadenceController(ms(40), base_interval=ms(36))
        # Desired is 40ms, an ~11% change from 36ms: below hysteresis.
        assert ctl.next_interval() == ms(36)
        assert ctl.adjustments == 0
        # A big overhead shift (desired 20ms, -44%) must be adopted.
        ctl.observe_ack(ms(20))
        assert ctl.next_interval() < ms(36)
        assert ctl.adjustments == 1

    def test_a_correction_back_under_budget_is_always_applied(self):
        # A live cluster's shape: 60 ms budget, 30 ms interval, 29 ms
        # detection and ~1.9 ms of ack lag predict 60.9 ms of replay; the
        # needed cut (~3 %) is under the hysteresis but is taken.
        ctl = CadenceController(60_000_000, base_interval=30_000_000,
                                detect_ticks=29_000_000)
        ctl.observe_ack(1_902_609)
        assert ctl.predicted_replay_ticks() == 60_902_609
        assert ctl.next_interval() == 30_000_000 - 902_609
        assert ctl.predicted_replay_ticks() == 60_000_000
        assert ctl.adjustments == 1

    def test_clamped_to_band_around_base(self):
        ctl = CadenceController(1, base_interval=ms(8))
        assert ctl.next_interval() == ms(8) // CLAMP  # floor of the band
        ctl = CadenceController(ms(10_000), base_interval=ms(8))
        assert ctl.next_interval() == ms(8) * CLAMP  # ceiling of the band

    def test_gauges_exported(self):
        metrics = MetricSet()
        ctl = CadenceController(ms(40), base_interval=ms(10),
                                detect_ticks=ms(6), metrics=metrics)
        ctl.observe_checkpoint(span_ticks=ms(10), messages=50,
                               capture_us=120.0, blob_bytes=4096)
        ctl.next_interval()
        for gauge in ("cadence.interval_ticks", "cadence.budget_ticks",
                      "cadence.detect_ticks", "cadence.ack_lag_ticks",
                      "cadence.predicted_replay_ticks",
                      "cadence.growth_msgs_per_tick",
                      "cadence.predicted_replay_msgs",
                      "cadence.capture_us", "cadence.checkpoint_bytes"):
            assert gauge in metrics.gauges, gauge
        assert metrics.gauge_value("cadence.budget_ticks") == float(ms(40))
        assert metrics.counters.get("cadence.adjustments", 0) == 1
        assert metrics.wall_clock == {"cadence.capture_us"}

    def test_rejects_bad_construction(self):
        with pytest.raises(RecoveryError):
            CadenceController(ms(10), base_interval=0)
        with pytest.raises(RecoveryError):
            CadenceController(ms(10), base_interval=10, detect_ticks=-1)


class TestEngineConfigValidation:
    def test_rejects_non_positive_intervals(self):
        with pytest.raises(ValueError):
            EngineConfig(checkpoint_interval=0)
        with pytest.raises(ValueError):
            EngineConfig(checkpoint_interval=-ms(5))
        with pytest.raises(ValueError):
            EngineConfig(heartbeat_interval=0)
        with pytest.raises(ValueError):
            EngineConfig(heartbeat_miss_limit=0)

    def test_none_still_disables_the_features(self):
        config = EngineConfig(checkpoint_interval=None,
                              heartbeat_interval=None)
        assert config.checkpoint_interval is None

    def test_audit_and_target_require_checkpointing(self):
        with pytest.raises(ValueError):
            EngineConfig(audit="heal")  # no checkpoint_interval
        with pytest.raises(ValueError):
            EngineConfig(recovery_target=ms(10))
        with pytest.raises(ValueError):
            EngineConfig(checkpoint_interval=ms(10), audit="sometimes")
        with pytest.raises(ValueError):
            EngineConfig(checkpoint_interval=ms(10), audit_every=0)
        # Valid combinations construct fine.
        EngineConfig(checkpoint_interval=ms(10), audit="heal",
                     recovery_target=ms(40))


class TestAdaptationKeepsReplayDeterministic:
    """The simulated twin of CI's live ``--kill-active --recovery-target
    60 --audit heal`` step: the controller moves the checkpoint timer and
    nothing else."""

    @staticmethod
    def run(spec, schedule):
        twin = simulated_twin(spec, schedule)
        twin.run(until=twin_horizon(spec, schedule))
        return twin

    @pytest.mark.parametrize("seed", [0, 3])
    def test_a_target_changes_no_stream_and_repeats(self, seed):
        spec = pipeline_spec(messages=160, master_seed=7, replicas=1,
                             recovery_target_ms=60, audit="heal")
        schedule = generate_schedule(seed, spec, "kill_active")
        first = self.run(spec, schedule)
        again = self.run(spec, schedule)
        plain = self.run(dataclasses.replace(spec, recovery_target_ms=None),
                         schedule)
        assert first.metrics.counter("failovers_completed") == 1
        assert first.metrics.counter("cadence.adjustments") >= 1
        assert streams_of(first) == streams_of(plain)
        assert streams_of(first)["sink"]

        dumped = first.metrics.dump_json(wall_clock=False)
        assert dumped == again.metrics.dump_json(wall_clock=False)
        assert "cadence.interval_ticks" in dumped["gauges"]
        # Only measured durations read the wall clock.
        assert first.metrics.wall_clock == {"cadence.capture_us",
                                            "audit.rebuild_us"}
