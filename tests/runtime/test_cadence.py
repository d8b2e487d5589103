"""Unit tests for the recovery-target cadence controller.

Covers the control law (budget minus fixed overheads), hysteresis,
clamping, wall-clock budgets through the observed replay rate, the
``cadence.*`` gauge exports, and the EngineConfig validation that
guards the new knobs.
"""

import pytest

from repro.errors import RecoveryError
from repro.runtime.cadence import CadenceController, RecoveryTarget
from repro.runtime.engine import EngineConfig
from repro.runtime.metrics import MetricSet
from repro.sim.kernel import ms


class TestRecoveryTarget:
    def test_needs_at_least_one_budget(self):
        with pytest.raises(RecoveryError):
            RecoveryTarget()

    def test_rejects_non_positive_budgets(self):
        with pytest.raises(RecoveryError):
            RecoveryTarget(max_replay_ticks=0)
        with pytest.raises(RecoveryError):
            RecoveryTarget(max_recovery_wall_ms=-1.0)

    def test_rejects_bad_hysteresis_and_clamp(self):
        with pytest.raises(RecoveryError):
            RecoveryTarget(max_replay_ticks=ms(10), hysteresis=1.0)
        with pytest.raises(RecoveryError):
            RecoveryTarget(max_replay_ticks=ms(10), min_interval=0)
        with pytest.raises(RecoveryError):
            RecoveryTarget(max_replay_ticks=ms(10), max_interval=-5)


class TestCadenceController:
    def test_interval_fills_budget_minus_overheads(self):
        target = RecoveryTarget(max_replay_ticks=ms(40), hysteresis=0.0)
        ctl = CadenceController(target, base_interval=ms(10),
                                detect_ticks=ms(6))
        ctl.observe_ack(ms(2))
        assert ctl.next_interval() == ms(40) - ms(6) - ms(2)
        # The worst case implied by the chosen interval meets the budget.
        assert ctl.predicted_replay_ticks() == pytest.approx(ms(40))

    def test_hysteresis_suppresses_small_corrections(self):
        target = RecoveryTarget(max_replay_ticks=ms(40), hysteresis=0.2)
        ctl = CadenceController(target, base_interval=ms(36))
        # Desired is 40ms, an ~11% change from 36ms: below hysteresis.
        assert ctl.next_interval() == ms(36)
        assert ctl.adjustments == 0
        # A big overhead shift (desired 20ms, -44%) must be adopted.
        ctl.observe_ack(ms(20))
        assert ctl.next_interval() < ms(36)
        assert ctl.adjustments == 1

    def test_clamped_to_band_around_base(self):
        tight = RecoveryTarget(max_replay_ticks=1, hysteresis=0.0)
        ctl = CadenceController(tight, base_interval=ms(8))
        assert ctl.next_interval() == ms(8) // 8  # floor of default band
        loose = RecoveryTarget(max_replay_ticks=ms(10_000), hysteresis=0.0)
        ctl = CadenceController(loose, base_interval=ms(8))
        assert ctl.next_interval() == ms(8) * 8  # ceiling of default band

    def test_explicit_clamp_overrides_default_band(self):
        target = RecoveryTarget(max_replay_ticks=ms(10_000),
                                min_interval=ms(1), max_interval=ms(12),
                                hysteresis=0.0)
        ctl = CadenceController(target, base_interval=ms(8))
        assert ctl.next_interval() == ms(12)
        with pytest.raises(RecoveryError):
            CadenceController(
                RecoveryTarget(max_replay_ticks=ms(10), min_interval=10,
                               max_interval=5),
                base_interval=ms(8),
            )

    def test_wall_budget_converts_through_observed_replay_rate(self):
        # 5 ms wall budget at a measured 2 ticks/ms replay rate = 10
        # ticks of replay budget.
        target = RecoveryTarget(max_recovery_wall_ms=5.0, hysteresis=0.0,
                                min_interval=1, max_interval=10**12)
        ctl = CadenceController(target, base_interval=1000,
                                replay_rate_prior_ticks_per_ms=1.0)
        assert ctl._budget_ticks() == pytest.approx(5.0)
        for _ in range(50):  # drive the EWMA to the measured rate
            ctl.observe_replay(span_ticks=20, wall_ms=10.0)
        assert ctl._budget_ticks() == pytest.approx(10.0, rel=0.01)

    def test_tighter_of_two_budgets_governs(self):
        target = RecoveryTarget(max_replay_ticks=ms(3),
                                max_recovery_wall_ms=1e9, hysteresis=0.0)
        ctl = CadenceController(target, base_interval=ms(3))
        assert ctl._budget_ticks() == float(ms(3))

    def test_gauges_exported(self):
        metrics = MetricSet()
        target = RecoveryTarget(max_replay_ticks=ms(40), hysteresis=0.0)
        ctl = CadenceController(target, base_interval=ms(10),
                                detect_ticks=ms(6), metrics=metrics)
        ctl.observe_checkpoint(span_ticks=ms(10), messages=50,
                               capture_us=120.0, blob_bytes=4096)
        ctl.next_interval()
        for gauge in ("cadence.interval_ticks", "cadence.budget_ticks",
                      "cadence.detect_ticks", "cadence.ack_lag_ticks",
                      "cadence.predicted_replay_ticks",
                      "cadence.replay_rate_ticks_per_ms",
                      "cadence.growth_msgs_per_tick",
                      "cadence.predicted_replay_msgs",
                      "cadence.capture_us", "cadence.checkpoint_bytes"):
            assert gauge in metrics.gauges, gauge
        assert metrics.gauge_value("cadence.budget_ticks") == float(ms(40))
        assert metrics.counters.get("cadence.adjustments", 0) == 1
        assert metrics.wall_clock == {"cadence.capture_us",
                                      "cadence.replay_rate_ticks_per_ms"}

    def test_a_wall_clock_budget_marks_what_it_steers(self):
        metrics = MetricSet()
        target = RecoveryTarget(max_recovery_wall_ms=5.0)
        ctl = CadenceController(target, base_interval=ms(10),
                                metrics=metrics)
        ctl.observe_checkpoint(span_ticks=ms(10), messages=50,
                               capture_us=120.0, blob_bytes=4096)
        ctl.next_interval()
        assert metrics.wall_clock == {
            "cadence.capture_us", "cadence.replay_rate_ticks_per_ms",
            "cadence.interval_ticks", "cadence.budget_ticks",
            "cadence.predicted_replay_ticks",
            "cadence.predicted_replay_msgs"}

    def test_rejects_bad_construction(self):
        target = RecoveryTarget(max_replay_ticks=ms(10))
        with pytest.raises(RecoveryError):
            CadenceController(target, base_interval=0)
        with pytest.raises(RecoveryError):
            CadenceController(target, base_interval=10, detect_ticks=-1)


class TestEngineConfigValidation:
    def test_rejects_non_positive_intervals(self):
        with pytest.raises(ValueError):
            EngineConfig(checkpoint_interval=0)
        with pytest.raises(ValueError):
            EngineConfig(checkpoint_interval=-ms(5))
        with pytest.raises(ValueError):
            EngineConfig(full_checkpoint_every=0)
        with pytest.raises(ValueError):
            EngineConfig(heartbeat_interval=0)
        with pytest.raises(ValueError):
            EngineConfig(heartbeat_miss_limit=0)
        with pytest.raises(ValueError):
            EngineConfig(checkpoint_max_retries=0)

    def test_none_still_disables_the_features(self):
        config = EngineConfig(checkpoint_interval=None,
                              heartbeat_interval=None)
        assert config.checkpoint_interval is None

    def test_audit_and_target_require_checkpointing(self):
        with pytest.raises(ValueError):
            EngineConfig(audit="heal")  # no checkpoint_interval
        with pytest.raises(ValueError):
            EngineConfig(recovery_target=RecoveryTarget(
                max_replay_ticks=ms(10)))
        with pytest.raises(ValueError):
            EngineConfig(checkpoint_interval=ms(10), audit="sometimes")
        with pytest.raises(ValueError):
            EngineConfig(checkpoint_interval=ms(10), audit_every=0)
        # Valid combinations construct fine.
        EngineConfig(checkpoint_interval=ms(10), audit="heal",
                     recovery_target=RecoveryTarget(max_replay_ticks=ms(40)))
