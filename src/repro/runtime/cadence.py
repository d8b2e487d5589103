"""Adaptive checkpoint cadence under a recovery-time objective.

The paper fixes the checkpoint period as a configuration constant and
leaves recovery time implicit: after a failover, the promoted replica
replays the external log from the last *stable* checkpoint, so the
replay span — and hence recovery time — is bounded only by however much
log accumulated since that checkpoint.  A static interval therefore
gives no recovery-time guarantee when load (log growth) or replay
throughput changes.

:class:`CadenceController` closes that loop.  The operator states a
:class:`RecoveryTarget` — a bound on the worst-case replay span in
virtual-time ticks, in wall-clock milliseconds, or both — and the
controller schedules the *next* checkpoint so the worst case stays
under target:

``worst-case replay span  =  interval + ack lag + detection time``

* ``interval`` is what the controller chooses (the knob);
* ``ack lag`` is how long a captured checkpoint takes to become stable
  (ship + replica ack round trip), measured from real acks — a captured
  but unacknowledged checkpoint does not shorten replay;
* ``detection time`` is the heartbeat timeout
  (``heartbeat_interval * miss_limit``), fixed by configuration.

Wall-clock budgets are converted to ticks through an EWMA of the
observed replay rate (ticks of log replayed per wall millisecond), fed
by real failovers and by divergence-audit rebuilds; until the first
observation a configurable prior is used.  Log growth (messages per
tick) and capture cost are tracked the same way and exported — they do
not change the tick arithmetic but they make the predicted replay
*work* visible (``cadence.predicted_replay_msgs``).

The controller applies hysteresis (small corrections are ignored so the
interval does not flap) and clamps the result to a min/max band.  All
control-loop state is exported as ``cadence.*`` gauges through
:class:`~repro.runtime.metrics.MetricSet`.  Crucially the controller
reads only *wall-clock* measurements and writes only the checkpoint
timer — never message timestamps — so adaptation cannot perturb
deterministic replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import RecoveryError
from repro.vt.time import TICKS_PER_MS


@dataclass(frozen=True)
class RecoveryTarget:
    """Operator-facing recovery-time objective.

    At least one of ``max_replay_ticks`` (virtual-time budget) and
    ``max_recovery_wall_ms`` (wall-clock budget) must be set; when both
    are, the tighter one governs.
    """

    #: Worst-case replay span in virtual-time ticks (None = no vt bound).
    max_replay_ticks: Optional[int] = None
    #: Worst-case recovery wall time in milliseconds (None = no bound).
    max_recovery_wall_ms: Optional[float] = None
    #: Interval clamp; defaults (None) derive a band from the base
    #: interval: [base / 8, base * 8].
    min_interval: Optional[int] = None
    max_interval: Optional[int] = None
    #: Relative change below which the current interval is kept.
    hysteresis: float = 0.2

    def __post_init__(self):
        if self.max_replay_ticks is None and self.max_recovery_wall_ms is None:
            raise RecoveryError(
                "RecoveryTarget needs max_replay_ticks and/or "
                "max_recovery_wall_ms"
            )
        if self.max_replay_ticks is not None and self.max_replay_ticks <= 0:
            raise RecoveryError("max_replay_ticks must be positive")
        if (self.max_recovery_wall_ms is not None
                and self.max_recovery_wall_ms <= 0):
            raise RecoveryError("max_recovery_wall_ms must be positive")
        if not (0.0 <= self.hysteresis < 1.0):
            raise RecoveryError("hysteresis must be in [0, 1)")
        for name in ("min_interval", "max_interval"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise RecoveryError(f"{name} must be positive")


class _Ewma:
    """Exponentially weighted mean with an optional prior."""

    def __init__(self, alpha: float, prior: Optional[float] = None):
        self.alpha = alpha
        self.value = prior
        self.samples = 0

    def observe(self, x: float) -> float:
        if self.value is None or self.samples == 0:
            self.value = float(x)
        else:
            self.value += self.alpha * (float(x) - self.value)
        self.samples += 1
        return self.value


class CadenceController:
    """Chooses the next checkpoint interval to meet a recovery target."""

    def __init__(
        self,
        target: RecoveryTarget,
        base_interval: int,
        detect_ticks: int = 0,
        metrics=None,
        replay_rate_prior_ticks_per_ms: float = float(TICKS_PER_MS),
        alpha: float = 0.3,
    ):
        if base_interval <= 0:
            raise RecoveryError("base_interval must be positive")
        if detect_ticks < 0:
            raise RecoveryError("detect_ticks must be >= 0")
        self.target = target
        self.base_interval = int(base_interval)
        self.detect_ticks = int(detect_ticks)
        self.metrics = metrics
        self.min_interval = target.min_interval or max(1, base_interval // 8)
        self.max_interval = target.max_interval or base_interval * 8
        if self.min_interval > self.max_interval:
            raise RecoveryError("min_interval exceeds max_interval")
        self._interval = self._clamp(base_interval)
        self.adjustments = 0
        # Measured signals (EWMAs).
        self._growth_msgs_per_tick = _Ewma(alpha)
        self._capture_us = _Ewma(alpha)
        self._ack_lag_ticks = _Ewma(alpha, prior=0.0)
        self._replay_ticks_per_ms = _Ewma(
            alpha, prior=float(replay_rate_prior_ticks_per_ms))
        self._export()

    # -- observations ----------------------------------------------------
    def observe_checkpoint(self, span_ticks: int, messages: int,
                           capture_us: float, blob_bytes: int) -> None:
        """Feed one capture: log growth over the span and capture cost."""
        if span_ticks > 0:
            self._growth_msgs_per_tick.observe(messages / span_ticks)
        self._capture_us.observe(capture_us)
        if self.metrics is not None:
            self.metrics.gauge("cadence.capture_us", self._capture_us.value,
                               wall_clock=True)
            self.metrics.gauge("cadence.checkpoint_bytes", float(blob_bytes))

    def observe_ack(self, lag_ticks: int) -> None:
        """Feed one checkpoint-stable ack: capture-to-stable lag."""
        self._ack_lag_ticks.observe(max(0, lag_ticks))

    def observe_replay(self, span_ticks: int, wall_ms: float) -> None:
        """Feed one replay-path measurement (failover or audit rebuild)."""
        if span_ticks <= 0 or wall_ms <= 0:
            return
        self._replay_ticks_per_ms.observe(span_ticks / wall_ms)
        if self.metrics is not None:
            self.metrics.count("cadence.replay_observations")

    def observe_failover(self, downtime_ticks: int) -> None:
        """Record a real failover's downtime (visibility only)."""
        if self.metrics is not None:
            self.metrics.count("cadence.failovers_observed")
            self.metrics.gauge("cadence.last_failover_downtime_ticks",
                               float(downtime_ticks))

    # -- control ---------------------------------------------------------
    @property
    def interval(self) -> int:
        """The currently scheduled checkpoint interval in ticks."""
        return self._interval

    def next_interval(self) -> int:
        """Recompute the interval from the current estimates."""
        budget = self._budget_ticks()
        # Fixed overheads eat into the budget; the interval gets the rest.
        overhead = self.detect_ticks + (self._ack_lag_ticks.value or 0.0)
        desired = int(budget - overhead)
        desired = self._clamp(desired)
        if self._interval > 0:
            rel = abs(desired - self._interval) / self._interval
            if rel >= self.target.hysteresis:
                self._interval = desired
                self.adjustments += 1
                if self.metrics is not None:
                    self.metrics.count("cadence.adjustments")
        else:  # pragma: no cover - interval is always clamped positive
            self._interval = desired
        self._export()
        return self._interval

    def _budget_ticks(self) -> float:
        """The governing replay budget expressed in ticks."""
        budgets = []
        if self.target.max_replay_ticks is not None:
            budgets.append(float(self.target.max_replay_ticks))
        if self.target.max_recovery_wall_ms is not None:
            rate = self._replay_ticks_per_ms.value
            budgets.append(self.target.max_recovery_wall_ms * rate)
        return min(budgets)

    def _clamp(self, interval: int) -> int:
        return max(self.min_interval, min(self.max_interval, interval))

    def predicted_replay_ticks(self) -> float:
        """Worst-case replay span implied by the current interval."""
        return (self._interval + self.detect_ticks
                + (self._ack_lag_ticks.value or 0.0))

    def _export(self) -> None:
        if self.metrics is None:
            return
        g = self.metrics.gauge
        # A wall-clock budget is spent at the measured replay rate, so
        # the interval and all that follows from it read the wall clock.
        wall = self.target.max_recovery_wall_ms is not None
        g("cadence.interval_ticks", float(self._interval), wall_clock=wall)
        g("cadence.budget_ticks", self._budget_ticks(), wall_clock=wall)
        g("cadence.detect_ticks", float(self.detect_ticks))
        g("cadence.ack_lag_ticks", self._ack_lag_ticks.value or 0.0)
        g("cadence.predicted_replay_ticks", self.predicted_replay_ticks(),
          wall_clock=wall)
        g("cadence.replay_rate_ticks_per_ms", self._replay_ticks_per_ms.value,
          wall_clock=True)
        growth = self._growth_msgs_per_tick.value
        if growth is not None:
            g("cadence.growth_msgs_per_tick", growth)
            g("cadence.predicted_replay_msgs",
              growth * self.predicted_replay_ticks(), wall_clock=wall)
