"""Adaptive checkpoint cadence under a replay budget.

The paper fixes the checkpoint period as a configuration constant and
leaves recovery time implicit: after a failover, the promoted replica
replays the external log from the last *stable* checkpoint, so the
replay span — and hence recovery time — is bounded only by however much
log accumulated since that checkpoint.  A static interval therefore
gives no bound once the ack round trip or the detection time grows.

:class:`CadenceController` closes that loop.  The operator states one
budget, the worst-case replay span in virtual-time ticks
(``EngineConfig.recovery_target``; ``recovery_target_ms`` in a cluster
spec), and the controller schedules the *next* checkpoint so the worst
case stays under it whenever the clamp below allows:

``worst-case replay span  =  interval + ack lag + detection time``

* ``interval`` is what the controller chooses (the knob);
* ``ack lag`` is how long a captured checkpoint takes to become stable
  (ship + replica ack round trip), measured in ticks from real acks — a
  captured but unacknowledged checkpoint does not shorten replay;
* ``detection time`` is the heartbeat timeout
  (``heartbeat_interval * miss_limit``), fixed by configuration.

Log growth (messages per tick) and capture cost are tracked as
exponentially weighted means too and exported — they do not change the
tick arithmetic but they make the predicted replay *work* visible
(``cadence.predicted_replay_msgs``).

The controller applies hysteresis to growth only (a lengthening smaller
than :data:`HYSTERESIS` of the current interval is ignored, so the
interval does not flap); a shortening always applies, since the current
interval's worst case then exceeds the budget.  The result is clamped to
``[base // CLAMP, base * CLAMP]`` around the configured base interval.
All control-loop state is exported as ``cadence.*`` gauges through
:class:`~repro.runtime.metrics.MetricSet`.
Every input of the interval is a count of ticks or messages, so a seed
checkpoints at the same ticks on every run, and the controller writes
only the checkpoint timer — never message timestamps — so adaptation
cannot perturb deterministic replay.  The one wall-clock gauge is the
measured capture cost (``cadence.capture_us``).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import RecoveryError

#: Relative growth below which the current interval is kept.
HYSTERESIS = 0.2
#: The interval stays within [base // CLAMP, base * CLAMP].
CLAMP = 8
#: Weight of a new sample in every exponentially weighted mean.
EWMA_ALPHA = 0.3


class _Ewma:
    """Exponentially weighted mean; ``None`` until the first sample."""

    def __init__(self):
        self.value: Optional[float] = None

    def observe(self, x: float) -> float:
        if self.value is None:
            self.value = float(x)
        else:
            self.value += EWMA_ALPHA * (float(x) - self.value)
        return self.value


class CadenceController:
    """Chooses the next checkpoint interval to meet a replay budget."""

    def __init__(
        self,
        budget_ticks: int,
        base_interval: int,
        detect_ticks: int = 0,
        metrics=None,
    ):
        if budget_ticks <= 0:
            raise RecoveryError("budget_ticks must be positive")
        if base_interval <= 0:
            raise RecoveryError("base_interval must be positive")
        if detect_ticks < 0:
            raise RecoveryError("detect_ticks must be >= 0")
        self.budget_ticks = int(budget_ticks)
        self.base_interval = int(base_interval)
        self.detect_ticks = int(detect_ticks)
        self.metrics = metrics
        self.min_interval = max(1, base_interval // CLAMP)
        self.max_interval = base_interval * CLAMP
        self._interval = self._clamp(base_interval)
        self.adjustments = 0
        # Measured signals (EWMAs).
        self._growth_msgs_per_tick = _Ewma()
        self._capture_us = _Ewma()
        self._ack_lag_ticks = _Ewma()
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
        # Fixed overheads eat into the budget; the interval gets the rest.
        overhead = self.detect_ticks + (self._ack_lag_ticks.value or 0.0)
        desired = self._clamp(int(self.budget_ticks - overhead))
        # A shorter interval is always taken: the current one no longer
        # fits the budget.  Growth waits until it is worth a change.
        if (desired < self._interval
                or desired - self._interval >= HYSTERESIS * self._interval):
            self._interval = desired
            self.adjustments += 1
            if self.metrics is not None:
                self.metrics.count("cadence.adjustments")
        self._export()
        return self._interval

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
        g("cadence.interval_ticks", float(self._interval))
        g("cadence.budget_ticks", float(self.budget_ticks))
        g("cadence.detect_ticks", float(self.detect_ticks))
        g("cadence.ack_lag_ticks", self._ack_lag_ticks.value or 0.0)
        g("cadence.predicted_replay_ticks", self.predicted_replay_ticks())
        growth = self._growth_msgs_per_tick.value
        if growth is not None:
            g("cadence.growth_msgs_per_tick", growth)
            g("cadence.predicted_replay_msgs",
              growth * self.predicted_replay_ticks())
