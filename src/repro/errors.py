"""Exception hierarchy for the TART reproduction.

Every error raised by the library derives from :class:`TartError`, so
applications embedding the runtime can catch one base class.  Errors are
split along the package layers: simulation kernel, virtual-time substrate,
component model, scheduling, and recovery.
"""

from __future__ import annotations


class TartError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(TartError):
    """The discrete-event simulation kernel was used incorrectly."""


class VirtualTimeError(TartError):
    """A virtual-time invariant was violated.

    Raised, for example, when a component attempts to emit a message whose
    virtual time is not strictly in the future of its current virtual
    time, which would break causality (paper section II.D, requirement
    that causally later events have later virtual times).
    """


class SilenceViolationError(VirtualTimeError):
    """A sender emitted a data tick inside a range it promised was silent.

    Silence promises are monotonic facts; a violation indicates a broken
    estimator or a mis-implemented silence policy, and would destroy
    determinism, so we fail loudly.
    """


class ComponentError(TartError):
    """A component was defined or used incorrectly."""


class WiringError(ComponentError):
    """The application graph is malformed (unknown port, double wiring,
    dangling service call, component placed on no engine, ...)."""


class SpecValidationError(WiringError, ValueError):
    """A cluster spec document failed validation.

    Raised by :meth:`repro.net.topology.ClusterSpec.from_json` (and the
    spec's ``validate`` hook) for unknown top-level keys and
    out-of-range values, so a typo like ``"folowers_per_group"`` fails
    loudly instead of silently producing a default single-group spec.
    Structured: ``key`` names the offending field, ``value`` carries the
    rejected value, and ``reason`` says what was expected.  Derives from
    :class:`ValueError` so generic config loaders can catch it without
    importing this hierarchy.
    """

    def __init__(self, key: str, value, reason: str):
        super().__init__(f"cluster spec field {key!r}: {reason} "
                         f"(got {value!r})")
        self.key = key
        self.value = value
        self.reason = reason


class StateError(ComponentError):
    """Checkpointable state was used outside the declared cells, or a
    checkpoint could not be captured/restored."""


class SchedulingError(TartError):
    """The deterministic scheduler detected an impossible situation."""


class DivergenceError(StateError):
    """The live engine state diverged from the checkpoint-chain rebuild.

    Raised by the divergence auditor (``repro.runtime.audit``) in
    ``raise`` mode when a component's live canonical bytes no longer
    match the state rebuilt from the last full checkpoint chain plus the
    current delta — i.e. an untracked mutation (bit flip, out-of-band
    write) corrupted checkpointable state.  ``engine_id`` names the
    engine, ``cp_seq`` the checkpoint chain position audited against,
    and ``components`` the component names whose bytes differed.
    """

    def __init__(self, engine_id: str, cp_seq: int, components):
        names = ", ".join(sorted(components))
        super().__init__(
            f"{engine_id}: live state diverged from checkpoint chain "
            f"at cp_seq {cp_seq} in component(s): {names}"
        )
        self.engine_id = engine_id
        self.cp_seq = cp_seq
        self.components = tuple(sorted(components))


class DeterminismFaultError(TartError):
    """A determinism fault could not be logged synchronously.

    Determinism faults (estimator re-calibrations) must reach stable
    storage before taking effect; if the log is unavailable the fault must
    not be applied (paper section II.G.4).
    """


class RecoveryError(TartError):
    """Failover or replay could not complete."""


class FailoverInProgressError(RecoveryError):
    """A failure was reported for an engine whose failover is already
    underway (e.g. the heartbeat detector and the failure injector both
    declare the same engine dead).

    The error is structured so a caller can recognise the benign
    double-report case and ignore it: ``engine_id`` identifies the
    engine, ``failed_at`` is the simulated time at which the failover in
    progress was declared.
    """

    def __init__(self, engine_id: str, failed_at: int):
        super().__init__(
            f"{engine_id}: failover already in progress "
            f"(declared failed at t={failed_at})"
        )
        self.engine_id = engine_id
        self.failed_at = failed_at


class TransportError(TartError):
    """The inter-engine transport was misconfigured or misused."""


class FenceDeliveryError(TransportError):
    """A fence was still unacknowledged when its sender tore down.

    Fencing is best-effort by design (a dead engine cannot be fenced and
    does not need to be): the fence channel retries until the link heals,
    and whatever is still unacknowledged at teardown is reported with
    this structured error, naming the engine and the process that was to
    be fenced, so a partitioned-but-alive primary does not vanish.
    """

    def __init__(self, engine_id: str, process: str):
        super().__init__(
            f"fence for {engine_id}: not acknowledged by {process}"
        )
        self.engine_id = engine_id
        self.process = process


class ChaosError(TartError):
    """A chaos schedule was malformed or could not be executed."""


class ScenarioTooShortError(ChaosError):
    """The workload is too short for the scenario: it needs a span of at
    least ``min_span_ms`` simulated ms."""

    def __init__(self, message: str, min_span_ms: float):
        super().__init__(message)
        self.min_span_ms = min_span_ms


class UnrecoverableClusterError(ChaosError):
    """A fault schedule destroyed state the recovery protocol needs.

    Raised (instead of hanging or producing a partial stream) when a
    schedule is genuinely unsurvivable — e.g. an engine *and* its only
    replica were both killed, so the checkpoint chain and the successor
    process are gone.  ``lost_state`` names exactly what was lost;
    ``schedule_seed`` identifies the schedule for reproduction.
    """

    def __init__(self, lost_state: str, schedule_seed=None,
                 delivered=None, expected=None):
        detail = f"unrecoverable: {lost_state}"
        if schedule_seed is not None:
            detail += f" (schedule seed {schedule_seed})"
        if delivered is not None and expected is not None:
            detail += f"; delivered {delivered}/{expected} outputs"
        super().__init__(detail)
        self.lost_state = lost_state
        self.schedule_seed = schedule_seed
        self.delivered = delivered
        self.expected = expected
