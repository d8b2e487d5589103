"""Execution engines.

"An execution engine is either a physical machine or a container such as
a JVM within a machine" (paper II.C).  An :class:`ExecutionEngine` hosts
a set of component runtimes (each with a dedicated logical processor, as
in the paper's multiprocessor study), routes wire traffic through the
network, takes periodic soft checkpoints and ships them to its passive
replica, answers replay requests from its retained buffers, and reacts
to checkpoint acknowledgements by telling upstream senders which ticks
are stable.

The engine also hosts the dynamic re-tuning loop (paper II.G.4): it
samples (estimated, actual) cost pairs from every handler completion,
and when the drift monitor trips, performs a determinism-fault
re-calibration through the stable fault log.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.core.calibration import DriftMonitor, LinearRegressionCalibrator
from repro.core.component import Component
from repro.core.determinism_fault import DeterminismFaultManager
from repro.core.message import (
    CallReply,
    CheckpointAck,
    CheckpointData,
    CuriosityProbe,
    DataMessage,
    ReplayRequest,
    SilenceAdvance,
    StableNotice,
)
from repro.core.estimators import QueueCorrelatedDelayEstimator
from repro.core.nondet_scheduler import NonDeterministicComponentRuntime
from repro.core.ports import ServicePort, WireSpec
from repro.core.scheduler import ComponentRuntime, RuntimeServices
from repro.core.silence_policy import (
    CuriositySilencePolicy,
    NullSilencePolicy,
    SilencePolicy,
)
from repro.errors import RecoveryError, SchedulingError, TransportError, WiringError
from repro.runtime import checkpoint as cpser
from repro.runtime.audit import AUDIT_MODES, DivergenceAuditor
from repro.runtime.cadence import CadenceController
from repro.runtime.metrics import MetricSet
from repro.sim.jitter import JitterModel, NoJitter
from repro.sim.kernel import Processor, ProcessorPool, Simulator

#: Consecutive mid-call checkpoint retries before the engine records a
#: stall and backs off to the full interval.
CHECKPOINT_MAX_RETRIES = 16


@dataclass
class EngineConfig:
    """Tunable behaviour of one engine (paper II.G's control knobs)."""

    #: "deterministic" (TART) or "nondeterministic" (the baseline).
    mode: str = "deterministic"
    #: Factory producing a fresh silence policy per component runtime.
    policy_factory: Callable[[], SilencePolicy] = CuriositySilencePolicy
    #: Prescient probe answers (paper III.A "Prescient" mode).
    prescient: bool = False
    #: Execution-time jitter model shared by this engine's components.
    jitter: JitterModel = field(default_factory=NoJitter)
    #: Soft-checkpoint period in ticks; None disables checkpointing.
    checkpoint_interval: Optional[int] = None
    #: Node ids of the followers in this engine's replication group,
    #: in promotion (rank) order; empty disables replication (and
    #: checkpointing requires at least one).  Checkpoints and heartbeats
    #: fan out to every entry; a checkpoint is stable (and upstream
    #: buffers may be trimmed) only once every follower acknowledged
    #: it, so any single surviving follower can still replay from the
    #: state it holds.
    replica_ids: tuple = ()
    #: Enable drift-triggered determinism-fault re-calibration.  Read
    #: once per component, when ``add_component`` wires its runtime.
    calibrate: bool = False
    #: Drift-monitor window (samples) and relative threshold.
    drift_window: int = 200
    drift_threshold: float = 0.05
    #: Minimum samples between two re-calibrations of one handler.
    recalibrate_cooldown_samples: int = 500
    #: Heartbeat period to the replica; None disables organic failure
    #: detection (experiments then drive recovery via the injector).
    heartbeat_interval: Optional[int] = None
    #: Consecutive missed heartbeats before the replica-side detector
    #: declares the engine dead.
    heartbeat_miss_limit: int = 3
    #: CPUs shared by this engine's component threads; None gives every
    #: component a dedicated processor (the paper's multiprocessor
    #: configuration).
    shared_cpus: Optional[int] = None
    #: Thread scheduling under contention (paper II.G.2): "static"
    #: gives every thread priority 0.0 (first come, first served);
    #: "vt-lag" dynamically prioritises the thread whose virtual time
    #: lags real time the most.
    priority_mode: str = "static"
    #: Replay budget in ticks driving adaptive checkpoint cadence; when
    #: set, :attr:`checkpoint_interval` becomes the controller's initial
    #: interval rather than a fixed period (see ``repro.runtime.cadence``).
    recovery_target: Optional[int] = None
    #: Continuous divergence audit mode: "off", "raise" (fail loudly on
    #: divergence), or "heal" (install the rebuilt state and bump the
    #: incarnation epoch).  See ``repro.runtime.audit``.
    audit: str = "off"
    #: Audit before every Nth checkpoint capture.
    audit_every: int = 1

    def __post_init__(self):
        ids = tuple(self.replica_ids)
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate replica_ids: {ids}")
        self.replica_ids = ids
        if (self.checkpoint_interval is not None
                and self.checkpoint_interval <= 0):
            raise ValueError(
                f"checkpoint_interval must be a positive tick count, got "
                f"{self.checkpoint_interval} (use None to disable "
                f"checkpointing)"
            )
        if (self.heartbeat_interval is not None
                and self.heartbeat_interval <= 0):
            raise ValueError(
                f"heartbeat_interval must be a positive tick count, got "
                f"{self.heartbeat_interval} (use None to disable heartbeats)"
            )
        if self.heartbeat_miss_limit < 1:
            raise ValueError(
                f"heartbeat_miss_limit must be >= 1, got "
                f"{self.heartbeat_miss_limit}"
            )
        if self.audit not in AUDIT_MODES:
            raise ValueError(
                f"audit must be one of {AUDIT_MODES}, got {self.audit!r}"
            )
        if self.audit_every < 1:
            raise ValueError(f"audit_every must be >= 1, got {self.audit_every}")
        if self.recovery_target is not None and self.recovery_target <= 0:
            raise ValueError(
                f"recovery_target must be a positive tick count, got "
                f"{self.recovery_target}"
            )
        if self.recovery_target is not None and self.checkpoint_interval is None:
            raise ValueError(
                "recovery_target requires checkpoint_interval (the "
                "controller's initial interval)"
            )
        if self.audit != "off" and self.checkpoint_interval is None:
            raise ValueError(
                "audit requires checkpoint_interval (audits run at "
                "checkpoint boundaries)"
            )


class _HandlerTuning:
    """Per-handler calibration state (active only with config.calibrate)."""

    def __init__(self, feature_names, window: int, threshold: float):
        names = list(feature_names) or ["__count__"]
        self.calibrator = LinearRegressionCalibrator(names, fit_intercept=False)
        self.monitor = DriftMonitor(window, threshold)
        self.samples_since_recalibration = 0


class ExecutionEngine:
    """One active execution engine hosting several component runtimes."""

    def __init__(
        self,
        engine_id: str,
        sim: Simulator,
        network,
        router,
        config: EngineConfig,
        rng_registry,
        metrics: MetricSet,
        fault_log=None,
        cp_seq_start: int = 0,
        observers: Optional[list] = None,
    ):
        self.node_id = engine_id
        self.engine_id = engine_id
        self.alive = True
        self.sim = sim
        self.network = network
        self.router = router
        self.config = config
        self.rng_registry = rng_registry
        self.metrics = metrics
        self.fault_log = fault_log
        self.fault_manager = (
            DeterminismFaultManager(fault_log) if fault_log is not None else None
        )

        self.runtimes: Dict[str, ComponentRuntime] = {}
        #: Observer list handed to every runtime built here (shared, not
        #: copied: an observer appended later sees every runtime).
        self.observers = [] if observers is None else observers
        self._wire_dst_local: Dict[int, str] = {}
        self._wire_src_local: Dict[int, str] = {}
        self._reply_dst_local: Dict[int, str] = {}

        self._cp_seq = cp_seq_start
        self._cp_positions: Dict[int, Dict[int, int]] = {}
        self._cp_captured_at: Dict[int, int] = {}
        #: cp_seq -> follower node ids that have acknowledged it.
        self._cp_acked: Dict[int, set] = {}
        self._cp_ever_full = False
        self._cp_retries = 0
        self._last_cp_at: Optional[int] = None
        self._msgs_at_last_cp = 0
        self._tunings: Dict[tuple, _HandlerTuning] = {}

        #: Bumped by the divergence auditor on every self-heal.
        self.incarnation_epoch = 0
        self.cadence: Optional[CadenceController] = None
        if config.recovery_target is not None:
            detect = ((config.heartbeat_interval or 0)
                      * config.heartbeat_miss_limit)
            self.cadence = CadenceController(
                config.recovery_target,
                config.checkpoint_interval,
                detect_ticks=detect,
                metrics=metrics,
            )
        self.auditor: Optional[DivergenceAuditor] = None
        if config.audit != "off":
            self.auditor = DivergenceAuditor(self, config.audit,
                                             config.audit_every)

        self._pool: Optional[ProcessorPool] = None
        if config.shared_cpus is not None:
            self._pool = ProcessorPool(
                sim, f"{engine_id}/cpus", config.shared_cpus,
                priority_fn=self._thread_priority,
            )

    def _thread_priority(self, component_name: str) -> float:
        """Thread priority under CPU contention (paper II.G.2)."""
        if self.config.priority_mode == "vt-lag":
            runtime = self.runtimes.get(component_name)
            if runtime is None:
                return 0.0
            # A component whose virtual time trails real time is "slow";
            # running it first shrinks everyone's pessimism delays.
            return float(self.sim.now - runtime.component_vt)
        return 0.0

    # ------------------------------------------------------------------
    # Deployment-time construction
    # ------------------------------------------------------------------
    def add_component(self, component: Component) -> ComponentRuntime:
        """Install a component: run setup, create its runtime + processor."""
        if component.name in self.runtimes:
            raise WiringError(f"{self.engine_id}: duplicate component "
                              f"{component.name!r}")
        component.setup()
        component.state.seal()
        if self._pool is not None:
            processor = self._pool.port(component.name)
        else:
            processor = Processor(self.sim,
                                  f"{self.engine_id}/{component.name}")
        services = RuntimeServices(
            sim=self.sim,
            rng=self.rng_registry.stream(f"exec:{component.name}"),
            jitter=self.config.jitter,
            transmit=self._transmit,
            send_control=self._send_control,
            metrics=self.metrics,
            prescient=self.config.prescient,
            on_sample=self._on_sample if self.config.calibrate else None,
        )
        if self.config.mode == "deterministic":
            policy = self.config.policy_factory()
            runtime = ComponentRuntime(component, processor, services, policy)
        elif self.config.mode == "nondeterministic":
            runtime = NonDeterministicComponentRuntime(
                component, processor, services, NullSilencePolicy()
            )
        else:
            raise WiringError(f"unknown engine mode {self.config.mode!r}")
        runtime.observers = self.observers
        self.runtimes[component.name] = runtime
        return runtime

    def wire_in(self, component_name: str, spec: WireSpec,
                external: bool = False) -> None:
        """Attach an input wire to a hosted component."""
        self.runtimes[component_name].add_in_wire(spec, external=external)
        self._wire_dst_local[spec.wire_id] = component_name

    def wire_out(self, component_name: str, spec: WireSpec,
                 port_name: Optional[str] = None) -> None:
        """Attach an output wire (data/call/ext_out) to a hosted component."""
        runtime = self.runtimes[component_name]
        runtime.add_out_wire(spec)
        retain = self.config.checkpoint_interval is not None and spec.kind != "ext_out"
        sender = runtime.out_senders[spec.wire_id]
        sender.retain = retain
        if isinstance(spec.delay_estimator, QueueCorrelatedDelayEstimator):
            sender.recent_window = spec.delay_estimator.window_ticks
        self._wire_src_local[spec.wire_id] = component_name
        if port_name is not None:
            port = runtime.component.ports().get(port_name)
            if port is None:
                raise WiringError(
                    f"{component_name}: unknown output port {port_name!r}"
                )
            if spec.kind == "reply":
                raise WiringError("reply wires are attached automatically")
            port.attach(spec)

    def wire_reply_out(self, component_name: str, spec: WireSpec) -> None:
        """Attach the sender side of a reply wire (the callee's end)."""
        runtime = self.runtimes[component_name]
        runtime.add_out_wire(spec)
        retain = self.config.checkpoint_interval is not None
        runtime.out_senders[spec.wire_id].retain = retain
        self._wire_src_local[spec.wire_id] = component_name

    def wire_reply_in(self, component_name: str, spec: WireSpec,
                      port_name: str) -> None:
        """Attach the receiver side of a reply wire (the caller's end)."""
        runtime = self.runtimes[component_name]
        runtime.add_reply_wire(spec)
        self._reply_dst_local[spec.wire_id] = component_name
        port = runtime.component.ports().get(port_name)
        if not isinstance(port, ServicePort):
            raise WiringError(
                f"{component_name}.{port_name} is not a service port"
            )
        port.attach_reply(spec)

    def start(self) -> None:
        """Begin periodic checkpointing and heartbeats (if configured)."""
        if self.config.checkpoint_interval is not None:
            if not self.config.replica_ids:
                raise RecoveryError(
                    f"{self.engine_id}: checkpointing requires replica_ids"
                )
            self.sim.after(
                self.config.checkpoint_interval,
                self._checkpoint_tick,
                f"cp:{self.engine_id}",
            )
        if self.config.heartbeat_interval is not None:
            from repro.runtime.detector import HeartbeatEmitter

            HeartbeatEmitter(self, self.config.heartbeat_interval).start()

    def halt(self) -> None:
        """Fail-stop: stop timers and go silent (state is lost)."""
        self.alive = False
        for runtime in self.runtimes.values():
            runtime.policy.stop()

    # ------------------------------------------------------------------
    # Transport callbacks
    # ------------------------------------------------------------------
    def _transmit(self, spec: WireSpec, msg) -> None:
        if not self.alive:
            return
        dst = self.router.endpoint(spec.wire_id, toward_src=False)
        self.network.send(self.node_id, dst, msg)

    def _send_control(self, spec: WireSpec, control, toward_src: bool) -> None:
        if not self.alive:
            return
        dst = self.router.endpoint(spec.wire_id, toward_src=toward_src)
        self.network.send(self.node_id, dst, control)

    def receive(self, item: Any) -> None:
        """Dispatch one item arriving from the network."""
        if not self.alive:
            return
        if isinstance(item, DataMessage):
            if isinstance(item, CallReply):
                name = self._reply_dst_local.get(item.wire_id)
                if name is None:
                    raise TransportError(
                        f"{self.engine_id}: reply on unknown wire "
                        f"{item.wire_id}"
                    )
                self.runtimes[name].on_reply_msg(item)
            else:
                name = self._wire_dst_local.get(item.wire_id)
                if name is None:
                    raise TransportError(
                        f"{self.engine_id}: data on unknown wire "
                        f"{item.wire_id}"
                    )
                self.runtimes[name].on_data(item)
        elif isinstance(item, SilenceAdvance):
            name = self._wire_dst_local.get(item.wire_id)
            if name is not None:
                self.runtimes[name].on_silence(item)
            # Silence on reply wires is meaningless; drop quietly.
        elif isinstance(item, CuriosityProbe):
            name = self._require_src(item.wire_id)
            self.runtimes[name].on_probe(item.wire_id, item.want_vt)
        elif isinstance(item, ReplayRequest):
            name = self._require_src(item.wire_id)
            self.runtimes[name].replay_out_wire(item.wire_id, item.from_seq)
        elif isinstance(item, StableNotice):
            name = self._require_src(item.wire_id)
            self.runtimes[name].trim_out_wire(item.wire_id, item.through_seq)
        elif isinstance(item, CheckpointAck):
            self._on_checkpoint_ack(item)
        else:
            raise TransportError(f"{self.engine_id}: unexpected item {item!r}")

    def _require_src(self, wire_id: int) -> str:
        name = self._wire_src_local.get(wire_id)
        if name is None:
            raise TransportError(
                f"{self.engine_id}: control for unknown out-wire {wire_id}"
            )
        return name

    # ------------------------------------------------------------------
    # Checkpointing (paper II.F.2)
    # ------------------------------------------------------------------
    def _next_interval(self) -> int:
        """The checkpoint period: adaptive under a recovery target."""
        if self.cadence is not None:
            return self.cadence.next_interval()
        return self.config.checkpoint_interval

    def _checkpoint_tick(self) -> None:
        if not self.alive:
            return
        interval = self._next_interval()
        if any(rt.mid_call for rt in self.runtimes.values()):
            # Generator frames cannot snapshot; retry shortly — but only
            # a bounded number of times, so a component stuck mid-call
            # surfaces as a counted stall instead of a silent hot loop.
            self._cp_retries += 1
            self.metrics.count("checkpoint.retries")
            if self._cp_retries >= CHECKPOINT_MAX_RETRIES:
                self.metrics.count("checkpoint.stalls")
                self._cp_retries = 0
                self.sim.after(interval, self._checkpoint_tick,
                               f"cp:{self.engine_id}")
            else:
                self.sim.after(max(1, interval // 10), self._checkpoint_tick,
                               f"cp-retry:{self.engine_id}")
            return
        self._cp_retries = 0
        # A heal restarts every follower from healed state.
        force_full = (self.auditor is not None and self.auditor.due()
                      and self.auditor.audit_once() == "healed")
        self.capture_checkpoint(force_full=force_full)
        self.sim.after(self._next_interval(), self._checkpoint_tick,
                       f"cp:{self.engine_id}")

    def capture_checkpoint(self, force_full: bool = False,
                           avoid_full: bool = False) -> int:
        """Capture and ship one soft checkpoint; returns its cp_seq.

        The capture is full at this incarnation's first checkpoint and
        when ``force_full`` asks for one (after an audit heal); every
        other capture is a delta against the one before it, which each
        follower folds into the state it holds.  ``avoid_full`` is
        accepted and has no effect.
        """
        if any(rt.mid_call for rt in self.runtimes.values()):
            raise SchedulingError(
                f"{self.engine_id}: cannot checkpoint mid-call"
            )
        self._cp_seq += 1
        incremental = self._cp_ever_full and not force_full
        started = time.perf_counter()
        components = {
            name: rt.capture(incremental) for name, rt in self.runtimes.items()
        }
        self._cp_ever_full = True
        blob = cpser.dumps({"components": components})
        capture_us = (time.perf_counter() - started) * 1e6
        positions: Dict[int, int] = {}
        for rt in self.runtimes.values():
            for wid, wire in rt.in_wires.items():
                positions[wid] = wire.receiver.next_seq
            for wid, recv in rt.reply_receivers.items():
                positions[wid] = recv.next_seq
        self._cp_positions[self._cp_seq] = positions
        self._cp_captured_at[self._cp_seq] = self.sim.now
        for replica_id in self.config.replica_ids:
            self.network.send(
                self.node_id,
                replica_id,
                CheckpointData(self.engine_id, self._cp_seq, incremental,
                               blob),
            )
        self.metrics.count("checkpoints_captured")
        self.metrics.add("checkpoint_bytes", len(blob))
        if self.auditor is not None:
            self.auditor.note_checkpoint(self._cp_seq, incremental, blob)
        if self.cadence is not None:
            msgs = self.metrics.counter("messages_processed")
            span = (self.sim.now - self._last_cp_at
                    if self._last_cp_at is not None else 0)
            self.cadence.observe_checkpoint(
                span, msgs - self._msgs_at_last_cp, capture_us, len(blob)
            )
            self._msgs_at_last_cp = msgs
        self._last_cp_at = self.sim.now
        return self._cp_seq

    def _on_checkpoint_ack(self, ack: CheckpointAck) -> None:
        # A checkpoint is stable only once *every* follower holds it —
        # trimming upstream buffers earlier would strand a
        # surviving-but-lagging follower's replay.
        acked = self._cp_acked.setdefault(ack.cp_seq, set())
        acked.add(ack.replica_id)
        if not set(self.config.replica_ids) <= acked:
            return
        self._cp_acked.pop(ack.cp_seq, None)
        captured_at = self._cp_captured_at.pop(ack.cp_seq, None)
        if captured_at is not None and self.cadence is not None:
            self.cadence.observe_ack(self.sim.now - captured_at)
        positions = self._cp_positions.pop(ack.cp_seq, None)
        if positions is None:
            return
        # Drop older pending positions too: a cumulative ack covers them.
        for seq in [s for s in self._cp_positions if s < ack.cp_seq]:
            del self._cp_positions[seq]
            self._cp_captured_at.pop(seq, None)
            self._cp_acked.pop(seq, None)
        for wire_id, next_seq in positions.items():
            if next_seq == 0:
                continue
            spec = self.router.spec(wire_id)
            self._send_control(spec, StableNotice(wire_id, next_seq - 1), True)
        self.metrics.count("checkpoints_stable")

    # ------------------------------------------------------------------
    # Failover support
    # ------------------------------------------------------------------
    def restore_components(self, snapshots: Dict[str, dict]) -> None:
        """Load materialized replica state into the (freshly wired) runtimes."""
        for name, runtime in self.runtimes.items():
            snap = snapshots.get(name)
            if snap is None:
                raise RecoveryError(
                    f"{self.engine_id}: checkpoint missing component {name!r}"
                )
            runtime.restore(snap)
            if self.fault_manager is not None:
                self.fault_manager.replay_into(runtime)

    def begin_recovery(self) -> None:
        """Request replay on every input wire and resume dispatching."""
        for runtime in self.runtimes.values():
            runtime.request_all_replays()
            self.sim.call_soon(runtime.maybe_dispatch,
                               f"resume:{runtime.component.name}")

    def bump_incarnation_epoch(self) -> None:
        """Advance the incarnation epoch after a self-heal.

        The epoch records that the engine's state was rewritten in
        place; re-registering gives the healed node a fresh identity on
        its transport (a new incarnation in every later handshake over
        TCP, a no-op replace in simulation).
        """
        self.incarnation_epoch += 1
        self.metrics.count("incarnation_epoch_bumps")
        self.network.register(self)

    # ------------------------------------------------------------------
    # Calibration / determinism faults (paper II.G.4)
    # ------------------------------------------------------------------
    def _on_sample(self, runtime, handler_spec, features, estimated, actual) -> None:
        key = (runtime.component.name, handler_spec.input_name)
        tuning = self._tunings.get(key)
        if tuning is None:
            names = sorted(features) if features else []
            tuning = _HandlerTuning(
                names, self.config.drift_window, self.config.drift_threshold
            )
            self._tunings[key] = tuning
        if not features:
            features = {"__count__": 1}
        tuning.calibrator.add_sample(features, actual)
        tuning.monitor.observe(estimated, actual)
        tuning.samples_since_recalibration += 1
        if (
            tuning.monitor.drifting()
            and tuning.samples_since_recalibration
            >= self.config.recalibrate_cooldown_samples
            and self.fault_manager is not None
        ):
            result = tuning.calibrator.fit()
            new_estimator = result.to_estimator()
            self.fault_manager.recalibrate(
                runtime, handler_spec.input_name, new_estimator
            )
            tuning.samples_since_recalibration = 0

    def __repr__(self) -> str:
        state = "alive" if self.alive else "failed"
        return (f"<ExecutionEngine {self.engine_id} {state} "
                f"components={sorted(self.runtimes)}>")
