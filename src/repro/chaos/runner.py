"""Chaos runner: drive a seeded schedule against a live cluster.

:class:`ChaosDriver` is the actuator bridge.  It plugs into
:class:`repro.net.cluster.ClusterHarness`'s lifecycle hooks and converts
each :class:`~repro.chaos.schedule.ChaosEvent` into real-world actions
at the scheduled moment: process faults are POSIX signals (SIGKILL /
SIGSTOP / SIGCONT) on the spawned children, link faults are policy
flips on the :class:`~repro.chaos.proxy.FaultProxy` every connection is
routed through.  Schedule times are simulated milliseconds; the driver
maps them onto the cluster's shared epoch (``t0 + at_ms / (1000 *
speed)`` wall seconds), so the *same* schedule the simulator lowers to
ticks fires at the equivalent moments in real time.

:func:`run_chaos` is the whole experiment: simulate the clean
reference, optionally re-simulate *with* the schedule's sim lowering
applied (the fast ground-truth of satellite value: one fault script,
two worlds), then run the real multi-process cluster behind fault
proxies while the driver injects faults, and finally judge the result
with :func:`repro.chaos.invariants.check_invariants`.
"""

from __future__ import annotations

import asyncio
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.chaos.invariants import check_invariants
from repro.errors import UnrecoverableClusterError
from repro.chaos.proxy import FaultProxy
from repro.chaos.schedule import ChaosSchedule, generate_schedule
from repro.net import codec
from repro.net.channel import OutboundChannel
from repro.net.cluster import run_networked
from repro.net.topology import (
    ClusterSpec,
    plan_cluster_nodes,
    reference_run,
    simulated_twin,
    twin_horizon,
)
from repro.tools.verify_determinism import streams_of, verify_trace_equivalence


def _stderr(line: str) -> None:
    print(line, file=sys.stderr, flush=True)


class ChaosDriver:
    """Applies one schedule to one live run (signals + proxy flips).

    ``fronted`` names the processes whose listeners the proxy fronts:
    their peers dial a proxy front, bound by :meth:`front` once the
    process has reported its own port.  The builder of the driver
    decides — :func:`run_chaos` fronts every process of the cluster,
    a gateway run fronts only the gateway.
    """

    #: Period between live "impair" resets inside the fault window.
    IMPAIR_RESET_GAP_S = 0.4

    def __init__(self, schedule: ChaosSchedule, proxy: FaultProxy,
                 spec: ClusterSpec,
                 log: Callable[[str], None] = _stderr,
                 fronted: Iterable[str] = ()):
        self.schedule = schedule
        self.proxy = proxy
        self.spec = spec
        self.log = log
        self.fronted = set(fronted)
        self.children: Dict = {}
        #: Applied-action log lines, in application order (diffable).
        self.applied: List[str] = []
        self._task: Optional[asyncio.Task] = None
        #: target process -> its fault channel and the corrupt events
        #: enqueued on it, in order.
        self._fault_channels: Dict[str, Tuple[OutboundChannel,
                                              List[Dict]]] = {}
        self._actions = self._plan()

    # -- planning --------------------------------------------------------
    def _wall(self, at_ms: float) -> float:
        """Schedule time -> wall seconds after the GO epoch."""
        return at_ms / (1000.0 * self.spec.speed)

    def _plan(self) -> List[Tuple[float, str, Callable[[], None]]]:
        """Flatten events (and their window ends) into timed actions."""
        actions: List[Tuple[float, str, Callable[[], None]]] = []

        def add(at_ms: float, label: str, fn: Callable[[], None]) -> None:
            actions.append((self._wall(at_ms), label, fn))

        for event in self.schedule.ordered():
            kind, link = event.kind, event.link
            end_ms = event.at_ms + (event.duration_ms or 0.0)
            if kind in ("kill", "stop", "cont"):
                add(event.at_ms, event.log_line(),
                    lambda k=kind, t=event.target: self._signal(k, t))
            elif kind == "partition":
                a, b = link
                add(event.at_ms, event.log_line(),
                    lambda a=a, b=b: self.proxy.partition(a, b))
                add(end_ms, f"t=+{end_ms:09.3f}ms heal {a}<->{b}",
                    lambda a=a, b=b: self.proxy.heal_link(a, b))
            elif kind == "latency":
                a, b = link
                delay_s = self._wall(event.delay_ms or 0.0)
                add(event.at_ms, event.log_line(),
                    lambda a=a, b=b, d=delay_s:
                        self.proxy.set_latency(a, b, d))
                add(end_ms, f"t=+{end_ms:09.3f}ms latency-end {a}<->{b}",
                    lambda a=a, b=b: self.proxy.set_latency(a, b, 0.0))
            elif kind == "throttle":
                a, b = link
                add(event.at_ms, event.log_line(),
                    lambda a=a, b=b, r=float(event.rate_bps or 0.0):
                        self.proxy.set_throttle(a, b, r))
                add(end_ms, f"t=+{end_ms:09.3f}ms throttle-end {a}<->{b}",
                    lambda a=a, b=b: self.proxy.set_throttle(a, b, 0.0))
            elif kind == "reset":
                a, b = link
                add(event.at_ms, event.log_line(),
                    lambda a=a, b=b: self.proxy.reset(a, b))
            elif kind == "half_open":
                a, b = link
                add(event.at_ms, event.log_line(),
                    lambda a=a, b=b: self.proxy.set_half_open(a, b, True))
                add(end_ms, f"t=+{end_ms:09.3f}ms half-open-end {a}<->{b}",
                    lambda a=a, b=b: self.proxy.heal_link(a, b))
            elif kind == "heal":
                add(event.at_ms, event.log_line(), self.proxy.heal_all)
            elif kind == "corrupt":
                add(event.at_ms, event.log_line(),
                    lambda t=event.target, c=event.component or "":
                        self._corrupt(t, c))
            elif kind == "impair":
                # Live lowering of a lossy link: periodic hard resets —
                # TCP either delivers bytes exactly or drops the
                # connection, so "loss" becomes forced reconnects.
                a, b = link
                gap_ms = self.IMPAIR_RESET_GAP_S * 1000.0 * self.spec.speed
                t = event.at_ms
                while True:
                    add(t, f"t=+{t:09.3f}ms impair-reset {a}<->{b}",
                        lambda a=a, b=b: self.proxy.reset(a, b))
                    t += max(gap_ms, 0.001)
                    if event.duration_ms is None or t > end_ms:
                        break
        actions.sort(key=lambda action: action[0])
        return actions

    # -- lifecycle hooks (called by ClusterHarness) ----------------------
    async def front(self, ports: Dict[str, Tuple[str, int]]
                    ) -> Dict[str, Tuple[str, int]]:
        """process -> the address its peers dial: for a fronted process
        a proxy front, bound now and forwarding to ``ports[process]``;
        for any other, ``ports[process]`` itself."""
        return {process: (await self.proxy.front(process, address)
                          if process in self.fronted else address)
                for process, address in ports.items()}

    def attach(self, children: Dict) -> None:
        self.children = children

    def on_go(self, t0: float) -> None:
        self._task = asyncio.get_running_loop().create_task(
            self._drive(t0), name="chaos-driver"
        )

    async def close(self) -> None:
        if self._task is not None and not self._task.done():
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
        for target, (channel, events) in self._fault_channels.items():
            await channel.close()
            for index, event in enumerate(events):
                outcome = ("delivered to" if index < channel.items_acked
                           else "undeliverable:")
                self.log(f"chaos corrupt {outcome} {target} "
                         f"component={event['component'] or 'auto'}")
        await self.proxy.close()

    @property
    def corrupted(self) -> List[Dict]:
        """Corrupt events a live process acknowledged (the audit
        invariant only demands heals for corruption that landed)."""
        return [event for channel, events in self._fault_channels.values()
                for event in events[:channel.items_acked]]

    # -- execution -------------------------------------------------------
    async def _drive(self, t0: float) -> None:
        for offset_s, label, fn in self._actions:
            delay = (t0 + offset_s) - time.time()
            if delay > 0:
                await asyncio.sleep(delay)
            try:
                fn()
                line = f"chaos apply {label}"
            except Exception as exc:  # noqa: BLE001 - dead target etc.
                line = f"chaos skip {label} ({type(exc).__name__}: {exc})"
            self.applied.append(line)
            self.log(line)

    def _corrupt(self, target: str, component: str) -> None:
        """Enqueue one CorruptRequest for the process hosting ``target``.

        It rides a channel to the process's ``proc:<name>`` control node
        at its *real* address (``proxy.targets``), not its proxy front:
        corruption is god-mode fault injection and must land regardless
        of whatever link faults the schedule has up.  The channel retries
        until the driver closes; a corruption counts as delivered once
        the process acknowledges it.
        """
        address = self.proxy.targets.get(target)
        if address is None:
            raise KeyError(f"no proxied process named {target!r}")
        if target not in self._fault_channels:
            spec = self.spec
            channel = OutboundChannel(
                "chaos-driver", f"proc:{target}", [address],
                backoff_min=spec.backoff_min_s,
                backoff_max=spec.backoff_max_s,
                connect_timeout=spec.connect_timeout_s)
            self._fault_channels[target] = (channel, [])
            channel.start()
        channel, events = self._fault_channels[target]
        events.append({"target": target, "component": component or None})
        channel.enqueue("chaos-driver", codec.CorruptRequest(
            target.split("-", 1)[-1], component))

    def _signal(self, kind: str, target: str) -> None:
        child = self.children.get(target)
        if child is None:
            raise KeyError(f"no child process named {target!r}")
        if kind == "kill":
            child.kill()
        elif kind == "stop":
            child.stop()
        else:
            child.cont()

    # -- reporting -------------------------------------------------------
    def report(self) -> Dict:
        return {
            "applied": list(self.applied),
            "pending": max(0, len(self._actions) - len(self.applied)),
            "corrupted": list(self.corrupted),
            "proxy": self.proxy.report(),
        }


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------


def record_chaos_bundle(spec: ClusterSpec, schedule: ChaosSchedule,
                        out_dir, verdict: Optional[Dict] = None,
                        log: Callable[[str], None] = _stderr):
    """Write a ``.replay`` reproducer bundle for a chaos run.

    Recording re-executes the run's simulated twin under the replay
    clock tracer (byte-identical by the determinism guarantee).  Never
    raises: a recording failure must not mask the chaos verdict.
    """
    from repro.runtime.flightrec import record_run

    try:
        path = record_run(spec, out_dir, schedule=schedule,
                          seed=schedule.seed, scenario=schedule.scenario,
                          source="chaos", verdict=verdict)
    except Exception as exc:  # noqa: BLE001 - reported, not fatal
        log(f"chaos: bundle recording failed: "
            f"{type(exc).__name__}: {exc}")
        return None
    log(f"chaos: wrote replay bundle {path}")
    return path


def chaos_deadline_s(spec: ClusterSpec, schedule: ChaosSchedule,
                     base_deadline_s: Optional[float] = None) -> float:
    """Wall-clock budget for one live chaos run.

    Survivable schedules get the clean-run budget plus the schedule's
    stall windows.  Unsurvivable schedules get a *short* budget — just
    past the last fault plus detection slack — so the run fails fast
    with a structured error instead of waiting out a deadline that can
    never be met.
    """
    span_s = spec.workload_span_ticks() / (1e9 * spec.speed)
    base = base_deadline_s or max(30.0, 6.0 * span_s + 10.0)
    if schedule.lost_state(spec) is not None:
        end_s = schedule.end_ms() / (1000.0 * spec.speed)
        detect_s = (spec.heartbeat_interval_ms
                    * (spec.heartbeat_miss_limit + 1)) / (1000.0 * spec.speed)
        return min(base, end_s + detect_s + 8.0)
    return base + schedule.stall_budget_s(spec.speed)


def run_chaos(
    spec: ClusterSpec,
    seed: int,
    scenario: Optional[str] = None,
    schedule: Optional[ChaosSchedule] = None,
    deadline_s: Optional[float] = None,
    run_sim: bool = True,
    run_live: bool = True,
    log: Callable[[str], None] = _stderr,
    record_dir: Optional[str] = None,
) -> Dict:
    """One full chaos experiment; returns the report dict.

    Raises :class:`~repro.errors.UnrecoverableClusterError` when the
    schedule destroys state and the live run (correctly) cannot reach
    the reference output — callers decide whether that is the expected
    outcome (``--scenario unsurvivable``) or a surprise.

    ``record_dir`` writes a flight-recorder ``.replay`` bundle of the
    run's simulated twin (see ``repro.runtime.flightrec``).  Regardless
    of the flag, any invariant failure writes
    ``chaos-failure-seed<N>.replay`` in the working directory, so every
    red run ships its own reproducer.
    """
    if schedule is None:
        schedule = generate_schedule(seed, spec, scenario)
    for line in schedule.log_lines():
        log(line)

    if (spec.audit == "off"
            and any(e.kind == "corrupt" for e in schedule.events)):
        # A corrupt schedule without the audit is undetectable by
        # construction; running it that way can only ever pass vacuously.
        spec.audit = "heal"
        log("chaos: schedule injects state corruption; enabling "
            "--audit heal")

    report: Dict = {
        "seed": schedule.seed,
        "scenario": schedule.scenario,
        "schedule": [e.to_dict() for e in schedule.ordered()],
        "lost_state": schedule.lost_state(spec),
    }

    log(f"chaos: simulating clean reference ...")
    reference = reference_run(spec)
    ref_counts = {sink: len(s) for sink, s in reference.items()}
    report["reference_outputs"] = sum(ref_counts.values())

    twin = None
    if run_sim and report["lost_state"] is None:
        # In-simulator replay of the same fault script: fast ground
        # truth that the schedule itself is survivable and content-safe.
        twin = simulated_twin(spec, schedule)
        twin.run(until=twin_horizon(spec, schedule))
        sim_streams = streams_of(twin)
        sim_verdict = verify_trace_equivalence(
            reference, sim_streams,
            trial=f"sim-chaos-seed-{schedule.seed}", require_complete=True,
        )
        report["sim"] = {
            "deterministic": sim_verdict.deterministic,
            "outputs": sum(len(s) for s in sim_streams.values()),
        }
        if not sim_verdict.deterministic:
            log(sim_verdict.summary())
        log(f"chaos: sim replay "
            f"{'OK' if sim_verdict.deterministic else 'DIVERGED'} "
            f"({report['sim']['outputs']} outputs)")

    if not run_live:
        report["ok"] = bool(report.get("sim", {}).get("deterministic",
                                                      True))
        if twin is not None:
            report["metrics"] = twin.metrics.dump_json()
        _maybe_record(spec, schedule, record_dir, report, log)
        return report

    driver = ChaosDriver(schedule, FaultProxy(), spec, log=log,
                         fronted=plan_cluster_nodes(spec))
    budget = chaos_deadline_s(spec, schedule, deadline_s)
    log(f"chaos: live run (deadline {budget:.1f}s, "
        f"{len(driver._actions)} scheduled action(s)) ...")
    result = asyncio.run(run_networked(
        spec, ref_counts, deadline_s=budget, chaos=driver,
    ))

    report["metrics"] = result.pop("metrics", None)
    try:
        verdict = check_invariants(spec, schedule, reference, result)
    except UnrecoverableClusterError as exc:
        # Every red run ships its own reproducer bundle.
        record_chaos_bundle(
            spec, schedule,
            record_dir or f"chaos-failure-seed{schedule.seed}",
            verdict={"ok": False, "unrecoverable": str(exc)}, log=log,
        )
        raise
    report["live"] = {
        key: value for key, value in result.items()
        if key in ("counts", "complete", "error", "killed", "stutter",
                   "elapsed_s", "child_exit_codes", "epoch_resets",
                   "incarnations", "channel_counters", "chaos",
                   "audit_reports", "detector", "lifecycle")
    }
    report["verdict"] = verdict
    report["ok"] = verdict["ok"] and report.get("sim", {}).get(
        "deterministic", True
    )
    _maybe_record(spec, schedule, record_dir, report, log)
    return report


def _maybe_record(spec: ClusterSpec, schedule: ChaosSchedule,
                  record_dir: Optional[str], report: Dict,
                  log: Callable[[str], None]) -> None:
    """Record when asked to — and always on an invariant failure."""
    out_dir = record_dir
    if out_dir is None and not report.get("ok", True):
        out_dir = f"chaos-failure-seed{schedule.seed}"
    if out_dir is None:
        return
    path = record_chaos_bundle(spec, schedule, out_dir,
                               verdict=report.get("verdict"), log=log)
    if path is not None:
        report["bundle"] = str(path)
