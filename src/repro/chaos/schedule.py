"""Seeded fault schedules: one JSON format for simulator and live runs.

A :class:`ChaosSchedule` is a list of timed fault events.  Times are
*simulated milliseconds* on the cluster's shared tick clock (1 ms =
10^6 ticks), which is the one timebase both worlds understand: the
simulator applies an event at tick ``ms(at_ms)``, and the live runner
applies it when the shared :class:`~repro.net.clock.RealtimeClock`
reaches the same tick (``at_ms / (1000 * speed)`` wall seconds after
GO).  A schedule is fully determined by its seed: re-running the same
seed reproduces the same scenario, victims, and timings, and
:meth:`ChaosSchedule.log_lines` renders it in a stable, diffable form.

Event kinds
===========

==============  ========================================================
``kill``        SIGKILL ``target`` process (fail-stop)
``stop``        SIGSTOP ``target`` (process freeze; heartbeats stop)
``cont``        SIGCONT ``target`` (a frozen stale engine resumes — and
                must be fenced, not believed)
``partition``   blackhole both directions of ``link`` for
                ``duration_ms``, then heal that link
``latency``     add ``delay_ms`` one-way delay on ``link`` for
                ``duration_ms``
``throttle``    cap ``link`` at ``rate_bps`` bytes/second for
                ``duration_ms``
``reset``       hard-close every live connection on ``link`` once
``half_open``   for ``duration_ms``, new connections on ``link`` are
                accepted but never answered (handshake stalls)
``heal``        clear every link fault immediately
``impair``      steady ``loss_prob``/``dup_prob`` on ``link`` (simulator
                frame faults; the live lowering is periodic resets —
                TCP's version of a lossy link)
``corrupt``     plant an untracked state mutation in ``target``'s
                engine (optionally naming the victim ``component``) —
                invisible to delta checkpoints, caught only by the
                divergence audit (``--audit``)
==============  ========================================================

``target`` is a process name (``engine-e0``, ``replica-e0``,
``coordinator``); ``link`` is an unordered pair of process names.

Simulator lowering (:meth:`ChaosSchedule.sim_events`) keeps only the
events with *content* consequences — kills, partitions, impairments —
because the reliability protocols hide pure timing faults from the
output stream by design, and content is exactly what the determinism
oracle checks.  Process-level targets become node-level targets: the
nodes :func:`repro.net.topology.plan_cluster_nodes` starts the process
with, adjusted for the promotions the schedule's kills have caused by
then — a link fault cuts a process where its engines *are*.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ChaosError, ScenarioTooShortError
from repro.net.topology import (
    ClusterSpec,
    component_placement,
    plan_cluster_nodes,
)
from repro.sim.kernel import ms

#: Schedule document version; bump on incompatible format changes.
SCHEDULE_VERSION = 1

_PROCESS_KINDS = ("kill", "stop", "cont", "corrupt")
_LINK_KINDS = ("partition", "latency", "throttle", "reset", "half_open",
               "impair")


@dataclass
class ChaosEvent:
    """One timed fault."""

    kind: str
    at_ms: float
    target: Optional[str] = None
    link: Optional[Tuple[str, str]] = None
    duration_ms: Optional[float] = None
    delay_ms: Optional[float] = None
    rate_bps: Optional[float] = None
    loss_prob: Optional[float] = None
    dup_prob: Optional[float] = None
    #: "corrupt" only: name of the component whose state to mutate
    #: (None = auto-pick the first corruptible cell on the engine).
    component: Optional[str] = None

    def validate(self) -> None:
        if self.kind in _PROCESS_KINDS:
            if not self.target:
                raise ChaosError(f"{self.kind} event needs a target")
        elif self.kind in _LINK_KINDS:
            if not self.link or len(self.link) != 2:
                raise ChaosError(f"{self.kind} event needs a 2-process link")
        elif self.kind != "heal":
            raise ChaosError(f"unknown event kind {self.kind!r}")
        if self.at_ms < 0:
            raise ChaosError(f"{self.kind} event at negative time")

    def to_dict(self) -> Dict:
        out: Dict = {"kind": self.kind, "at_ms": round(float(self.at_ms), 3)}
        if self.target is not None:
            out["target"] = self.target
        if self.link is not None:
            out["link"] = list(self.link)
        if self.component is not None:
            out["component"] = self.component
        for key in ("duration_ms", "delay_ms", "rate_bps",
                    "loss_prob", "dup_prob"):
            value = getattr(self, key)
            if value is not None:
                out[key] = round(float(value), 6)
        return out

    @classmethod
    def from_dict(cls, raw: Dict) -> "ChaosEvent":
        known = {"kind", "at_ms", "target", "link", "duration_ms",
                 "delay_ms", "rate_bps", "loss_prob", "dup_prob",
                 "component"}
        unknown = set(raw) - known
        if unknown:
            raise ChaosError(f"unknown event keys: {sorted(unknown)}")
        link = raw.get("link")
        event = cls(
            kind=raw["kind"], at_ms=float(raw["at_ms"]),
            target=raw.get("target"),
            link=tuple(link) if link else None,
            duration_ms=raw.get("duration_ms"),
            delay_ms=raw.get("delay_ms"), rate_bps=raw.get("rate_bps"),
            loss_prob=raw.get("loss_prob"), dup_prob=raw.get("dup_prob"),
            component=raw.get("component"),
        )
        event.validate()
        return event

    def log_line(self) -> str:
        """One stable, diffable line describing this event."""
        parts = [f"t=+{self.at_ms:09.3f}ms", self.kind]
        if self.target:
            parts.append(self.target)
        if self.link:
            parts.append("<->".join(self.link))
        if self.component:
            parts.append(f"component={self.component}")
        for key in ("duration_ms", "delay_ms", "rate_bps",
                    "loss_prob", "dup_prob"):
            value = getattr(self, key)
            if value is not None:
                parts.append(f"{key}={value:g}")
        return " ".join(parts)


@dataclass
class ChaosSchedule:
    """A seeded, serializable fault script."""

    events: List[ChaosEvent] = field(default_factory=list)
    seed: Optional[int] = None
    scenario: str = "custom"

    # -- serialization --------------------------------------------------
    def to_json(self) -> str:
        return json.dumps({
            "version": SCHEDULE_VERSION,
            "seed": self.seed,
            "scenario": self.scenario,
            "events": [e.to_dict() for e in self.ordered()],
        }, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ChaosSchedule":
        raw = json.loads(text)
        version = raw.get("version", SCHEDULE_VERSION)
        if version != SCHEDULE_VERSION:
            raise ChaosError(f"schedule version {version} != "
                             f"{SCHEDULE_VERSION}")
        return cls(
            events=[ChaosEvent.from_dict(e) for e in raw.get("events", [])],
            seed=raw.get("seed"),
            scenario=raw.get("scenario", "custom"),
        )

    # -- views ----------------------------------------------------------
    def ordered(self) -> List[ChaosEvent]:
        """Events in application order (time, then declaration order)."""
        indexed = sorted(enumerate(self.events),
                         key=lambda pair: (pair[1].at_ms, pair[0]))
        return [event for _idx, event in indexed]

    def log_lines(self) -> List[str]:
        """The diffable schedule log (acceptance: same seed, same log)."""
        header = f"schedule scenario={self.scenario} seed={self.seed}"
        return [header] + [e.log_line() for e in self.ordered()]

    def end_ms(self) -> float:
        """Simulated ms at which the last fault (incl. windows) ends."""
        end = 0.0
        for event in self.events:
            end = max(end, event.at_ms + (event.duration_ms or 0.0))
        return end

    def stall_budget_s(self, speed: float) -> float:
        """Extra wall-clock the live run may stall behind the schedule.

        Partition/stop windows pause delivery (and, via backpressure,
        the producers), so the run's deadline must stretch by roughly
        the summed window lengths.
        """
        stalled_ms = sum(event.duration_ms or 0.0
                         for event in self.events
                         if event.kind in ("partition", "stop",
                                           "half_open"))
        return stalled_ms / (1000.0 * speed)

    # -- survivability ---------------------------------------------------
    def lost_state(self, spec: ClusterSpec) -> Optional[str]:
        """Name the state an unsurvivable schedule destroys, else None.

        A schedule is unsurvivable when, for some engine, the engine
        process and *every* follower process of its replication group
        are dead at the end of the schedule (killed, or stopped and
        never continued) — the volatile engine state, every shipped
        checkpoint chain, and the whole succession line are then gone.
        With replication disabled, any engine kill is unsurvivable.
        """
        dead: Dict[str, bool] = {}
        for event in self.ordered():
            if event.kind in ("kill", "stop"):
                dead[event.target] = True
            elif event.kind == "cont":
                dead.pop(event.target, None)
        for engine_id in spec.engines:
            engine_dead = dead.get(f"engine-{engine_id}", False)
            followers = spec.follower_processes(engine_id)
            if engine_dead and not followers:
                return (f"engine {engine_id}: killed with no followers "
                        f"configured; volatile state and checkpoint "
                        f"chain lost")
            if engine_dead and all(dead.get(p, False) for p in followers):
                return (f"engine {engine_id}: engine-{engine_id} and all "
                        f"{len(followers)} follower process(es) dead; "
                        f"checkpoint chains and succession line lost")
        return None

    # -- simulator lowering ----------------------------------------------
    def sim_events(self, spec: ClusterSpec) -> List[Dict]:
        """Lower to node-level simulator events.

        Returns dicts consumed by
        :meth:`repro.runtime.failure.FailureInjector.apply_schedule`.
        Timing-only kinds are dropped (see module docstring).

        Kills are lowered promotion-aware.  Killing the process that
        *currently* hosts an engine — the engine process, or, after an
        earlier kill, the follower that took over — lowers to a
        simulator kill of that engine; killing an idle follower lowers
        to nothing, because the simulated deployment keeps followers as
        stable-side state (:meth:`lost_state` covers the consequences).
        Each lowered kill carries ``promote``: whether a live follower
        is left to take over.  A kill can land while the follower it
        names is still taking over, its engine down and awaiting
        detection in the twin.  Then the takeover dies with its host:
        with a follower left, the next one takes over (the twin's
        pending detection stands for it); with none left, the twin
        leaves the group unpromoted, as the live cluster does.  Either
        way the twin does not raise
        (:meth:`~repro.runtime.failure.FailureInjector.kill_host`).

        Partitions and impairments cut each process at the nodes it
        hosts when they fire: its startup nodes, less the engines that
        moved away, plus the engines promoted into it — the layout the
        live proxy cuts.
        """
        nodes_of = plan_cluster_nodes(spec)
        lowered: List[Dict] = []
        current_host = {e: f"engine-{e}" for e in spec.engines}
        dead_procs: set = set()

        def hosted(process: str) -> List[str]:
            startup = nodes_of.get(process, [])
            return ([n for n in startup
                     if current_host.get(n, process) == process]
                    + [e for e, host in current_host.items()
                       if host == process and e not in startup])

        for event in self.ordered():
            at_ticks = int(ms(event.at_ms))
            if event.kind == "kill":
                dead_procs.add(event.target)
                victim = next((e for e, host in current_host.items()
                               if host == event.target), None)
                if victim is not None:
                    current_host[victim] = next(
                        (p for p in spec.follower_processes(victim)
                         if p not in dead_procs), None,
                    )
                    lowered.append({
                        "kind": "kill", "at_ticks": at_ticks,
                        "node": victim,
                        "promote": current_host[victim] is not None,
                    })
            elif event.kind == "partition":
                a, b = event.link
                lowered.append({
                    "kind": "partition", "at_ticks": at_ticks,
                    "duration_ticks": int(ms(event.duration_ms or 0.0)),
                    "a_nodes": hosted(a),
                    "b_nodes": hosted(b),
                })
            elif event.kind == "impair":
                a, b = event.link
                for src in hosted(a):
                    for dst in hosted(b):
                        for s, d in ((src, dst), (dst, src)):
                            lowered.append({
                                "kind": "impair", "at_ticks": at_ticks,
                                "src": s, "dst": d,
                                "loss_prob": event.loss_prob or 0.0,
                                "dup_prob": event.dup_prob or 0.0,
                            })
            elif (event.kind == "corrupt"
                  and event.target.startswith("engine-")):
                # Content fault by construction: the mutation bypasses
                # dirty tracking, so only the audit distinguishes the
                # run from a clean one.  (The generator never combines
                # corrupt with a kill of the same engine — the live
                # no-op against a dead process has no sim equivalent.)
                lowered.append({
                    "kind": "corrupt", "at_ticks": at_ticks,
                    "node": event.target[len("engine-"):],
                    "component": event.component,
                })
        return lowered

    # -- expectations for the invariant checker --------------------------
    def expected_hosts(self, spec: ClusterSpec) -> Dict[str, Optional[str]]:
        """engine node id -> process expected to host it at the end.

        ``None`` means "either is legitimate" (e.g. a SIGSTOP'd engine
        that was continued: promotion may or may not have raced the
        freeze, and the fence resolves the duel either way).
        """
        expected: Dict[str, Optional[str]] = {}
        killed = {e.target for e in self.events if e.kind == "kill"}
        stopped = {e.target for e in self.events
                   if e.kind in ("stop", "cont")}
        for engine_id in spec.engines:
            engine_proc = f"engine-{engine_id}"
            if engine_proc in killed and spec.replicas >= 1:
                # First surviving follower in the succession line hosts
                # the engine at the end (earlier ranks killed too mean
                # repeated promotions down the chain).
                expected[engine_id] = next(
                    (p for p in spec.follower_processes(engine_id)
                     if p not in killed), None,
                )
            elif engine_proc in stopped:
                expected[engine_id] = None
            else:
                expected[engine_id] = engine_proc
        return expected


# ----------------------------------------------------------------------
# Seeded generation
# ----------------------------------------------------------------------


def _span_ms(spec: ClusterSpec) -> float:
    """Workload span in simulated ms (the canvas faults are drawn on)."""
    return max(1.0, spec.workload_span_ticks() / 1e6)


def _detection_ms(spec: ClusterSpec) -> float:
    """Simulated ms for a heartbeat timeout to fire."""
    return spec.heartbeat_interval_ms * (spec.heartbeat_miss_limit + 1)


def _pick_engine(rng: random.Random, spec: ClusterSpec) -> str:
    return rng.choice(list(spec.engines))


def _gen_kill_active(rng, spec):
    victim = _pick_engine(rng, spec)
    return [ChaosEvent("kill", rng.uniform(0.30, 0.60) * _span_ms(spec),
                       target=f"engine-{victim}")]


def _gen_kill_replica(rng, spec):
    victim = _pick_engine(rng, spec)
    return [ChaosEvent("kill", rng.uniform(0.20, 0.50) * _span_ms(spec),
                       target=spec.follower_process(victim))]


def _gen_partition_heal(rng, spec):
    span = _span_ms(spec)
    victim = _pick_engine(rng, spec)
    peers = [f"engine-{e}" for e in spec.engines if e != victim]
    other = rng.choice(["coordinator"] + peers)
    return [ChaosEvent("partition", rng.uniform(0.25, 0.45) * span,
                       link=(other, f"engine-{victim}"),
                       duration_ms=rng.uniform(0.15, 0.30) * span)]


def _gen_double_fault(rng, spec):
    span = _span_ms(spec)
    engines = list(spec.engines)
    victim = rng.choice(engines)
    others = [e for e in engines if e != victim] or [victim]
    bystander = rng.choice(others)
    events = [ChaosEvent("kill", rng.uniform(0.30, 0.50) * span,
                         target=f"engine-{victim}")]
    if spec.replicas >= 1 and bystander != victim:
        # A *different* engine's replica dies too: still survivable.
        events.append(ChaosEvent(
            "kill", rng.uniform(0.20, 0.60) * span,
            target=spec.follower_process(bystander),
        ))
    return events


def _gen_partition_promotion(rng, spec):
    """Kill an engine, then cut the promoting replica off mid-recovery."""
    span = _span_ms(spec)
    victim = _pick_engine(rng, spec)
    kill_at = rng.uniform(0.30, 0.45) * span
    cut_at = kill_at + _detection_ms(spec) * rng.uniform(0.8, 1.4)
    return [
        ChaosEvent("kill", kill_at, target=f"engine-{victim}"),
        ChaosEvent("partition", cut_at,
                   link=("coordinator", spec.follower_process(victim)),
                   duration_ms=rng.uniform(0.10, 0.20) * span),
    ]


def _gen_latency_throttle(rng, spec):
    span = _span_ms(spec)
    victim = _pick_engine(rng, spec)
    link = ("coordinator", f"engine-{victim}")
    return [
        ChaosEvent("latency", rng.uniform(0.15, 0.30) * span, link=link,
                   delay_ms=rng.uniform(5.0, 20.0),
                   duration_ms=rng.uniform(0.20, 0.35) * span),
        ChaosEvent("reset", rng.uniform(0.45, 0.60) * span, link=link),
        ChaosEvent("throttle", rng.uniform(0.62, 0.72) * span, link=link,
                   rate_bps=rng.uniform(64, 256) * 1024,
                   duration_ms=rng.uniform(0.10, 0.20) * span),
        ChaosEvent("heal", rng.uniform(0.85, 0.95) * span),
    ]


def _gen_stop_cont(rng, spec):
    """Freeze an engine past its heartbeat timeout, then thaw it.

    The replica promotes while the engine is frozen; on SIGCONT the
    stale engine resumes under a promoted identity and must be fenced.
    """
    span = _span_ms(spec)
    victim = _pick_engine(rng, spec)
    stop_at = rng.uniform(0.30, 0.45) * span
    frozen_ms = _detection_ms(spec) * rng.uniform(2.0, 3.0)
    return [
        ChaosEvent("stop", stop_at, target=f"engine-{victim}"),
        ChaosEvent("cont", stop_at + frozen_ms, target=f"engine-{victim}"),
    ]


def _gen_corrupt_state(rng, spec):
    """Plant untracked state corruption the divergence audit must heal.

    Prefers the pipeline's ``enricher``: its MapCell state is shipped
    through dirty-tracked deltas but never read back into the output
    path, so the corruption is invisible both to checkpoints *and* to
    the byte-identity oracle — only the audit (``--audit``) can tell
    this run from a clean one, which is exactly what the scenario
    exercises.  Falls back to auto-picking a cell on a random engine
    for non-pipeline apps.

    A draw outside :func:`_corrupt_window` is moved into it; a seeded
    workload too short to have one is refused
    (:class:`~repro.errors.ScenarioTooShortError`).
    """
    victim = _pick_engine(rng, spec)
    span = _span_ms(spec)
    at = rng.uniform(0.25, 0.45) * span
    window = _corrupt_window(spec)
    if window is None and spec.workload:
        # n * mean must exceed 3 * mean * sqrt(n) by two intervals.
        mean = max(p["mean_interarrival_ms"] for p in spec.workload.values())
        root = (3 + (9 + 8 * spec.checkpoint_interval_ms / mean) ** 0.5) / 2
        need = mean * math.ceil(root ** 2)
        raise ScenarioTooShortError(
            f"corrupt_state needs a workload span of at least {need:g} "
            f"simulated ms; this spec's is {span:g} ms", need)
    if window is not None and not window[0] < at < window[1]:
        low, high = window
        at = low + (high - low) * ((at / span - 0.25) / 0.4 + 0.25)
    component = None
    placement = component_placement(spec)
    if "enricher" in placement:
        component = "enricher"
        victim = placement["enricher"]
    return [ChaosEvent("corrupt", at, target=f"engine-{victim}",
                       component=component)]


def _corrupt_window(spec: ClusterSpec) -> Optional[Tuple[float, float]]:
    """Where an audit sees a corruption: after the victim's first (full)
    checkpoint, which would write it into the chain, and before the last
    boundary the run surely reaches (the span less three standard
    deviations of the workload's end); None if no boundary lies between."""
    every = spec.checkpoint_interval_ms
    spread = 3 * max((p["mean_interarrival_ms"] * p["n_messages"] ** 0.5
                      for p in spec.workload.values()), default=0.0)
    last_audit = every * ((_span_ms(spec) - spread) // every)
    return (every, last_audit) if last_audit > every else None


def _component_hosting_engines(spec: ClusterSpec) -> List[str]:
    """Engines hosting at least one component, in spec order."""
    placed = set(component_placement(spec).values())
    hosting = [e for e in spec.engines if e in placed]
    return hosting or list(spec.engines)


def _gen_group_leader_kill(rng, spec):
    """Kill one group's leader while load flows through the others.

    Targets an engine that actually hosts components (hash placement on
    a sharded spec can differ from spec order), so the kill stalls a
    real lane; the invariant checker then demands group-local
    convergence *and* deliveries from every independent group during
    the failover window.
    """
    victim = rng.choice(_component_hosting_engines(spec))
    return [ChaosEvent("kill", rng.uniform(0.35, 0.55) * _span_ms(spec),
                       target=f"engine-{victim}")]


def _gen_leader_then_follower_kill(rng, spec):
    """Kill a leader, then its rank-0 follower after it promoted.

    The second kill lands one-to-two detection windows after the first —
    enough for rank 0 to promote and resume heartbeats — so it takes
    down the *promoted* engine, and the group must fail over a second
    time into rank 1 (whose rank-scaled detector timeout makes it act
    only once both predecessors are gone).  On specs with fewer than two
    followers the second kill is withheld: the schedule stays
    survivable by construction.
    """
    span = _span_ms(spec)
    victim = rng.choice(_component_hosting_engines(spec))
    kill_at = rng.uniform(0.20, 0.30) * span
    events = [ChaosEvent("kill", kill_at, target=f"engine-{victim}")]
    if spec.replicas >= 2:
        follow_at = kill_at + _detection_ms(spec) * rng.uniform(1.1, 1.6)
        events.append(ChaosEvent("kill", follow_at,
                                 target=spec.follower_process(victim, 0)))
    return events


def _gen_unsurvivable(rng, spec):
    """Kill an engine *and* its replica: state is genuinely lost."""
    span = _span_ms(spec)
    victim = _pick_engine(rng, spec)
    kill_at = rng.uniform(0.30, 0.50) * span
    return [
        ChaosEvent("kill", kill_at, target=f"engine-{victim}"),
        ChaosEvent("kill", kill_at + rng.uniform(0.0, 0.05) * span,
                   target=spec.follower_process(victim)),
    ]


def _gen_gateway_client_reset(rng, spec):
    """Hard-close every live client connection to the gateway mid-burst.

    Exercises the gateway's session-survives-connection contract: the
    reset rides the ``("clients", "gateway")`` link of the fault proxy
    (client connections are classified by their GW_HELLO group), so
    clients must reconnect, retransmit every unanswered req, and be
    re-answered from the dedup table without a single double-stamp.

    Gateway specs drive load from external wall-clock clients, not from
    a seeded workload, so ``_span_ms`` is meaningless here; the time
    canvas comes from ``spec.gateway["span_ms"]`` (the harness sets it
    to the planned client-burst span).
    """
    span = _span_ms(spec)
    if span <= 1.0:
        span = float(spec.gateway.get("span_ms", 400.0))
    return [ChaosEvent("reset", rng.uniform(0.35, 0.65) * span,
                       link=("clients", "gateway"))]


#: name -> generator.  Order matters: ``seed % len`` picks the scenario,
#: so consecutive seeds sweep the whole failure model.  ``unsurvivable``
#: is deliberately *not* in the rotation — it is only run when asked
#: for, to prove graceful degradation.
SCENARIOS = {
    "kill_active": _gen_kill_active,
    "kill_replica": _gen_kill_replica,
    "partition_heal": _gen_partition_heal,
    "double_fault": _gen_double_fault,
    "partition_promotion": _gen_partition_promotion,
    "latency_throttle": _gen_latency_throttle,
    "stop_cont": _gen_stop_cont,
    # Appended in arrival order so earlier seeds keep their historical
    # scenarios (seed % len picks from this rotation).
    "corrupt_state": _gen_corrupt_state,
    "group_leader_kill": _gen_group_leader_kill,
    "leader_then_follower_kill": _gen_leader_then_follower_kill,
}

EXTRA_SCENARIOS = {
    "unsurvivable": _gen_unsurvivable,
    "gateway_client_reset": _gen_gateway_client_reset,
}

_ROTATION = list(SCENARIOS)


def generate_schedule(seed: int, spec: ClusterSpec,
                      scenario: Optional[str] = None) -> ChaosSchedule:
    """The deterministic schedule for one seed (and optional scenario).

    Everything — scenario choice, victims, timings, fault parameters —
    is drawn from ``random.Random(seed)``, so the same seed always
    yields a byte-identical schedule for the same spec.
    """
    rng = random.Random(seed)
    if scenario is None:
        scenario = _ROTATION[seed % len(_ROTATION)]
    generator = SCENARIOS.get(scenario) or EXTRA_SCENARIOS.get(scenario)
    if generator is None:
        known = sorted(SCENARIOS) + sorted(EXTRA_SCENARIOS)
        raise ChaosError(f"unknown scenario {scenario!r} (known: {known})")
    events = generator(rng, spec)
    for event in events:
        event.validate()
    return ChaosSchedule(events=events, seed=seed, scenario=scenario)
