"""Cluster topology: the spec every process derives its world from.

A :class:`ClusterSpec` is a JSON document describing one networked
deployment: the application, placement, seeds, timing knobs, workload,
and the address of every logical node.  Each process plans the *same*
:class:`~repro.runtime.app.Deployment` from it (wire ids are assigned in
declaration order, so identical specs yield identical wire tables in
every process) and constructs only the nodes :func:`plan_cluster_nodes`
assigns to it.

The spec also fully determines the workload: producers draw arrival
gaps and payloads from the deployment's named RNG streams, so a pure
in-process simulation of the same spec (:func:`reference_run`) produces
the exact output stream the networked cluster must reproduce — the
simulator doubles as the determinism oracle for the real deployment.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import re

from repro.apps.pipeline import (
    build_pipeline_app,
    lane_key,
    lane_suffix,
    reading_factory,
)
from repro.errors import SpecValidationError, WiringError
from repro.runtime.app import Application, Deployment
from repro.runtime.engine import EngineConfig
from repro.runtime.failure import FailureInjector
from repro.runtime.placement import (
    Placement,
    _rendezvous_weight,
    consistent_hash_placement,
    follower_node_id,
    follower_node_ids,
)
from repro.runtime.transport import Transport
from repro.sim.kernel import Simulator, ms
from repro.tools.verify_determinism import streams_of

#: Engine ids must stay out of the separators used by node/process
#: naming (``replica:<id>.<rank>`` nodes, ``replica-<id>.<rank>``
#: processes) and the ``proc:``/``ext:`` prefixes.
_ENGINE_ID_RE = re.compile(r"^[A-Za-z0-9_-]+$")


@dataclass
class ClusterSpec:
    """Everything a process needs to instantiate its share of a cluster."""

    #: Application name in :data:`APP_BUILDERS`.
    app: str = "pipeline"
    #: Keyword arguments for the application builder.
    app_args: Dict = field(default_factory=dict)
    #: Engine ids in order (e0, e1, ...).
    engines: List[str] = field(default_factory=lambda: ["e0", "e1"])
    #: Component -> engine id.
    placement: Dict[str, str] = field(default_factory=dict)
    #: Passive followers per engine: the size of each replication
    #: group's rank-ordered succession line (0 disables
    #: checkpoint/heartbeat and failover).
    replicas: int = 1
    master_seed: int = 7
    #: Simulated ticks per real nanosecond (0.1 => 1 ms-tick per 10 ms).
    speed: float = 0.1
    checkpoint_interval_ms: float = 25.0
    heartbeat_interval_ms: float = 10.0
    heartbeat_miss_limit: int = 3
    #: input_id -> workload parameters for its Poisson producer.
    workload: Dict[str, Dict] = field(default_factory=dict)
    #: node id -> ordered [host, port] candidates (primary first): the
    #: addresses peers dial.  Empty in a spec file; a live cluster's
    #: coordinator fills it from the ports its processes bound (see
    #: :func:`assign_addresses`) and hands it to every child with GO.
    addresses: Dict[str, List[Tuple[str, int]]] = field(default_factory=dict)
    #: Named transport timeouts/backoff (seconds).  Chaos runs compress
    #: these so partitions and kills are detected in test-scale wall
    #: time; see docs/chaos.md.
    connect_timeout_s: float = 2.0
    backoff_min_s: float = 0.02
    backoff_max_s: float = 0.5
    #: Cap on items per FRAME_BATCH on outbound channels (1 disables
    #: batching — every item rides its own ITEM frame).
    batch_max_items: int = 64
    #: Public ingress gateway config; empty dict disables the gateway.
    #: Keys (all optional): ``host``/``port`` — the address the gateway
    #: binds (default ``127.0.0.1`` and port 0, OS-assigned; clients
    #: dial what ``GatewayServer.start()`` returns, or a chaos proxy's
    #: front of it); ``max_inflight_msgs`` / ``max_inflight_bytes`` —
    #: global admission limits; ``rate_msgs_per_s`` / ``rate_burst`` —
    #: per-client token bucket; ``retry_ms`` — backoff hint carried by
    #: BUSY rejects; ``span_ms`` — nominal client-burst span used by
    #: seeded gateway chaos scenarios on workload-free specs.
    gateway: Dict = field(default_factory=dict)
    #: Recovery-time objective in simulated milliseconds; when set, each
    #: engine runs the adaptive cadence controller with this replay
    #: budget instead of a fixed checkpoint interval.
    recovery_target_ms: Optional[float] = None
    #: Continuous divergence audit mode: "off", "raise", or "heal".
    audit: str = "off"
    #: Audit before every Nth checkpoint capture.
    audit_every: int = 1

    # -- serialization --------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ClusterSpec":
        raw = json.loads(text)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise SpecValidationError(
                sorted(unknown)[0], sorted(unknown),
                f"unknown cluster spec keys (known: {sorted(known)})",
            )
        spec = cls(**raw)
        spec.addresses = {
            node: [(host, int(port)) for host, port in addrs]
            for node, addrs in spec.addresses.items()
        }
        if spec.gateway.get("port") is not None:
            spec.gateway["port"] = int(spec.gateway["port"])
        spec.validate()
        return spec

    def validate(self) -> None:
        """Structured range/shape checks; raises :class:`SpecValidationError`.

        ``from_json`` always validates, so a spec that crossed a process
        boundary is known-good; hand-constructed specs may call this
        explicitly before launch.
        """
        def bad(key, value, reason):
            raise SpecValidationError(key, value, reason)

        if not isinstance(self.engines, (list, tuple)) or not self.engines:
            bad("engines", self.engines, "must be a non-empty list")
        if len(set(self.engines)) != len(self.engines):
            bad("engines", self.engines, "engine ids must be unique")
        for engine_id in self.engines:
            if not isinstance(engine_id, str) or not _ENGINE_ID_RE.match(engine_id):
                bad("engines", engine_id,
                    "engine ids must match [A-Za-z0-9_-]+ (no '.', ':', '/')")
        if not isinstance(self.replicas, int) or self.replicas < 0:
            bad("replicas", self.replicas, "must be an integer >= 0")
        if not isinstance(self.speed, (int, float)) or self.speed <= 0:
            bad("speed", self.speed, "must be > 0")
        for key in ("checkpoint_interval_ms", "heartbeat_interval_ms",
                    "connect_timeout_s", "backoff_min_s", "backoff_max_s"):
            value = getattr(self, key)
            if not isinstance(value, (int, float)) or value <= 0:
                bad(key, value, "must be > 0")
        if self.backoff_max_s < self.backoff_min_s:
            bad("backoff_max_s", self.backoff_max_s,
                f"must be >= backoff_min_s ({self.backoff_min_s})")
        for key in ("heartbeat_miss_limit", "batch_max_items",
                    "audit_every"):
            value = getattr(self, key)
            if not isinstance(value, int) or value < 1:
                bad(key, value, "must be an integer >= 1")
        if self.recovery_target_ms is not None and (
                not isinstance(self.recovery_target_ms, (int, float))
                or self.recovery_target_ms <= 0):
            bad("recovery_target_ms", self.recovery_target_ms,
                "must be null or > 0")
        if self.audit not in ("off", "raise", "heal"):
            bad("audit", self.audit, "must be one of 'off', 'raise', 'heal'")
        if not isinstance(self.placement, dict):
            bad("placement", self.placement, "must be a component->engine map")
        engines = set(self.engines)
        for component, engine_id in self.placement.items():
            if engine_id not in engines:
                bad("placement", {component: engine_id},
                    f"targets unknown engine (engines: {sorted(engines)})")
        if not isinstance(self.workload, dict):
            bad("workload", self.workload, "must be an input->params map")

    # -- derived --------------------------------------------------------
    def replica_node(self, engine_id: str, rank: int = 0) -> str:
        return follower_node_id(engine_id, rank)

    def follower_nodes(self, engine_id: str) -> List[str]:
        """One engine's follower node ids, in promotion (rank) order."""
        return follower_node_ids(engine_id, self.replicas)

    def follower_process(self, engine_id: str, rank: int = 0) -> str:
        """Process name hosting one follower (``replica-<id>[.<rank>]``)."""
        return "replica-" + follower_node_id(engine_id, rank)[len("replica:"):]

    def follower_processes(self, engine_id: str) -> List[str]:
        """One engine's follower process names, in promotion order."""
        return [self.follower_process(engine_id, rank)
                for rank in range(self.replicas)]

    def succession_line(self, engine_id: str) -> List[str]:
        """The processes that may host an engine, in promotion order:
        ``engine-<id>``, then its followers by rank.  The follower of
        rank *r* probes and fences exactly the processes before it on
        the line: only those can have hosted the engine."""
        return [f"engine-{engine_id}"] + self.follower_processes(engine_id)

    def gateway_enabled(self) -> bool:
        """Whether this spec runs a public ingress gateway."""
        return bool(self.gateway)

    def engine_config(self) -> EngineConfig:
        if self.replicas <= 0:
            if self.recovery_target_ms is not None or self.audit != "off":
                raise WiringError(
                    "recovery_target_ms / audit require replicas >= 1 "
                    "(both ride on the checkpoint chain)"
                )
            return EngineConfig()
        target = (None if self.recovery_target_ms is None
                  else ms(self.recovery_target_ms))
        return EngineConfig(
            checkpoint_interval=ms(self.checkpoint_interval_ms),
            heartbeat_interval=ms(self.heartbeat_interval_ms),
            heartbeat_miss_limit=self.heartbeat_miss_limit,
            recovery_target=target,
            audit=self.audit,
            audit_every=self.audit_every,
        )

    def workload_span_ticks(self) -> int:
        """Expected ticks for the slowest producer to finish emitting."""
        span = 0
        for params in self.workload.values():
            span = max(span, int(params["n_messages"]
                                 * ms(params["mean_interarrival_ms"])))
        return span


def pipeline_spec(engines: int = 2, messages: int = 0, mean_ms: float = 1.0,
                  window: int = 10, **fields) -> ClusterSpec:
    """The pipeline-app spec every CLI and bench tool builds.

    ``messages`` seeded readings arrive ``mean_ms`` apart (simulated
    ms); ``messages=0`` leaves the workload empty for a gateway-fed run,
    whose clients submit to the single ``readings`` input.  ``fields``
    are further :class:`ClusterSpec` fields, passed through.

    With three or more engines a seeded pipeline is *sharded*: one lane
    per engine, lanes placed by consistent hashing (whole lanes travel
    together), and the message budget split across the lane inputs — so
    every engine leads a replication group with an independent output
    stream, the shape the group-failover scenarios need.  One or two
    engines, and gateway-fed runs, keep the single-lane contiguous
    layout.
    """
    engine_ids = [f"e{i}" for i in range(engines)]
    lanes = engines if engines > 2 and messages else 1
    app_args = {"window": window}
    placement: Dict[str, str] = {}
    if lanes > 1:
        app_args["lanes"] = lanes
        app = build_pipeline_app(**app_args)
        placement = sharded_placement(app.component_names(), engine_ids,
                                      group_key=lane_key)
    workload: Dict[str, Dict] = {}
    per, rem = divmod(messages, lanes)
    for lane in range(lanes):
        n = per + (1 if lane < rem else 0)
        if n:
            workload[f"readings{lane_suffix(lane)}"] = {
                "n_messages": n,
                "mean_interarrival_ms": mean_ms,
            }
    return ClusterSpec(app="pipeline", app_args=app_args, engines=engine_ids,
                       placement=placement, workload=workload, **fields)


#: name -> Application builder.  Extend to run other apps on the net
#: runtime; builders take the spec's ``app_args`` as keywords.
APP_BUILDERS = {
    "pipeline": build_pipeline_app,
}


def build_application(spec: ClusterSpec) -> Application:
    builder = APP_BUILDERS.get(spec.app)
    if builder is None:
        raise WiringError(f"unknown application {spec.app!r} "
                          f"(known: {sorted(APP_BUILDERS)})")
    return builder(**spec.app_args)


def contiguous_placement(component_names: List[str],
                         engine_ids: List[str]) -> Dict[str, str]:
    """Split a component chain into contiguous groups, one per engine.

    Keeps pipeline neighbours co-located (round-robin would cut every
    wire), while still crossing engine boundaries between groups — the
    interesting case for checkpoint/replay across real sockets.
    """
    if not engine_ids:
        raise WiringError("no engines to place onto")
    n = len(component_names)
    k = min(len(engine_ids), n)
    placement = {}
    for i, name in enumerate(component_names):
        placement[name] = engine_ids[min(i * k // n, k - 1)]
    return placement


def sharded_placement(component_names: List[str],
                      engine_ids: List[str],
                      group_key=None) -> Dict[str, str]:
    """Consistent-hash placement with bounded per-engine load.

    Rendezvous hashing (see
    :func:`repro.runtime.placement.consistent_hash_placement`) assigns
    each hash group to its highest-scoring engine, which for small group
    counts leaves the shards lopsided — or an engine empty, and the
    networked runtime hosts one process per engine with nothing to
    replay or fail over.  A deterministic bounded-load rebalance
    therefore caps every engine at ``ceil(G/k)`` groups and floors it at
    ``floor(G/k)``: overflowing engines shed the groups that score them
    *lowest*, each displaced group landing on the engine that scores it
    highest among those with room.  Groups the hash already placed
    within bounds never move, and the result depends only on the *sets*
    involved, so every process computes the same map.
    """
    placed = dict(consistent_hash_placement(
        list(component_names), list(engine_ids), group_key=group_key
    ).items())
    keyed = group_key or (lambda name: name)
    groups: Dict[str, List[str]] = {}
    for name in placed:
        groups.setdefault(keyed(name), []).append(name)
    owner = {key: placed[members[0]] for key, members in groups.items()}
    load: Dict[str, List[str]] = {e: [] for e in engine_ids}
    for key in sorted(owner):
        load[owner[key]].append(key)
    n_groups, n_engines = len(owner), len(engine_ids)
    cap = -(-n_groups // n_engines)
    floor = n_groups // n_engines

    def weight(engine_id: str, key: str):
        return _rendezvous_weight(engine_id, key)

    def move(donor: str, target: str, key: str) -> None:
        load[donor].remove(key)
        load[target].append(key)
        owner[key] = target
        for name in groups[key]:
            placed[name] = target

    while True:
        over = sorted(e for e in load if len(load[e]) > cap)
        if not over:
            break
        donor = max(over, key=lambda e: (len(load[e]), e))
        # Shed the group this engine was the weakest claim on.
        key = min(load[donor], key=lambda g: (weight(donor, g), g))
        room = [e for e in load if len(load[e]) < cap]
        move(donor, max(room, key=lambda e: (weight(e, key), e)), key)
    while True:
        under = sorted(e for e in load if len(load[e]) < floor)
        if not under:
            break
        target = under[0]
        donor = max(load, key=lambda e: (len(load[e]), e))
        key = max(load[donor], key=lambda g: (weight(target, g), g))
        move(donor, target, key)
    return placed


def _placement_of(spec: ClusterSpec, app: Application) -> Dict[str, str]:
    return dict(spec.placement) or contiguous_placement(
        app.component_names(), spec.engines
    )


def component_placement(spec: ClusterSpec) -> Dict[str, str]:
    """component name -> engine id, as :func:`build_deployment` places it.

    Cheap (no deployment is built): resolves the spec's explicit
    placement or the default contiguous one.  Used by the chaos
    schedule generator to aim state-corruption faults at the engine
    actually hosting a given component, and by
    :func:`sink_upstream_engines` to map sinks to replication groups.
    """
    return _placement_of(spec, build_application(spec))


def sink_upstream_engines(spec: ClusterSpec) -> Dict[str, set]:
    """sink -> set of engine ids anywhere upstream of it.

    A sink is *independent* of a failing group G only when no component
    feeding it (transitively) is placed on G — the condition under which
    the non-victim liveness invariant may demand deliveries during G's
    failover window.  Lane-sharded pipelines keep each lane's whole
    chain on one engine, so each sink depends on exactly one group.
    """
    app = build_application(spec)
    placement = component_placement(spec)
    upstream_of: Dict[str, set] = {}
    for decl in app._wires:
        if decl.kind in ("data", "call") and decl.src and decl.dst:
            upstream_of.setdefault(decl.dst, set()).add(decl.src)
            if decl.kind == "call":  # the reply wire makes this mutual
                upstream_of.setdefault(decl.src, set()).add(decl.dst)
    result: Dict[str, set] = {}
    for external_id, src in app.external_output_sources().items():
        seen, frontier = set(), [src]
        while frontier:
            name = frontier.pop()
            if name in seen:
                continue
            seen.add(name)
            frontier.extend(upstream_of.get(name, ()))
        result[external_id] = {placement[name] for name in seen}
    return result


def build_deployment(spec: ClusterSpec,
                     sim: Optional[Simulator] = None,
                     network: Optional[Transport] = None,
                     hosted: Optional[Iterable[str]] = None) -> Deployment:
    """The deployment object for this spec.

    By default the whole simulated deployment.  A live process passes
    its own ``network`` and the node ids it hosts (see
    :func:`repro.net.node.host_deployment`) and gets only those nodes,
    built on that transport; wire ids, estimators and RNG streams are
    the same whatever is hosted.
    """
    app = build_application(spec)
    return Deployment(
        app, Placement(_placement_of(spec, app)),
        engine_config=spec.engine_config(),
        sim=sim,
        master_seed=spec.master_seed,
        followers=spec.replicas,
        network=network,
        hosted=hosted,
    )


def attach_workload(dep: Deployment, spec: ClusterSpec) -> None:
    """Attach the spec's Poisson producers to a deployment.

    Producer randomness comes from the deployment's named streams
    (``producer:<input_id>``), so any two deployments built from the
    same spec — simulated or networked — generate byte-identical
    workloads.
    """
    for input_id, params in spec.workload.items():
        factory = reading_factory(
            n_devices=int(params.get("n_devices", 8)),
            n_fields=int(params.get("n_fields", 4)),
        )
        dep.add_poisson_producer(
            input_id, factory,
            mean_interarrival=ms(params["mean_interarrival_ms"]),
            max_messages=int(params["n_messages"]),
        )


#: Simulated drain margin after the last replayed external message.
TWIN_DRAIN_TICKS = ms(2000)


def simulated_twin(spec: ClusterSpec, schedule=None,
                   external: Optional[Dict[str, List[Tuple]]] = None
                   ) -> Deployment:
    """The pure simulation of a run, built but not yet run.

    Workload-bearing specs generate their input from the deployment's
    seeded producer streams (byte-identical by construction); specs
    without a workload (gateway runs) replay ``external`` — per-input
    ``(seq, vt, payload)`` logs — by offering each payload at its
    recorded virtual time.  At tick ``vt`` the ingress stamps
    ``max(now, last_vt + 1) = vt`` (recorded stamps are strictly
    increasing per wire), so the replayed ingress log is the recorded
    one exactly.  A chaos ``schedule``, when given, is lowered onto the
    simulator through the same :class:`FailureInjector` path live runs
    are judged against.  Run it to :func:`twin_horizon`.
    """
    dep = build_deployment(spec)
    if spec.workload:
        attach_workload(dep, spec)
    elif external:
        for input_id, entries in sorted(external.items()):
            ingress = dep.ingresses.get(input_id)
            if ingress is None:
                raise WiringError(f"external log names unknown input "
                                  f"{input_id!r}")
            for _seq, vt, payload in entries:
                dep.sim.at(vt, (lambda ing=ingress, p=payload:
                                ing.offer(p)))
    if schedule is not None:
        FailureInjector(dep).apply_schedule(schedule.sim_events(spec))
    return dep


def twin_horizon(spec: ClusterSpec, schedule=None,
                 external: Optional[Dict[str, List[Tuple]]] = None) -> int:
    """The tick :func:`simulated_twin` runs to.

    A generous drain margin after the last scheduled arrival (and the
    schedule's last fault), so on any non-overloaded spec the streams
    are complete.
    """
    if spec.workload:
        span = 2 * spec.workload_span_ticks()
        if schedule is not None:
            return span + int(ms(schedule.end_ms())) + ms(1000)
        return span + ms(500)
    last_vt = max((vt for entries in (external or {}).values()
                   for _seq, vt, _p in entries), default=0)
    return last_vt + TWIN_DRAIN_TICKS


def reference_run(spec: ClusterSpec, schedule=None,
                  external: Optional[Dict[str, List[Tuple]]] = None
                  ) -> Dict[str, List[Tuple]]:
    """Run the spec's simulated twin; return per-sink output streams.

    These streams are the byte-level ground truth for the networked
    runs.  Without a ``schedule`` nothing fails, so the twin is the
    paper's unreplicated deployment: no followers, hence no checkpoint
    is captured, shipped or folded.  Replication is output-transparent,
    so the streams are the ones the replicated twin would give (tier-1
    checks this), and a live cluster, followers included, is judged
    against the deployment it must be indistinguishable from.  A twin
    that lowers a schedule keeps its followers: a kill promotes one.
    """
    if schedule is None:
        spec = dataclasses.replace(spec, replicas=0, recovery_target_ms=None,
                                   audit="off")
    dep = simulated_twin(spec, schedule, external)
    dep.run(until=twin_horizon(spec, schedule, external))
    return streams_of(dep)


def plan_cluster_nodes(spec: ClusterSpec) -> Dict[str, List[str]]:
    """process name -> node ids it hosts at startup.

    Processes: ``coordinator`` (every ingress and consumer), one
    ``engine-<id>`` per engine, and one ``replica-<id>[.<rank>]`` per
    follower of each replication group.  Every process additionally
    hosts a ``proc:<name>`` control node for the GO/shutdown barrier.
    This table is what a process name means: the ids are the ``hosted``
    argument of the process's :func:`build_deployment`.
    """
    app = build_application(spec)
    layout: Dict[str, List[str]] = {
        "coordinator": (
            [f"ext:{input_id}" for input_id in app.external_input_targets()]
            + list(app.external_output_sources())
        )
    }
    for engine_id in spec.engines:
        layout[f"engine-{engine_id}"] = [engine_id]
        for rank in range(spec.replicas):
            layout[spec.follower_process(engine_id, rank)] = [
                spec.replica_node(engine_id, rank)
            ]
    return layout


def assign_addresses(spec: ClusterSpec,
                     listen_ports: Dict[str, Tuple[str, int]]) -> None:
    """Fill ``spec.addresses`` from per-process dial addresses.

    ``listen_ports`` maps process name -> (host, port): the port the
    process bound, or a chaos proxy's front of it.  An engine node's
    candidates are its :meth:`~ClusterSpec.succession_line`, so a
    channel that loses the leader walks the candidate list straight
    down the group's line; every other node lives in exactly one
    process.
    """
    addresses: Dict[str, List[Tuple[str, int]]] = {}
    for process, nodes in plan_cluster_nodes(spec).items():
        for node in nodes:
            addresses[node] = [listen_ports[process]]
        addresses[f"proc:{process}"] = [listen_ports[process]]
    for engine_id in spec.engines:
        addresses[engine_id] = [listen_ports[process] for process
                                in spec.succession_line(engine_id)
                                if process in listen_ports]
    spec.addresses = addresses
