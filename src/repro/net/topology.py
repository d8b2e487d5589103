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
from repro.runtime.placement import (
    Placement,
    _rendezvous_weight,
    consistent_hash_placement,
    follower_node_id,
    follower_node_ids,
)
from repro.runtime.transport import Transport
from repro.sim.kernel import Simulator, ms

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
    #: Passive replicas per engine (0 disables checkpoint/heartbeat).
    replicas: int = 1
    #: Followers per replication group.  ``None`` falls back to
    #: ``replicas`` (the legacy single-follower knob); an explicit value
    #: sizes each engine's rank-ordered follower chain.
    followers_per_group: Optional[int] = None
    master_seed: int = 7
    #: Simulated ticks per real nanosecond (0.1 => 1 ms-tick per 10 ms).
    speed: float = 0.1
    checkpoint_interval_ms: float = 25.0
    full_checkpoint_every: int = 4
    heartbeat_interval_ms: float = 10.0
    heartbeat_miss_limit: int = 3
    #: input_id -> workload parameters for its Poisson producer.
    workload: Dict[str, Dict] = field(default_factory=dict)
    #: node id -> ordered [host, port] candidates (primary first).
    addresses: Dict[str, List[Tuple[str, int]]] = field(default_factory=dict)
    #: process name -> [host, port] to *bind*.  Empty means "bind the
    #: address everyone dials" (``addresses['proc:<name>'][0]``); the
    #: chaos runner fills it so processes bind their real ports while
    #: every dialed address routes through a fault proxy.
    listen: Dict[str, Tuple[str, int]] = field(default_factory=dict)
    #: Named transport timeouts/backoff (seconds) and fence retry
    #: budget.  Chaos runs compress these so partitions and kills are
    #: detected in test-scale wall time; see docs/chaos.md.
    connect_timeout_s: float = 2.0
    handshake_timeout_s: float = 2.0
    backoff_min_s: float = 0.02
    backoff_max_s: float = 0.5
    fence_attempts: int = 10
    fence_gap_s: float = 0.2
    #: Cap on items per FRAME_BATCH on outbound channels (1 disables
    #: batching — every item rides its own ITEM frame).
    batch_max_items: int = 64
    #: Public ingress gateway config; empty dict disables the gateway.
    #: Keys (all optional except ``host``/``port``, which
    #: ``repro.net.cluster.with_addresses`` fills in): ``host``/``port``
    #: — the address clients *dial*; ``listen`` — ``[host, port]`` bind
    #: override (the chaos proxy fronts the dial address while the
    #: gateway binds its real port, mirroring ``listen`` above);
    #: ``max_inflight_msgs`` / ``max_inflight_bytes`` — global admission
    #: limits; ``rate_msgs_per_s`` / ``rate_burst`` — per-client token
    #: bucket; ``retry_ms`` — backoff hint carried by BUSY rejects;
    #: ``span_ms`` — nominal client-burst span used by seeded gateway
    #: chaos scenarios on workload-free specs.
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
        spec.listen = {
            process: (host, int(port))
            for process, (host, port) in spec.listen.items()
        }
        if spec.gateway.get("port") is not None:
            spec.gateway["port"] = int(spec.gateway["port"])
        if spec.gateway.get("listen") is not None:
            host, port = spec.gateway["listen"]
            spec.gateway["listen"] = (host, int(port))
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
        if self.followers_per_group is not None and (
                not isinstance(self.followers_per_group, int)
                or self.followers_per_group < 0):
            bad("followers_per_group", self.followers_per_group,
                "must be null or an integer >= 0")
        if not isinstance(self.speed, (int, float)) or self.speed <= 0:
            bad("speed", self.speed, "must be > 0")
        for key in ("checkpoint_interval_ms", "heartbeat_interval_ms",
                    "connect_timeout_s", "handshake_timeout_s",
                    "backoff_min_s", "backoff_max_s"):
            value = getattr(self, key)
            if not isinstance(value, (int, float)) or value <= 0:
                bad(key, value, "must be > 0")
        if self.backoff_max_s < self.backoff_min_s:
            bad("backoff_max_s", self.backoff_max_s,
                f"must be >= backoff_min_s ({self.backoff_min_s})")
        for key in ("full_checkpoint_every", "heartbeat_miss_limit",
                    "fence_attempts", "batch_max_items", "audit_every"):
            value = getattr(self, key)
            if not isinstance(value, int) or value < 1:
                bad(key, value, "must be an integer >= 1")
        if not isinstance(self.fence_gap_s, (int, float)) or self.fence_gap_s < 0:
            bad("fence_gap_s", self.fence_gap_s, "must be >= 0")
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
    def followers(self) -> int:
        """Followers per replication group (0 disables replication)."""
        if self.followers_per_group is not None:
            return self.followers_per_group
        return self.replicas

    def replica_node(self, engine_id: str, rank: int = 0) -> str:
        return follower_node_id(engine_id, rank)

    def follower_nodes(self, engine_id: str) -> List[str]:
        """One engine's follower node ids, in promotion (rank) order."""
        return follower_node_ids(engine_id, self.followers())

    def follower_process(self, engine_id: str, rank: int = 0) -> str:
        """Process name hosting one follower (``replica-<id>[.<rank>]``)."""
        return "replica-" + follower_node_id(engine_id, rank)[len("replica:"):]

    def follower_processes(self, engine_id: str) -> List[str]:
        """One engine's follower process names, in promotion order."""
        return [self.follower_process(engine_id, rank)
                for rank in range(self.followers())]

    def listen_addr(self, process: str) -> Tuple[str, int]:
        """The address the named process binds its server socket to."""
        override = self.listen.get(process)
        if override is not None:
            return tuple(override)
        return self.addresses[f"proc:{process}"][0]

    def gateway_enabled(self) -> bool:
        """Whether this spec runs a public ingress gateway."""
        return bool(self.gateway)

    def gateway_addr(self) -> Tuple[str, int]:
        """The address gateway clients dial (may be a chaos proxy front)."""
        if not self.gateway or self.gateway.get("port") is None:
            raise WiringError("spec has no gateway address assigned "
                              "(see repro.net.cluster.with_addresses)")
        return (self.gateway.get("host", "127.0.0.1"),
                int(self.gateway["port"]))

    def gateway_listen_addr(self) -> Tuple[str, int]:
        """The address the gateway binds (the dial address unless the
        chaos proxy fronted it via ``gateway["listen"]``)."""
        override = self.gateway.get("listen")
        if override is not None:
            return (override[0], int(override[1]))
        return self.gateway_addr()

    def engine_config(self) -> EngineConfig:
        if self.followers() <= 0:
            if self.recovery_target_ms is not None or self.audit != "off":
                raise WiringError(
                    "recovery_target_ms / audit require replicas >= 1 "
                    "(both ride on the checkpoint chain)"
                )
            return EngineConfig()
        target = None
        if self.recovery_target_ms is not None:
            from repro.runtime.cadence import RecoveryTarget

            target = RecoveryTarget(max_replay_ticks=ms(self.recovery_target_ms))
        return EngineConfig(
            checkpoint_interval=ms(self.checkpoint_interval_ms),
            full_checkpoint_every=self.full_checkpoint_every,
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
    actually hosting a given component, and by the liveness invariant
    to map sinks to replication groups.
    """
    return _placement_of(spec, build_application(spec))


def sink_engines(spec: ClusterSpec) -> Dict[str, str]:
    """sink (external output id) -> engine id feeding it.

    The chaos invariant checker uses this to split output streams into
    replication groups: a leader kill in group G must stall only the
    sinks G feeds.
    """
    app = build_application(spec)
    placement = component_placement(spec)
    return {external_id: placement[src]
            for external_id, src in app.external_output_sources().items()}


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
        followers=max(1, spec.followers()),
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


def stream_of(consumer) -> List[Tuple]:
    """A consumer's effective output as comparable (seq, vt, payload)."""
    from repro.tools.verify_determinism import freeze_payload

    return [(seq, vt, freeze_payload(payload))
            for seq, vt, payload, _t in consumer.effective_outputs]


def reference_run(spec: ClusterSpec) -> Dict[str, List[Tuple]]:
    """Run the spec purely in simulation; return per-sink output streams.

    The cutoff leaves a generous drain margin after the last scheduled
    arrival, so on any non-overloaded spec the streams are complete —
    and they are the byte-level ground truth for the networked runs.
    """
    dep = build_deployment(spec)
    attach_workload(dep, spec)
    dep.run(until=2 * spec.workload_span_ticks() + ms(500))
    return {sink: stream_of(consumer)
            for sink, consumer in dep.consumers.items()}


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
        for rank in range(spec.followers()):
            layout[spec.follower_process(engine_id, rank)] = [
                spec.replica_node(engine_id, rank)
            ]
    return layout


def assign_addresses(spec: ClusterSpec,
                     listen_ports: Dict[str, Tuple[str, int]]) -> None:
    """Fill ``spec.addresses`` from per-process listen addresses.

    ``listen_ports`` maps process name -> (host, port).  Engine nodes
    get ``1 + followers`` candidates — the engine process first, then
    each follower process in promotion (rank) order, so a channel that
    loses the leader walks the candidate list straight down the group's
    succession line; every other node lives in exactly one process.
    """
    addresses: Dict[str, List[Tuple[str, int]]] = {}
    for process, nodes in plan_cluster_nodes(spec).items():
        for node in nodes:
            addresses.setdefault(node, []).append(listen_ports[process])
        addresses[f"proc:{process}"] = [listen_ports[process]]
    for engine_id in spec.engines:
        for process in spec.follower_processes(engine_id):
            if process in listen_ports:
                addresses[engine_id].append(listen_ports[process])
    spec.addresses = addresses
