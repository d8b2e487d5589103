"""Application graphs and deployment.

:class:`Application` declares what exists — components, wires, external
inputs/outputs — with no affinity to machines ("components of an
application originally have no affinity to any particular execution
engine").  :class:`Deployment` performs the paper's deployment step
(II.C): placement, transformation (runtime wrapping + estimators via the
component cost models), wiring, and backup association; it owns the
simulator, network, engines, ingresses, consumers, replicas, fault logs,
and the recovery manager.  The wire table, router, configs and fault
logs are always planned in full; the nodes themselves are constructed
only if ``hosted`` names them (default: all, the whole deployment),
directly on ``network``, the transport they will use (default: a
simulated :class:`~repro.runtime.transport.Network` of its own).

A minimal Figure-1-style deployment::

    app = Application("fig1")
    app.add_component("sender1", Sender)
    app.add_component("sender2", Sender)
    app.add_component("merger", Merger)
    app.external_input("ext1", "sender1", "input")
    app.external_input("ext2", "sender2", "input")
    app.wire("sender1", "port1", "merger", "input")
    app.wire("sender2", "port1", "merger", "input")
    app.external_output("merger", "out", "sink")

    dep = Deployment(app, single_engine_placement(app.component_names()))
    dep.add_poisson_producer("ext1", payloads, mean_interarrival=ms(1))
    dep.start()
    dep.run(until=seconds(10))
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, List, Optional, Tuple,
                    Type)

from repro.core.component import Component
from repro.core.determinism_fault import ListFaultLog
from repro.core.estimators import CommDelayEstimator
from repro.core.ports import WireSpec
from repro.errors import WiringError
from repro.runtime.engine import EngineConfig, ExecutionEngine
from repro.runtime.external import ExternalConsumer, ExternalIngress, PoissonProducer
from repro.runtime.metrics import MetricSet
from repro.runtime.placement import Placement, follower_node_id
from repro.runtime.recovery import RecoveryManager
from repro.runtime.replica import PassiveReplica
from repro.runtime.transport import LinkParams, Network, Transport
from repro.sim.distributions import Distribution
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry


@dataclass
class _WireDecl:
    kind: str  # "data" | "call" | "ext_in" | "ext_out"
    src: Optional[str]
    src_port: Optional[str]
    dst: Optional[str]
    dst_input: Optional[str]
    delay_estimate: Optional[int] = None
    reply_delay_estimate: Optional[int] = None
    external_id: Optional[str] = None
    #: Full estimator object; overrides delay_estimate when set (used
    #: for load-correlated delay estimation).
    delay_estimator: Optional[CommDelayEstimator] = None


class Application:
    """A declared (but not yet deployed) component network."""

    def __init__(self, name: str):
        self.name = name
        self._components: Dict[str, Type[Component]] = {}
        self._wires: List[_WireDecl] = []
        self._external_inputs: Dict[str, _WireDecl] = {}
        self._external_outputs: Dict[str, _WireDecl] = {}

    # -- declaration API ---------------------------------------------------
    def add_component(self, name: str, cls: Type[Component]) -> None:
        """Declare a component instance of class ``cls``."""
        if name in self._components:
            raise WiringError(f"duplicate component {name!r}")
        if not (isinstance(cls, type) and issubclass(cls, Component)):
            raise WiringError(f"{name!r}: not a Component subclass: {cls!r}")
        self._components[name] = cls

    def wire(self, src: str, src_port: str, dst: str, dst_input: str,
             delay_estimate: Optional[int] = None,
             delay_estimator: Optional[CommDelayEstimator] = None) -> None:
        """Declare a one-way data wire.

        ``delay_estimate`` sets a constant expected-delay estimator in
        ticks; ``delay_estimator`` installs a custom estimator object
        (e.g. :class:`~repro.core.estimators.QueueCorrelatedDelayEstimator`).
        """
        self._check(src), self._check(dst)
        self._wires.append(_WireDecl("data", src, src_port, dst, dst_input,
                                     delay_estimate,
                                     delay_estimator=delay_estimator))

    def wire_call(self, src: str, src_port: str, dst: str, dst_input: str,
                  delay_estimate: Optional[int] = None,
                  reply_delay_estimate: Optional[int] = None) -> None:
        """Declare a two-way service-call wire (a reply wire is implied)."""
        self._check(src), self._check(dst)
        self._wires.append(_WireDecl("call", src, src_port, dst, dst_input,
                                     delay_estimate, reply_delay_estimate))

    def external_input(self, input_id: str, dst: str, dst_input: str) -> None:
        """Declare an external producer feeding ``dst.dst_input``."""
        self._check(dst)
        if input_id in self._external_inputs:
            raise WiringError(f"duplicate external input {input_id!r}")
        decl = _WireDecl("ext_in", None, None, dst, dst_input,
                         external_id=input_id)
        self._external_inputs[input_id] = decl
        self._wires.append(decl)

    def external_output(self, src: str, src_port: str, consumer_id: str) -> None:
        """Declare an external consumer fed by ``src.src_port``."""
        self._check(src)
        if consumer_id in self._external_outputs:
            raise WiringError(f"duplicate external output {consumer_id!r}")
        decl = _WireDecl("ext_out", src, src_port, None, None,
                         external_id=consumer_id)
        self._external_outputs[consumer_id] = decl
        self._wires.append(decl)

    def component_names(self) -> List[str]:
        """Declared component names, in declaration order."""
        return list(self._components)

    def external_output_sources(self) -> Dict[str, str]:
        """External output id -> source component, in declaration order."""
        return {cid: decl.src for cid, decl in self._external_outputs.items()}

    def external_input_targets(self) -> Dict[str, str]:
        """External input id -> destination component, declaration order."""
        return {iid: decl.dst for iid, decl in self._external_inputs.items()}

    def component_class(self, name: str) -> Type[Component]:
        """Class of one declared component."""
        return self._components[name]

    def _check(self, name: str) -> None:
        if name not in self._components:
            raise WiringError(f"unknown component {name!r}")


class WireRouter:
    """Global wire table: spec plus (src_node, dst_node) per wire id."""

    def __init__(self):
        self._specs: Dict[int, WireSpec] = {}
        self._endpoints: Dict[int, Tuple[str, str]] = {}

    def add(self, spec: WireSpec, src_node: str, dst_node: str) -> None:
        """Register one wire."""
        if spec.wire_id in self._specs:
            raise WiringError(f"duplicate wire id {spec.wire_id}")
        self._specs[spec.wire_id] = spec
        self._endpoints[spec.wire_id] = (src_node, dst_node)

    def spec(self, wire_id: int) -> WireSpec:
        """The spec of one wire."""
        return self._specs[wire_id]

    def endpoint(self, wire_id: int, toward_src: bool) -> str:
        """Node id at one end of a wire."""
        src, dst = self._endpoints[wire_id]
        return src if toward_src else dst

    def wire_ids(self) -> List[int]:
        """All registered wire ids, sorted."""
        return sorted(self._specs)


class Deployment:
    """A deployed application: engines, network, replicas, recovery."""

    def __init__(
        self,
        app: Application,
        placement: Placement,
        engine_config: Optional[EngineConfig] = None,
        engine_configs: Optional[Dict[str, EngineConfig]] = None,
        sim: Optional[Simulator] = None,
        master_seed: int = 0,
        default_link: Optional[LinkParams] = None,
        links: Optional[Dict[Tuple[str, str], LinkParams]] = None,
        local_delay: int = 0,
        control_delay: int = 0,
        birth_of: Optional[Callable[[Any], Optional[int]]] = None,
        cost_overrides: Optional[Dict[Tuple[str, str], Any]] = None,
        log_latency: int = 0,
        followers: int = 1,
        network: Optional[Transport] = None,
        hosted: Optional[Iterable[str]] = None,
    ):
        placement.validate_components(app.component_names())
        if followers < 1:
            raise WiringError(f"followers must be >= 1, got {followers}")
        self.app = app
        self.placement = placement
        #: Passive followers per replication group, in promotion order.
        self.followers_per_group = int(followers)
        self.sim = sim or Simulator()
        self.rng = RngRegistry(master_seed)
        self.metrics = MetricSet()
        self.birth_of = birth_of
        self.log_latency = log_latency
        self._default_config = engine_config or EngineConfig()
        self._engine_configs = dict(engine_configs or {})
        self._cost_overrides = dict(cost_overrides or {})
        self._default_link = default_link or LinkParams()
        self._links = dict(links or {})
        #: Node ids constructed here; None hosts every node.
        self._hosted = None if hosted is None else frozenset(hosted)
        self.network: Transport = (
            network if network is not None
            else self._simulated_network(local_delay, control_delay))

        self.router = WireRouter()
        self.engines: Dict[str, ExecutionEngine] = {}
        #: engine id -> rank-0 follower (the legacy single-replica view).
        self.replicas: Dict[str, PassiveReplica] = {}
        #: engine id -> all followers of its group, in rank order.
        self.followers: Dict[str, List[PassiveReplica]] = {}
        self.fault_logs: Dict[str, ListFaultLog] = {}
        self.ingresses: Dict[str, ExternalIngress] = {}
        self.consumers: Dict[str, ExternalConsumer] = {}
        self.producers: List[PoissonProducer] = []
        self.detectors: Dict[str, Any] = {}
        #: The one observer list of every runtime built here, promoted
        #: engines included (see ``ComponentRuntime.observers``).
        self.observers: List[Any] = []
        self.recovery = RecoveryManager(self)

        self._started = False
        self._build()

    # -- construction -------------------------------------------------------
    def _simulated_network(self, local_delay: int,
                           control_delay: int) -> Network:
        """A simulated network with this deployment's link parameters."""
        network = Network(self.sim, self.rng, self._default_link,
                          local_delay=local_delay,
                          control_delay=control_delay)
        for (src, dst), params in self._links.items():
            network.set_link(src, dst, params)
        # The ingress is the system boundary where external messages
        # are timestamped and logged; it is co-located with its
        # engine, so its links are delay- and fault-free regardless
        # of the deployment's default link.  (Producer-side network
        # delay, if desired, belongs in the producer process.)
        for input_id, decl in self.app._external_inputs.items():
            dst_engine = self.placement.engine_of(decl.dst)
            network.set_link(f"ext:{input_id}", dst_engine, LinkParams())
            network.set_link(dst_engine, f"ext:{input_id}", LinkParams())
        return network

    def _hosts(self, node_id: str) -> bool:
        return self._hosted is None or node_id in self._hosted

    def _config_for(self, engine_id: str) -> EngineConfig:
        base = self._engine_configs.get(engine_id, self._default_config)
        ids = tuple(follower_node_id(engine_id, rank)
                    for rank in range(self.followers_per_group))
        return dataclasses.replace(base, replica_id=ids[0], replica_ids=ids)

    def _build(self) -> None:
        # Replicas and fault logs exist outside the engines (stable side).
        for engine_id in self.placement.engines():
            group: List[PassiveReplica] = []
            for rank in range(self.followers_per_group):
                node_id = follower_node_id(engine_id, rank)
                if not self._hosts(node_id):
                    continue
                replica = PassiveReplica(
                    node_id, self.sim, self.network, engine_id,
                    rank=rank, metrics=self.metrics,
                )
                group.append(replica)
                self.network.register(replica)
            if group:
                self.followers[engine_id] = group
                self.replicas[engine_id] = group[0]
            self.fault_logs[engine_id] = ListFaultLog()

        # Resolve wire ids and endpoints once, in declaration order.
        self._wire_plan = self._plan_wires()

        for engine_id in self.placement.engines():
            if self._hosts(engine_id):
                engine = self._build_engine(engine_id, cp_seq_start=0)
                self.engines[engine_id] = engine
                self.network.register(engine)
            # The first hosted follower is the one that watches and
            # promotes (rank 0 in a whole deployment; on a follower
            # process, its own).
            replica = self.replicas.get(engine_id)
            config = self._config_for(engine_id)
            if replica is not None and config.heartbeat_interval is not None:
                from repro.runtime.detector import HeartbeatDetector

                detector = HeartbeatDetector(
                    self.sim, self.recovery, engine_id,
                    config.heartbeat_interval,
                    config.heartbeat_miss_limit,
                    rank=replica.rank,
                )
                self.detectors[engine_id] = detector
                replica.detector = detector

        # External nodes.
        for input_id, decl in self.app._external_inputs.items():
            if not self._hosts(f"ext:{input_id}"):
                continue
            spec = self._wire_plan[id(decl)][0]
            ingress = ExternalIngress(f"ext:{input_id}", self.sim,
                                      self.network, spec,
                                      self.placement.engine_of(decl.dst),
                                      log_latency=self.log_latency)
            self.ingresses[input_id] = ingress
            self.network.register(ingress)
        for consumer_id in self.app._external_outputs:
            if not self._hosts(consumer_id):
                continue
            consumer = ExternalConsumer(consumer_id, self.sim, self.metrics,
                                        birth_of=self.birth_of)
            self.consumers[consumer_id] = consumer
            self.network.register(consumer)

    def _plan_wires(self) -> Dict[int, list]:
        """Assign wire ids and build WireSpecs (+ router entries)."""
        plan: Dict[int, list] = {}
        next_id = 0
        for decl in self.app._wires:
            specs = []
            if decl.kind == "data":
                spec = self._make_spec(next_id, "data", decl)
                next_id += 1
                specs = [spec]
                self.router.add(spec,
                                self.placement.engine_of(decl.src),
                                self.placement.engine_of(decl.dst))
            elif decl.kind == "call":
                call_spec = self._make_spec(next_id, "call", decl)
                next_id += 1
                reply_delay = decl.reply_delay_estimate
                if reply_delay is None:
                    reply_delay = self._default_wire_delay(decl.dst, decl.src)
                reply_spec = WireSpec(
                    wire_id=next_id, kind="reply",
                    src_component=decl.dst, src_port=None,
                    dst_component=decl.src, dst_input=None,
                    delay_estimator=CommDelayEstimator(reply_delay),
                )
                next_id += 1
                specs = [call_spec, reply_spec]
                self.router.add(call_spec,
                                self.placement.engine_of(decl.src),
                                self.placement.engine_of(decl.dst))
                self.router.add(reply_spec,
                                self.placement.engine_of(decl.dst),
                                self.placement.engine_of(decl.src))
            elif decl.kind == "ext_in":
                spec = WireSpec(
                    wire_id=next_id, kind="ext_in",
                    src_component=None, src_port=None,
                    dst_component=decl.dst, dst_input=decl.dst_input,
                    delay_estimator=CommDelayEstimator(0),
                )
                next_id += 1
                specs = [spec]
                self.router.add(spec, f"ext:{decl.external_id}",
                                self.placement.engine_of(decl.dst))
            elif decl.kind == "ext_out":
                delay = decl.delay_estimate or 0
                spec = WireSpec(
                    wire_id=next_id, kind="ext_out",
                    src_component=decl.src, src_port=decl.src_port,
                    dst_component=None, dst_input=None,
                    delay_estimator=CommDelayEstimator(delay),
                )
                next_id += 1
                specs = [spec]
                self.router.add(spec, self.placement.engine_of(decl.src),
                                decl.external_id)
            else:  # pragma: no cover - declaration API prevents this
                raise WiringError(f"unknown wire kind {decl.kind!r}")
            plan[id(decl)] = specs
        return plan

    def _make_spec(self, wire_id: int, kind: str, decl: _WireDecl) -> WireSpec:
        if decl.delay_estimator is not None:
            estimator = decl.delay_estimator
        else:
            delay = decl.delay_estimate
            if delay is None:
                delay = self._default_wire_delay(decl.src, decl.dst)
            estimator = CommDelayEstimator(delay)
        return WireSpec(
            wire_id=wire_id, kind=kind,
            src_component=decl.src, src_port=decl.src_port,
            dst_component=decl.dst, dst_input=decl.dst_input,
            delay_estimator=estimator,
        )

    def _default_wire_delay(self, src: Optional[str], dst: Optional[str]) -> int:
        """Default delay estimator: the mean link delay if remote, else 0.

        "A crude estimate can be just a constant based upon expected
        communication delay" (paper II.G.1).
        """
        if src is None or dst is None:
            return 0
        src_engine = self.placement.engine_of(src)
        dst_engine = self.placement.engine_of(dst)
        if src_engine == dst_engine:
            return 0
        params = self._links.get((src_engine, dst_engine),
                                 self._default_link)
        return int(params.delay.mean())

    def _build_engine(self, engine_id: str, cp_seq_start: int) -> ExecutionEngine:
        """Construct (or reconstruct, after failure) one engine."""
        config = self._config_for(engine_id)
        engine = ExecutionEngine(
            engine_id, self.sim, self.network, self.router, config,
            self.rng, self.metrics, fault_log=self.fault_logs[engine_id],
            cp_seq_start=cp_seq_start, observers=self.observers,
        )
        local = set(self.placement.components_on(engine_id))
        for name in self.app.component_names():
            if name not in local:
                continue
            component = self.app.component_class(name)(name)
            runtime = engine.add_component(component)
            for (comp, input_name), cost in self._cost_overrides.items():
                if comp == name:
                    runtime.override_cost(input_name, cost)

        for decl in self.app._wires:
            specs = self._wire_plan[id(decl)]
            if decl.kind == "data":
                (spec,) = specs
                if decl.src in local:
                    engine.wire_out(decl.src, spec, decl.src_port)
                if decl.dst in local:
                    engine.wire_in(decl.dst, spec)
            elif decl.kind == "call":
                call_spec, reply_spec = specs
                if decl.src in local:
                    engine.wire_out(decl.src, call_spec, decl.src_port)
                    engine.wire_reply_in(decl.src, reply_spec, decl.src_port)
                if decl.dst in local:
                    engine.wire_in(decl.dst, call_spec)
                    engine.wire_reply_out(decl.dst, reply_spec)
            elif decl.kind == "ext_in":
                (spec,) = specs
                if decl.dst in local:
                    engine.wire_in(
                        decl.dst, spec,
                        external=self.network.ingress_shares_clock)
            elif decl.kind == "ext_out":
                (spec,) = specs
                if decl.src in local:
                    engine.wire_out(decl.src, spec, decl.src_port)
        return engine

    # -- accessors ------------------------------------------------------------
    def engine(self, engine_id: str) -> ExecutionEngine:
        """The (current) engine object for an id."""
        return self.engines[engine_id]

    def consumer(self, consumer_id: str) -> ExternalConsumer:
        """An external consumer by id."""
        return self.consumers[consumer_id]

    def ingress(self, input_id: str) -> ExternalIngress:
        """An external ingress by id."""
        return self.ingresses[input_id]

    def runtime(self, component_name: str):
        """The current runtime of a component (follows failovers)."""
        engine = self.engines[self.placement.engine_of(component_name)]
        return engine.runtimes[component_name]

    # -- workload ------------------------------------------------------------
    def add_poisson_producer(self, input_id: str,
                             payload_factory: Callable[[Any, int], Any],
                             mean_interarrival: int,
                             interarrival: Optional[Distribution] = None,
                             max_messages: Optional[int] = None,
                             stop_at: Optional[int] = None) -> PoissonProducer:
        """Attach a Poisson workload generator to one external input."""
        producer = PoissonProducer(
            self.sim, self.rng.stream(f"producer:{input_id}"),
            self.ingresses[input_id], payload_factory, mean_interarrival,
            interarrival=interarrival, max_messages=max_messages,
            stop_at=stop_at,
        )
        self.producers.append(producer)
        if self._started:
            producer.start()
        return producer

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> None:
        """Start engines (checkpoint timers) and producers."""
        if self._started:
            return
        self._started = True
        for engine in self.engines.values():
            engine.start()
        for detector in self.detectors.values():
            detector.watch()
        for producer in self.producers:
            producer.start()

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> None:
        """Start (if needed) and run the simulation."""
        self.start()
        self.sim.run(until=until, max_events=max_events)

    # -- introspection ---------------------------------------------------------
    def state_digest(self) -> Dict[str, str]:
        """Canonical SHA-256 digest of every component's state cells.

        Two runs that processed the same logged inputs must produce
        identical digests — the operator-facing form of the determinism
        guarantee, usable to audit a replica against its primary or a
        post-recovery engine against a failure-free twin.  Components
        that are mid-call are skipped (their state is mid-mutation).
        """
        import hashlib

        from repro.runtime import checkpoint as cpser

        digests: Dict[str, str] = {}
        for engine in self.engines.values():
            for name, runtime in engine.runtimes.items():
                if runtime.mid_call:
                    continue
                blob = cpser.dumps(runtime.component.state.full_snapshot())
                digests[name] = hashlib.sha256(blob).hexdigest()
        return digests

    # -- failover ------------------------------------------------------------
    def rebuild_engine(self, engine_id: str) -> ExecutionEngine:
        """Promote the replica of a failed engine (called by recovery)."""
        replica = self.replicas[engine_id]
        engine = self._build_engine(
            engine_id, cp_seq_start=max(0, replica.last_cp_seq)
        )
        if replica.has_checkpoint:
            engine.restore_components(replica.materialize())
        else:
            # No checkpoint ever reached the replica: restart from the
            # initial state; replay from the logs regenerates everything.
            for runtime in engine.runtimes.values():
                if engine.fault_manager is not None:
                    engine.fault_manager.replay_into(runtime)
        self.engines[engine_id] = engine
        self.network.register(engine)
        engine.start()
        engine.begin_recovery()
        return engine
