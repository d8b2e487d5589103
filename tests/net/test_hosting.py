"""One partial ``Deployment`` per process, on the process's transport.

No sockets: the shares of a cluster spec are built on an in-memory
:class:`~repro.runtime.transport.Transport` double that routes by node
id on one shared simulator, so the live hosting path — plan everything,
build what you host, promote through the stock ``rebuild_engine`` —
runs in tier-1 against the simulated reference.
"""

import ast
import dataclasses
from functools import partial
from pathlib import Path

import pytest

import repro
from repro.net.node import NetTransport
from repro.net.topology import (
    attach_workload,
    build_application,
    build_deployment,
    component_placement,
    pipeline_spec,
    plan_cluster_nodes,
    reference_run,
)
from repro.runtime.app import Deployment
from repro.runtime.audit import corrupt_component_state
from repro.runtime.engine import ExecutionEngine
from repro.runtime.placement import Placement
from repro.runtime.transport import LinkParams, Network, Transport
from repro.sim.distributions import Constant
from repro.sim.kernel import Simulator, ms
from repro.sim.rng import RngRegistry
from repro.tools.verify_determinism import streams_of

from tests.helpers import shipped_kinds


class MemoryTransport:
    """Every share's nodes in one table, delivered on one simulator."""

    ingress_shares_clock = False

    def __init__(self, sim):
        self.sim = sim
        self.nodes = {}
        #: Node ids in registration order — the incarnation history.
        self.registrations = []

    def register(self, node):
        self.nodes[node.node_id] = node
        self.registrations.append(node.node_id)

    def send(self, src_id, dst_id, item):
        self.sim.call_soon(partial(self._deliver, dst_id, item))

    def _deliver(self, dst_id, item):
        node = self.nodes.get(dst_id)
        if node is not None and node.alive:
            node.receive(item)

    def fail_node(self, node_id):
        pass


class RemoteEngine:
    """What a follower share holds for the engine it follows (the role
    of ``repro.net.node.RemoteEngineHandle``): ``halt`` reaches whoever
    is registered under the id."""

    def __init__(self, transport, engine_id):
        self.transport, self.node_id, self.alive = transport, engine_id, True

    def start(self):
        pass

    def halt(self):
        self.alive = False
        self.transport.nodes[self.node_id].halt()


def build_shares(spec):
    """Every process's share of ``spec`` on one :class:`MemoryTransport`."""
    transport = MemoryTransport(Simulator())
    shares = {
        name: build_deployment(spec, sim=transport.sim, network=transport,
                               hosted=nodes)
        for name, nodes in plan_cluster_nodes(spec).items()
    }
    return transport, shares


def run_shares(spec, transport, shares, before_run=lambda: None):
    """Drive the shares as a live cluster would; the sink streams."""
    for share in shares.values():
        for engine_id in share.followers:
            if engine_id not in share.engines:
                share.engines[engine_id] = RemoteEngine(transport, engine_id)
    attach_workload(shares["coordinator"], spec)
    for share in shares.values():
        share.start()
    before_run()
    transport.sim.run(until=2 * spec.workload_span_ticks() + ms(500))
    return streams_of(shares["coordinator"])


def two_by_one(**fields):
    return pipeline_spec(engines=2, messages=80, master_seed=11, **fields)


def test_shares_on_a_memory_transport_reproduce_the_reference():
    spec = two_by_one()
    transport, shares = build_shares(spec)
    assert set(shares) == {"coordinator", "engine-e0", "engine-e1",
                           "replica-e0", "replica-e1"}
    assert run_shares(spec, transport, shares) == reference_run(spec)
    assert all(share.recovery.failover_count() == 0
               for share in shares.values())


def test_follower_share_promotes_through_the_stock_rebuild_engine():
    spec = two_by_one()
    transport, shares = build_shares(spec)
    leader = shares["engine-e0"].engines["e0"]
    follower = shares["replica-e0"]
    streams = run_shares(
        spec, transport, shares,
        before_run=lambda: transport.sim.at(ms(30), leader.halt))
    assert streams == reference_run(spec)
    assert not leader.alive
    assert follower.recovery.failover_count("e0") == 1
    promoted = follower.engines["e0"]
    assert isinstance(promoted, ExecutionEngine) and promoted.alive
    assert transport.nodes["e0"] is promoted
    assert shares["replica-e1"].recovery.failover_count() == 0


def test_a_heal_after_failover_re_registers_the_engine():
    """The incarnation bump ``on_heal`` used to carry: a self-heal gives
    the engine a fresh identity on whatever transport it was built on."""
    spec = two_by_one(audit="heal")
    transport, shares = build_shares(spec)
    follower = shares["replica-e0"]

    def schedule_faults():
        transport.sim.at(ms(20), shares["engine-e0"].engines["e0"].halt)
        transport.sim.at(
            ms(70), lambda: corrupt_component_state(follower.engines["e0"]))

    streams = run_shares(spec, transport, shares, schedule_faults)
    assert streams == reference_run(spec)
    promoted = follower.engines["e0"]
    assert promoted.auditor.heals >= 1
    # Built, promoted, then once per heal.
    assert transport.registrations.count("e0") == 2 + promoted.auditor.heals

    net = NetTransport(Simulator(), spec, "engine-e0:test")
    engine = build_deployment(spec, sim=net.sim, network=net,
                              hosted=["e0"]).engines["e0"]
    before = net.incarnations["e0"]
    engine.bump_incarnation_epoch()
    assert net.incarnations["e0"] != before



def test_a_double_failover_restores_rank_1_from_the_new_leaders_full():
    """3 x 2: the leader dies, then the process of the rank-0 follower
    that took over.  Rank 1 holds the promoted leader's first capture,
    which is full, with each later delta folded in on arrival; it
    restores that state, and the streams stay the reference's."""
    spec = pipeline_spec(engines=3, messages=160, master_seed=11,
                         replicas=2)
    transport, shares = build_shares(spec)
    rank0, rank1 = shares["replica-e0"], shares["replica-e0.1"]
    replica = rank1.followers["e0"][0]
    kinds = shipped_kinds(replica)
    held_at_restore = []
    materialize = replica.materialize

    def restore():
        held_at_restore.append(list(kinds))
        return materialize()

    replica.materialize = restore

    def kill_rank0_process():
        rank0.detectors["e0"].stop()
        rank0.followers["e0"][0].alive = False
        rank0.engines["e0"].halt()

    def schedule_faults():
        transport.sim.at(ms(30), shares["engine-e0"].engines["e0"].halt)
        transport.sim.at(ms(120), kill_rank0_process)

    streams = run_shares(spec, transport, shares, schedule_faults)
    assert streams == reference_run(spec)
    assert rank0.recovery.failover_count("e0") == 1
    assert rank1.recovery.failover_count("e0") == 1
    [held] = held_at_restore
    # One full per incarnation: the first leader's, then the promoted
    # leader's; rank 1 restored from the latter plus its deltas.
    assert [seq for seq, inc in held if not inc] == [1, 2]
    assert held[-1][1] and len(held) > 2

def wire_table(deployment):
    """wire id -> its ``WireSpec``, the estimator reduced to its delay."""
    specs = map(deployment.router.spec, deployment.router.wire_ids())
    return {spec.wire_id: dataclasses.replace(
                spec, delay_estimator=spec.delay_estimator.base_ticks)
            for spec in specs}


def endpoints(deployment):
    return {wire_id: (deployment.router.endpoint(wire_id, True),
                      deployment.router.endpoint(wire_id, False))
            for wire_id in deployment.router.wire_ids()}


@pytest.mark.parametrize("engines, followers", [(2, 1), (3, 2)])
def test_each_share_builds_exactly_its_nodes_and_plans_everything(
        engines, followers):
    spec = pipeline_spec(engines=engines, messages=30, replicas=followers)
    whole = build_deployment(spec)
    transport, shares = build_shares(spec)
    layout = plan_cluster_nodes(spec)
    for name, share in shares.items():
        built = (list(share.engines)
                 + [f.node_id for group in share.followers.values()
                    for f in group]
                 + [ingress.node_id for ingress in share.ingresses.values()]
                 + list(share.consumers))
        assert sorted(built) == sorted(layout[name]), name
        # Detectors belong to followers: one per hosted follower, at its
        # own rank.
        assert {e: d.rank for e, d in share.detectors.items()} == {
            e: group[0].rank for e, group in share.followers.items()}, name
        assert wire_table(share) == wire_table(whole), name
        assert endpoints(share) == endpoints(whole), name
        assert set(share.fault_logs) == set(whole.fault_logs), name
    # Nothing was built twice, and together the shares are the whole.
    assert sorted(transport.registrations) == sorted(whole.network._nodes)
    # Only a transport whose ingresses share the engine's clock wires
    # the scheduler's local-clock bound.
    share_wires = [w for share in shares.values()
                   for e in share.engines.values()
                   for rt in e.runtimes.values()
                   for w in rt.in_wires.values()]
    assert share_wires and not any(w.external for w in share_wires)
    assert any(w.external for e in whole.engines.values()
               for rt in e.runtimes.values() for w in rt.in_wires.values())


def test_default_wire_delays_come_from_the_constructor_not_the_transport():
    spec = two_by_one()
    app = build_application(spec)
    placed = {name: ("e0" if i < 2 else "e1")
              for i, name in enumerate(app.component_names())}
    links = dict(default_link=LinkParams(delay=Constant(ms(2))),
                 links={("e0", "e1"): LinkParams(delay=Constant(ms(5)))})
    whole = Deployment(app, Placement(placed), **links)
    share = Deployment(app, Placement(placed), **links,
                       network=MemoryTransport(Simulator()), hosted=["e1"])
    assert list(share.engines) == ["e1"]
    assert wire_table(share) == wire_table(whole)
    assert ms(5) in {spec.delay_estimator for spec in
                     wire_table(whole).values()}


def test_plan_cluster_nodes_builds_nothing_and_names_every_node(monkeypatch):
    specs = [
        pipeline_spec(engines=engines, messages=messages, replicas=followers)
        for engines in (1, 2, 3, 4)
        for followers in (0, 1, 2)
        for messages in (24, 0)  # seeded (sharded from 3 up) / gateway-fed
    ]

    def no_deployment(self, *args, **kwargs):
        raise AssertionError("plan_cluster_nodes built a Deployment")

    with monkeypatch.context() as patched:
        patched.setattr(Deployment, "__init__", no_deployment)
        layouts = [plan_cluster_nodes(spec) for spec in specs]

    for spec, layout in zip(specs, layouts):
        planned = [node for nodes in layout.values() for node in nodes]
        assert len(planned) == len(set(planned))
        registered = set(build_deployment(spec).network._nodes)
        # An engine the placement leaves empty (four engines, three
        # components) still has its processes; they host nothing.
        idle = set(spec.engines) - set(component_placement(spec).values())
        assert set(planned) - registered == {
            node for e in idle for node in [e, *spec.follower_nodes(e)]}
        assert registered <= set(planned)


# -- the seam ------------------------------------------------------------

def test_both_transports_satisfy_the_protocol():
    sim = Simulator()
    assert isinstance(Network(sim, RngRegistry(0)), Transport)
    assert isinstance(NetTransport(sim, two_by_one(), "p:1"), Transport)
    assert isinstance(MemoryTransport(sim), Transport)
    assert Network.ingress_shares_clock
    assert not NetTransport.ingress_shares_clock


#: The protocol's members: all that ``runtime`` and ``core`` code may
#: touch on a ``network``.
TRANSPORT_MEMBERS = {"sim", "ingress_shares_clock", "send", "register",
                     "fail_node"}

#: Where simulation-only extras of ``Network`` may be used: the fault
#: injector (a simulation tool) and the branch of ``Deployment`` that
#: creates the simulated network itself.
SIMULATION_ONLY = {
    ("runtime/failure.py", "link_outage"),
    ("runtime/failure.py", "set_link_impairment"),
    ("runtime/failure.py", "apply_schedule"),
    ("runtime/app.py", "_simulated_network"),
}


def network_accesses(path):
    """``(enclosing function, attr)`` of every ``network.<attr>`` /
    ``<x>.network.<attr>`` in one source file."""
    found = []

    def walk(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute):
            owner = node.value
            name = (owner.attr if isinstance(owner, ast.Attribute)
                    else owner.id if isinstance(owner, ast.Name) else None)
            if name == "network":
                found.append((function, node.attr))
        for child in ast.iter_child_nodes(node):
            walk(child, function)

    walk(ast.parse(path.read_text()), None)
    return found


def test_runtime_and_core_use_only_the_protocol_on_a_network():
    root = Path(repro.__file__).parent
    leaks, exempted = [], set()
    for package in ("runtime", "core"):
        for path in sorted((root / package).glob("*.py")):
            if path.name == "transport.py":
                continue  # Network's own implementation
            for function, attr in network_accesses(path):
                where = (f"{package}/{path.name}", function)
                if attr in TRANSPORT_MEMBERS:
                    continue
                if where in SIMULATION_ONLY:
                    exempted.add(where)
                else:
                    leaks.append((*where, attr))
    assert leaks == []
    assert exempted == SIMULATION_ONLY  # the list names only real uses
