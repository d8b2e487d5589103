"""Fences and chaos faults ride ordinary channels to control nodes.

A promoted follower fences through its transport's channel to each
earlier process's ``proc:<name>`` node, and the chaos driver sends its
corruptions the same way, so both are numbered on streams of their own,
retried until acknowledged, and applied by the receiving server's
control path.  Real localhost sockets, one event loop.
"""

import asyncio
import socket
import time

from repro.chaos.runner import ChaosDriver
from repro.chaos.schedule import ChaosSchedule
from repro.net.node import NetTransport, RemoteEngineHandle
from repro.net.server import ProcessRuntime
from repro.net.topology import (
    assign_addresses,
    pipeline_spec,
    plan_cluster_nodes,
)
from repro.runtime.detector import Heartbeat
from repro.runtime.metrics import MetricSet
from repro.sim.kernel import Simulator

from tests.net.test_channel import wait_until


def refused_address():
    """A localhost address nothing listens on."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()


class Engine:
    """A hosted engine stand-in: counts corruptions, obeys a fence."""

    def __init__(self, node_id):
        self.node_id = node_id
        self.alive = True
        self.runtimes = {}

    def receive(self, item):
        pass

    def halt(self):
        self.alive = False


class Serving:
    """A process's runtime hosting one engine, serving and pumping on
    this loop, at a listen address assigned into ``spec``."""

    def __init__(self, name, engine_id, spec):
        self.runtime = ProcessRuntime(name, spec)
        self.engine = Engine(engine_id)
        self.runtime.transport.register(self.engine)

    async def __aenter__(self):
        self.server = await asyncio.start_server(
            self.runtime._handle_conn, "127.0.0.1", 0)
        self.address = self.server.sockets[0].getsockname()[:2]
        self.runtime.clock.set_epoch(time.time())
        self.pump = asyncio.get_running_loop().create_task(
            self.runtime.rtk.run())
        return self

    async def __aexit__(self, *exc):
        self.runtime.rtk.stop()
        await self.pump
        self.server.close()
        await self.server.wait_closed()


def small_spec():
    return pipeline_spec(engines=2, replicas=1, connect_timeout_s=0.5,
                         backoff_max_s=0.05)


def listen_at(spec, listening):
    """Assign addresses: ``listening`` maps process -> address; every
    other process refuses."""
    assign_addresses(spec, {process: listening.get(process)
                            or refused_address()
                            for process in plan_cluster_nodes(spec)})


def test_fence_lands_after_the_follower_stream_to_the_engine_was_acked():
    """The follower's own traffic to ``e0`` has advanced the primary's
    dedup state for that stream; the fence must not read as a
    duplicate of it."""
    async def scenario():
        spec = small_spec()
        async with Serving("engine-e0", "e0", spec) as primary:
            listen_at(spec, {"engine-e0": primary.address})
            follower = NetTransport(Simulator(), spec, "replica-e0:probe")
            channel = follower.channel_to("e0")
            channel.enqueue("replica:e0", Heartbeat("e0", 0))
            await wait_until(lambda: channel.items_acked >= 1)
            RemoteEngineHandle("e0", follower, rank=0).halt()
            try:
                await wait_until(lambda: not primary.engine.alive, 3.0)
            finally:
                await follower.close()
        return primary.engine

    assert not asyncio.run(scenario()).alive


class StubProxy:
    """What the chaos driver uses of a fault proxy: real addresses."""

    def __init__(self, targets):
        self.targets = targets

    async def close(self):
        pass

    def report(self):
        return {}


def test_two_corruptions_to_one_process_are_both_applied(monkeypatch):
    import repro.runtime.audit as audit

    applied = []
    monkeypatch.setattr(
        audit, "corrupt_component_state",
        lambda node, component: applied.append(
            (node.node_id, component)) or "victim")

    async def scenario():
        spec = small_spec()
        async with Serving("engine-e1", "e1", spec) as process:
            driver = ChaosDriver(ChaosSchedule(), StubProxy(
                {"engine-e1": process.address}), spec,
                log=lambda line: None)
            driver._corrupt("engine-e1", "enricher")
            driver._corrupt("engine-e1", "")
            try:
                await wait_until(lambda: len(driver.corrupted) == 2)
                await wait_until(lambda: len(applied) == 2)
            finally:
                await driver.close()
        return driver

    driver = asyncio.run(scenario())
    assert applied == [("e1", "enricher"), ("e1", None)]
    assert driver.corrupted == [
        {"target": "engine-e1", "component": "enricher"},
        {"target": "engine-e1", "component": None}]


def test_a_corruption_a_dead_process_never_acked_is_not_recorded():
    async def scenario():
        spec = small_spec()
        lines = []
        driver = ChaosDriver(ChaosSchedule(), StubProxy(
            {"engine-e1": refused_address()}), spec, log=lines.append)
        driver._corrupt("engine-e1", "enricher")
        channel, _events = driver._fault_channels["engine-e1"]
        await wait_until(lambda: channel.connect_failures >= 1)
        await driver.close()
        return driver, lines

    driver, lines = asyncio.run(scenario())
    assert driver.corrupted == []
    assert lines == [
        "chaos corrupt undeliverable: engine-e1 component=enricher"]


def test_a_fence_still_unacknowledged_at_teardown_is_a_counted_failure(
        capsys):
    async def scenario():
        spec = small_spec()
        listen_at(spec, {})  # every process refuses
        follower = NetTransport(Simulator(), spec, "replica-e0:probe")
        follower.metrics = MetricSet()
        RemoteEngineHandle("e0", follower, rank=0).halt()
        channel = follower.channel_to("proc:engine-e0")
        await wait_until(lambda: channel.connect_failures >= 1)
        follower.export_metrics()
        await follower.close()
        return follower.metrics

    metrics = asyncio.run(scenario())
    assert metrics.counter("channel_fence_failures_total") == 1
    assert ("fence for e0: not acknowledged by engine-e0"
            in capsys.readouterr().err)


def test_halt_fences_the_succession_line_before_its_rank_only():
    spec = pipeline_spec(engines=2, replicas=3)
    assert spec.succession_line("e0") == [
        "engine-e0", "replica-e0", "replica-e0.1", "replica-e0.2"]
    assign_addresses(spec, {process: ("127.0.0.1", port) for port, process
                            in enumerate(plan_cluster_nodes(spec), 1)})
    assert spec.addresses["e0"] == [
        spec.addresses[f"proc:{process}"][0]
        for process in spec.succession_line("e0")]

    async def scenario():
        follower = NetTransport(Simulator(), spec, "replica-e0.2:probe")
        RemoteEngineHandle("e0", follower, rank=2).halt()
        fenced = [(engine, process) for engine, process, _ in follower.fences]
        await follower.close()
        return fenced

    assert asyncio.run(scenario()) == [
        ("e0", "engine-e0"), ("e0", "replica-e0"), ("e0", "replica-e0.1")]


def test_a_spec_without_addresses_fences_nothing():
    follower = NetTransport(Simulator(), pipeline_spec(engines=2),
                            "replica-e0:probe")
    handle = RemoteEngineHandle("e0", follower, rank=0)
    handle.halt()  # no event loop needed: nothing to dial
    assert not handle.alive and follower.fences == []
