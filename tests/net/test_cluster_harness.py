"""The one cluster lifecycle: bring-up failures, CLI doors, result keys.

The failure tests substitute the child command, so no engine runs; the
contract test launches one small cluster per entry point.
"""

import ast
import asyncio
import importlib
import inspect
import json
import socket
import sys
import time
from pathlib import Path

import pytest

import repro.gateway.cluster as gateway_cluster
import repro.net.cluster as net_cluster
from repro.gateway.client import ClientPlan
from repro.net.channel import OutboundChannel
from repro.net.node import NetTransport
from repro.net.server import ProcessRuntime
from tests.net.test_server import sleeps_awaited_by
from repro.net.topology import (
    ClusterSpec,
    assign_addresses,
    build_deployment,
    pipeline_spec,
    plan_cluster_nodes,
    reference_run,
)

#: Stand-ins for ``python -m repro.net.server``.
READY_THEN_IDLE = [sys.executable, "-c",
                   "import socket, time; sock = socket.socket(); "
                   "sock.bind(('127.0.0.1', 0)); sock.listen(); "
                   "print('READY', sock.getsockname()[1], flush=True); "
                   "time.sleep(60)"]
READY_WITHOUT_PORT = [sys.executable, "-c",
                      "import time; print('READY', flush=True); "
                      "time.sleep(60)"]
EXIT_3 = [sys.executable, "-c", "import sys; sys.exit(3)"]


@pytest.fixture
def stub_children(monkeypatch):
    """Run ``commands[name]`` (default: bind a port, print ``READY
    <port>``, then idle) as each child; returns ``(commands, spawned
    children, spec path -> the text a child was handed)``."""
    commands, spawned, spec_paths = {}, [], {}

    def child_command(spec_path, name):
        spec_paths[Path(spec_path)] = Path(spec_path).read_text()
        return commands.get(name, READY_THEN_IDLE)

    class Recorded(net_cluster.ChildProcess):
        def __init__(self, *args):
            super().__init__(*args)
            spawned.append(self)

    monkeypatch.setattr(net_cluster, "child_command", child_command)
    monkeypatch.setattr(net_cluster, "ChildProcess", Recorded)
    return commands, spawned, spec_paths


def failed_bring_up(spec, error, match=None):
    """Enter a harness on ``spec``, expecting bring-up to raise
    ``error``; the harness."""
    clusters = []

    async def enter():
        clusters.append(net_cluster.ClusterHarness(spec))
        async with clusters[0]:
            pass

    with pytest.raises(error, match=match):
        asyncio.run(enter())
    return clusters[0]


def assert_released(cluster, spawned, spec_paths):
    """Nothing of a failed bring-up is left behind."""
    assert all(child.proc.poll() is not None for child in spawned)
    assert spec_paths and not any(path.exists() for path in spec_paths)
    with socket.socket() as sock:  # the coordinator's listener is closed
        sock.bind(cluster.runtime.address)


def test_spawn_failure_releases_listener_spec_file_and_children(
        stub_children):
    commands, spawned, spec_paths = stub_children
    commands["engine-e1"] = ["/nonexistent/repro-server"]  # the third child
    cluster = failed_bring_up(pipeline_spec(messages=10), FileNotFoundError)
    assert [child.name for child in spawned] == ["engine-e0", "replica-e0"]
    assert_released(cluster, spawned, spec_paths)


def test_ready_barrier_names_a_crashed_child_without_waiting_it_out(
        stub_children):
    commands, spawned, spec_paths = stub_children
    commands["engine-e1"] = EXIT_3
    started = time.monotonic()
    cluster = failed_bring_up(
        pipeline_spec(messages=10), RuntimeError,
        r"child engine-e1 exited with rc=3 before READY")
    assert time.monotonic() - started < net_cluster.READY_TIMEOUT_S / 2
    assert len(spawned) == 4
    assert_released(cluster, spawned, spec_paths)


def test_a_ready_line_without_a_port_fails_bring_up_by_name(stub_children):
    commands, spawned, spec_paths = stub_children
    commands["replica-e1"] = READY_WITHOUT_PORT
    started = time.monotonic()
    cluster = failed_bring_up(
        pipeline_spec(messages=10), RuntimeError,
        r"child replica-e1 printed 'READY', not 'READY <port>'")
    assert time.monotonic() - started < net_cluster.READY_TIMEOUT_S / 2
    assert len(spawned) == 4
    assert_released(cluster, spawned, spec_paths)


def test_the_spec_file_children_get_names_no_address(stub_children):
    # Even a spec that arrives with a table: the harness copies it and
    # hands the children none; the table rides GO.
    commands, _spawned, spec_paths = stub_children
    commands["replica-e1"] = EXIT_3
    spec = pipeline_spec(messages=10)
    assign_addresses(spec, {process: ("127.0.0.1", 1)
                            for process in plan_cluster_nodes(spec)})
    failed_bring_up(spec, RuntimeError, "replica-e1")
    assert spec.addresses  # the caller's spec is left as it was
    (handed,) = set(spec_paths.values())
    raw = json.loads(handed)
    assert raw["addresses"] == {} and "listen" not in raw
    assert "port" not in raw["gateway"]


def test_a_proxied_bring_up_hands_out_fronts_of_the_reported_ports():
    from repro.chaos.proxy import FaultProxy
    from repro.chaos.runner import ChaosDriver
    from repro.chaos.schedule import ChaosSchedule

    spec = pipeline_spec(messages=10, master_seed=3)
    processes = plan_cluster_nodes(spec)
    proxy = FaultProxy()
    driver = ChaosDriver(ChaosSchedule(), proxy, spec,
                         log=lambda line: None, fronted=processes)
    seen = {}

    async def scenario():
        cluster = net_cluster.ClusterHarness(spec, chaos=driver)
        async with cluster:
            seen.update(
                table=dict(cluster.spec.addresses),
                reported={name: ("127.0.0.1", child.port)
                          for name, child in cluster.children.items()},
                coordinator=cluster.runtime.address,
                bound={server.sockets[0].getsockname()[:2]
                       for server in proxy._servers})
        return cluster.result

    result = asyncio.run(scenario())
    assert result["error"] is None
    assert set(result["child_exit_codes"].values()) == {0}
    assert result["lifecycle"]["go_late"] == 0
    assert proxy.targets == {"coordinator": seen["coordinator"],
                             **seen["reported"]}
    fronts = set(proxy.fronts.values())
    assert fronts == seen["bound"] and len(fronts) == len(processes)
    assert fronts.isdisjoint(proxy.targets.values())
    assert {tuple(address) for addresses in seen["table"].values()
            for address in addresses} == fronts
    # An engine node's candidates are the fronts of its succession line.
    for engine in spec.engines:
        assert [tuple(a) for a in seen["table"][engine]] == [
            proxy.fronts[process]
            for process in spec.succession_line(engine)]


@pytest.mark.parametrize("chaos_seed", [None, 3])
def test_gateway_clients_dial_the_address_the_gateway_bound(chaos_seed,
                                                           monkeypatch):
    from repro.chaos.proxy import FaultProxy
    from repro.gateway.server import GatewayServer

    bound, fronted, dialed = [], [], []
    real_start, real_front = GatewayServer.start, FaultProxy.front
    real_build = gateway_cluster.build_clients

    async def start(self):
        assert self.config.port == 0  # OS-assigned, not picked earlier
        bound.append(await real_start(self))
        return bound[-1]

    async def front(self, process, target):
        fronted.append((process, tuple(target),
                        await real_front(self, process, target)))
        return fronted[-1][2]

    def build_clients(plan, address, factory):
        dialed.append(tuple(address))
        return real_build(plan, address, factory)

    monkeypatch.setattr(GatewayServer, "start", start)
    monkeypatch.setattr(FaultProxy, "front", front)
    monkeypatch.setattr(gateway_cluster, "build_clients", build_clients)
    plan = ClientPlan(n_clients=4, total_messages=20, rate_msgs_per_s=200.0,
                      seed=13)
    trial = gateway_cluster.run_trial(
        "dial", gateway_cluster.gateway_spec(plan, master_seed=13), plan,
        None, 0.4, 60.0, chaos_seed=chaos_seed)
    assert trial["ok"], trial
    (address,) = bound
    if chaos_seed is None:
        assert fronted == [] and dialed == [address]
    else:
        # Only the gateway is fronted; the clients dial its front.
        ((process, target, front_address),) = fronted
        assert (process, target) == ("gateway", address)
        assert dialed == [front_address] != [address]


@pytest.mark.parametrize("flags", [
    ["--gateway"], ["--chaos", "3"], ["--clients", "3"], ["--rate", "50"],
])
def test_cluster_cli_has_one_door_per_run_kind(flags, capsys):
    # Gateway and chaos runs have their own entry points
    # (repro.gateway.cluster, repro.chaos).
    with pytest.raises(SystemExit) as exit_info:
        net_cluster.main(flags)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_replicas_sizes_the_groups_of_every_cli():
    import argparse

    from repro.net.topology import plan_cluster_nodes

    for cli in "ngc":
        parser = argparse.ArgumentParser()
        net_cluster.add_cluster_arguments(parser, cli)
        args = parser.parse_args(["--engines", "3", "--replicas", "2"])
        spec = pipeline_spec(
            **net_cluster.spec_keywords(args, seeded=cli != "g"))
        assert spec.replicas == 2
        assert {name for name in plan_cluster_nodes(spec)
                if name.startswith("replica-")} == {
            f"replica-e{i}{rank}" for i in range(3) for rank in ("", ".1")}


def test_kill_arguments_need_a_follower(capsys):
    for argv in (["--kill-active", "--replicas", "0"], ["--replicas", "-1"]):
        with pytest.raises(SystemExit) as exit_info:
            net_cluster.main(argv)
        assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "--kill-active requires --replicas >= 1" in err
    assert "--replicas must be >= 0" in err


def test_a_clean_run_waits_on_events_not_on_sleeps(monkeypatch):
    # Bring-up, poll and shutdown each end on the event they stand for
    # (READY, WELCOME, acks, pump steps, exits): counted, not timed.
    slept = sleeps_awaited_by(monkeypatch, "repro.net.cluster")
    spec = pipeline_spec(messages=20, master_seed=5)
    reference = reference_run(spec)
    result = asyncio.run(net_cluster.run_networked(
        spec, {sink: len(stream) for sink, stream in reference.items()},
        deadline_s=45.0,
    ))
    assert result["error"] is None and result["complete"]
    assert set(result["child_exit_codes"].values()) == {0}
    lifecycle = result["lifecycle"]
    assert lifecycle["go_late"] == 0 and lifecycle["events"] == []
    assert lifecycle["ready_s"] > 0 and lifecycle["go_rtt_ms"] > 0
    assert lifecycle["shutdown_s"] > 0
    assert [delay for delay in slept if delay >= 0.01] == []


#: What ``bench/`` and ``repro.chaos.runner`` read from a run's result.
COMMON_KEYS = {
    "killed", "complete", "error", "counts", "streams", "arrival_ticks",
    "stutter", "elapsed_s", "child_exit_codes", "epoch_resets",
    "incarnations", "channel_counters", "audit_reports", "detector",
    "lifecycle", "metrics",
}
GATEWAY_KEYS = {"reference", "gateway", "clients", "exactly_once_violations",
                "latency", "shadow"}


def bench_imports(tree):
    """local name -> object, for every ``repro`` import in a bench file;
    a name that no longer resolves raises here."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.module or "").split(".")[0] == "repro":
            module = importlib.import_module(node.module)
            for alias in node.names:
                bound[alias.asname or alias.name] = getattr(module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    bound[alias.asname or alias.name] = \
                        importlib.import_module(alias.name)
    return bound


def spanning_rows(tree):
    """``(owner name, attr)`` of each row of a table a ``for`` loop feeds
    to ``tracer.spanning`` (``bench/wl_gw_steady.py`` wraps by name)."""
    rows = []
    for loop in ast.walk(tree):
        if isinstance(loop, ast.For) and any(
                isinstance(n, ast.Attribute) and n.attr == "spanning"
                for n in ast.walk(loop)):
            rows += [(row.elts[0].id, row.elts[1].value)
                     for row in loop.iter.elts]
    return rows


def test_result_keys_and_the_names_the_bench_wraps(monkeypatch):
    # What bench/ reaches into src/ for, read from bench/ itself (parsed,
    # not imported or run): losing one of these loses a PR to a benchmark
    # run an hour later instead of to this test.
    bench = Path(__file__).resolve().parents[2] / "bench"
    spanned = []
    for path in sorted(bench.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = bench_imports(tree)
        for owner, attr in spanning_rows(tree):
            assert hasattr(bound[owner], attr), (path.name, owner, attr)
            spanned.append(attr)
    assert {"spawn_children", "replay_reference", "verify_trace_equivalence",
            "close"} <= set(spanned)
    # Every keyword bench/ builds a ClusterSpec with is still a field.
    fields = set(ClusterSpec.__dataclass_fields__)
    keywords = {(path.name, keyword.arg)
                for path in sorted(bench.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "ClusterSpec"
                for keyword in node.keywords}
    assert {arg for _name, arg in keywords} >= {"replicas", "workload"}
    assert {(name, arg) for name, arg in keywords if arg not in fields} \
        == set()
    # Every keyword bench/ builds an OutboundChannel with is still one.
    params = set(inspect.signature(OutboundChannel).parameters)
    channel_keywords = {(path.name, keyword.arg)
                        for path in sorted(bench.glob("*.py"))
                        for node in ast.walk(ast.parse(path.read_text()))
                        if isinstance(node, ast.Call)
                        and getattr(node.func, "id", None) == "OutboundChannel"
                        for keyword in node.keywords}
    assert {arg for _name, arg in channel_keywords} >= {"batch_max_items",
                                                        "ack_watcher"}
    assert {(name, arg) for name, arg in channel_keywords
            if arg not in params} == set()
    # wl_wire_stream's receiver: any name, a spec with no addresses.
    receiver = ProcessRuntime("wire-recv", ClusterSpec(
        engines=["e0"], replicas=0, speed=1.0))
    assert callable(receiver.transport.register) and receiver.rtk is not None
    whole = build_deployment(ClusterSpec(workload={}))
    assert whole.engines and whole.ingresses and whole.consumers \
        and whole.followers and whole.network.ingress_shares_clock

    closes = []
    real_close = NetTransport.close

    async def counted_close(self):
        closes.append(self)
        await real_close(self)

    monkeypatch.setattr(NetTransport, "close", counted_close)

    spec = pipeline_spec(messages=20, master_seed=13)
    reference = reference_run(spec)  # bench/wl_net_failover.py: one argument
    assert reference["sink"] and all(
        len(item) == 3 for item in reference["sink"])
    # bench/wl_net_failover.py still wraps its spec in with_addresses.
    assert net_cluster.with_addresses(spec) is spec
    result = asyncio.run(net_cluster.run_networked(
        net_cluster.with_addresses(spec),
        {sink: len(stream) for sink, stream in reference.items()},
        deadline_s=45.0,
    ))
    assert result["error"] is None and result["complete"]
    assert set(result) == COMMON_KEYS
    assert len(closes) == 1
    # The coordinator's channel counters are in the metrics document
    # --metrics-out writes, not only beside it.
    exported = result["metrics"]["channels"]
    assert exported and exported == {
        dst: {name: value for name, value in counters.items() if value}
        for dst, counters in result["channel_counters"].items()
        if any(counters.values())}
    assert result["metrics"]["counters"]["channel_items_acked_total"] == sum(
        c["items_acked"] for c in result["channel_counters"].values())

    raws = []
    real_run = gateway_cluster.run_gateway_cluster

    async def spying_run(*args, **kwargs):
        raw = await real_run(*args, **kwargs)
        raws.append((args[0], dict(raw)))
        return raw

    monkeypatch.setattr(gateway_cluster, "run_gateway_cluster", spying_run)
    plan = ClientPlan(n_clients=4, total_messages=20, rate_msgs_per_s=200.0,
                      seed=13)
    trial = gateway_cluster.run_trial(
        "contract", gateway_cluster.gateway_spec(plan, master_seed=13), plan,
        None, 0.4, 60.0)
    assert trial["ok"], trial
    (run_spec, raw), = raws
    assert set(raw) == COMMON_KEYS | GATEWAY_KEYS
    # wl_gw_steady reads these latency percentiles off the metrics doc.
    assert {"p50_us", "p95_us", "p99_us"} <= set(trial["metrics"]["latency"])
    # ... and times the oracle through replay_reference, called with
    # positional arguments.
    replayed = gateway_cluster.replay_reference(run_spec, raw["shadow"])
    assert replayed == raw["reference"] and sum(map(len, replayed.values()))
    # The trial report (what --json prints, less "metrics") drops the
    # bulky and the judged-away keys.
    assert set(trial) == (set(raw) | {"deterministic", "ok"}) - {
        "streams", "reference", "arrival_ticks", "shadow"}
    assert len(closes) == 2
