"""The one cluster lifecycle: bring-up failures, CLI doors, result keys.

The failure tests substitute the child command, so no engine runs; the
contract test launches one small cluster per entry point.
"""

import ast
import asyncio
import importlib
import inspect
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
from repro.net.topology import (
    ClusterSpec,
    build_deployment,
    pipeline_spec,
    reference_run,
)

#: Stand-ins for ``python -m repro.net.server``.
READY_THEN_IDLE = [sys.executable, "-c",
                   "import time; print('READY', flush=True); time.sleep(60)"]
EXIT_3 = [sys.executable, "-c", "import sys; sys.exit(3)"]


@pytest.fixture
def stub_children(monkeypatch):
    """Run ``commands[name]`` (default: READY, then idle) as each child;
    returns ``(commands, spawned children, spec paths seen)``."""
    commands, spawned, spec_paths = {}, [], set()

    def child_command(spec_path, name):
        spec_paths.add(Path(spec_path))
        return commands.get(name, READY_THEN_IDLE)

    class Recorded(net_cluster.ChildProcess):
        def __init__(self, *args):
            super().__init__(*args)
            spawned.append(self)

    monkeypatch.setattr(net_cluster, "child_command", child_command)
    monkeypatch.setattr(net_cluster, "ChildProcess", Recorded)
    return commands, spawned, spec_paths


def assert_released(spec, spawned, spec_paths):
    """Nothing of a failed bring-up is left behind."""
    assert all(child.proc.poll() is not None for child in spawned)
    assert spec_paths and not any(path.exists() for path in spec_paths)
    with socket.socket() as sock:  # the coordinator's listener is closed
        sock.bind(spec.listen_addr("coordinator"))


def test_spawn_failure_releases_listener_spec_file_and_children(
        stub_children):
    commands, spawned, spec_paths = stub_children
    commands["engine-e1"] = ["/nonexistent/repro-server"]  # the third child
    spec = net_cluster.with_addresses(pipeline_spec(messages=10))
    with pytest.raises(FileNotFoundError):
        asyncio.run(net_cluster.run_networked(spec, {"sink": 1}))
    assert [child.name for child in spawned] == ["engine-e0", "replica-e0"]
    assert_released(spec, spawned, spec_paths)


def test_ready_barrier_names_a_crashed_child_without_waiting_it_out(
        stub_children):
    commands, spawned, spec_paths = stub_children
    commands["engine-e1"] = EXIT_3
    spec = net_cluster.with_addresses(pipeline_spec(messages=10))
    started = time.monotonic()
    with pytest.raises(RuntimeError,
                       match=r"child engine-e1 exited with rc=3 before READY"):
        asyncio.run(net_cluster.run_networked(spec, {"sink": 1}))
    assert time.monotonic() - started < net_cluster.READY_TIMEOUT_S / 2
    assert len(spawned) == 4
    assert_released(spec, spawned, spec_paths)


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


#: What ``bench/`` and ``repro.chaos.runner`` read from a run's result.
COMMON_KEYS = {
    "killed", "complete", "error", "counts", "streams", "arrival_ticks",
    "stutter", "elapsed_s", "child_exit_codes", "epoch_resets",
    "incarnations", "channel_counters", "audit_reports", "detector",
    "metrics",
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
