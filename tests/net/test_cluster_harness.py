"""The one cluster lifecycle: bring-up failures, CLI hand-over, result keys.

The failure tests substitute the child command, so no engine runs; the
contract test launches one small cluster per entry point.
"""

import ast
import asyncio
import importlib
import socket
import sys
import time
from pathlib import Path

import pytest

import repro.gateway.cluster as gateway_cluster
import repro.net.cluster as net_cluster
from repro.gateway.client import ClientPlan
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
    ["--audit", "heal"],
    ["--speed", "0.5"],
    ["--mean-ms", "2"],
    ["--recovery-target", "60"],
    ["--audit-every", "2"],
    ["--chaos", "3"],
])
def test_gateway_mode_rejects_flags_it_cannot_honour(flags, capsys):
    with pytest.raises(SystemExit) as exit_info:
        net_cluster.main(["--gateway", *flags])
    assert exit_info.value.code == 2
    assert f"{flags[0]} has no effect with --gateway" in capsys.readouterr().err


def test_gateway_and_chaos_modes_receive_the_parsed_values(monkeypatch):
    handed = {}

    def fake_main(argv, namespace):
        handed.update(argv=argv, **vars(namespace))
        return 0

    monkeypatch.setattr(gateway_cluster, "main", fake_main)
    assert net_cluster.main(["--gateway", "--clients", "3", "--seed", "5",
                             "--followers", "2"]) == 0
    assert handed["argv"] == []
    assert (handed["clients"], handed["seed"], handed["followers"]) == (3, 5, 2)

    import repro.chaos.__main__ as chaos_cli

    monkeypatch.setattr(chaos_cli, "main", fake_main)
    assert net_cluster.main(["--chaos", "9", "--seed", "5",
                             "--audit", "heal"]) == 0
    assert (handed["seed"], handed["master_seed"], handed["audit"]) \
        == (9, 5, "heal")


#: What ``bench/`` and ``repro.chaos.runner`` read from a run's result.
COMMON_KEYS = {
    "killed", "complete", "error", "counts", "streams", "arrival_ticks",
    "stutter", "elapsed_s", "child_exit_codes", "epoch_resets",
    "incarnations", "channel_counters", "audit_reports", "metrics",
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
    reference = reference_run(spec)
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

    raw_keys = set()
    real_run = gateway_cluster.run_gateway_cluster

    async def spying_run(*args, **kwargs):
        raw = await real_run(*args, **kwargs)
        raw_keys.update(raw)
        return raw

    monkeypatch.setattr(gateway_cluster, "run_gateway_cluster", spying_run)
    plan = ClientPlan(n_clients=4, total_messages=20, rate_msgs_per_s=200.0,
                      seed=13)
    trial = gateway_cluster.run_trial(
        "contract", gateway_cluster.gateway_spec(plan, master_seed=13), plan,
        None, 0.4, 60.0)
    assert trial["ok"], trial
    assert raw_keys == COMMON_KEYS | GATEWAY_KEYS
    # The trial report (what --json prints, less "metrics") drops the
    # bulky and the judged-away keys.
    assert set(trial) == (raw_keys | {"deterministic", "ok"}) - {
        "streams", "reference", "arrival_ticks", "shadow"}
    assert len(closes) == 2
