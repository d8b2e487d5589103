"""Workload ``gw_steady``: the whole stack at half its knee, nothing failing.

Two engines x one follower run the ``pipeline`` app (``window=1``, so
every submission yields one output and one latency sample) behind the
public gateway, driven through ``gateway.cluster.run_trial`` by an
open-loop Poisson fleet: ``RATE`` msgs/s over two client connections,
``speed=1.0``, checkpoint every 25 ms, heartbeat 100 ms x 5, admission
limits high enough that nothing is shed.  Latency is admission stamp ->
sink, so generator lateness is not in it.  A run is ``TRIALS`` such
clusters, each offered a third of ``--seconds``; the best is reported.

Why: the only workload where every layer runs together, across five
processes and real sockets.  Its ~2 ms latency is four pump wake-ups
plus four socket hops, so wake-up and poll changes show in latency and
per-message CPU changes show in throughput per ref-CPU-second.

The heartbeat is 100 ms x 5, not the CLI default 10 ms x 3: at 400
msgs/s the default spuriously promoted and stalled 3 of 9 no-kill sizing
runs.
"""

from __future__ import annotations

import statistics
import time
from contextlib import ExitStack
from typing import Dict, List, Optional

from benchlib import (ClusterMeter, LayerProfile, Outcome, Tracer,
                      channel_layers, peak_rss_mb)

import repro.gateway.cluster as gateway_cluster
from repro.gateway.client import ClientPlan
from repro.net.node import NetTransport
from repro.net.topology import ClusterSpec

RATE_MSGS_PER_S = 400.0
N_CLIENTS = 2
#: A run is this many clusters, one after the other, and reports the
#: best of them: highest throughput, lowest latencies.  What disturbs a
#: run on a shared host only ever adds time, in stretches of seconds, so
#: the best of three short trials repeated within 1.4 % (p50), 7 % (p95)
#: and 1.6 % (throughput) where single trials spread 10 %, 19 % and 7 %
#: and the median of three 6 %, 17 % and 2.5 %.
TRIALS = 3
HEARTBEAT_MS, HEARTBEAT_MISS = 100.0, 5


def gateway_spec(seed: int, plan: ClientPlan) -> ClusterSpec:
    return ClusterSpec(
        app="pipeline", app_args={"window": 1},
        engines=["e0", "e1"], replicas=1, master_seed=seed, speed=1.0,
        checkpoint_interval_ms=25.0,
        heartbeat_interval_ms=HEARTBEAT_MS,
        heartbeat_miss_limit=HEARTBEAT_MISS,
        workload={},
        gateway={
            # High enough that admission never refuses at this rate.
            "max_inflight_msgs": 1_000_000,
            "max_inflight_bytes": 1 << 30,
            "rate_msgs_per_s": 0.0,
            "span_ms": max(400.0, plan.duration_s() * 1000.0),
        },
    )


def run_cluster(label: str, seed: int, rate: float, window_s: float,
                tracer: Tracer, profile: LayerProfile,
                sample_children: bool,
                deadline_s: Optional[float] = None) -> Dict:
    """One verified gateway trial plus the resource figures around it.

    Shared with ``run.py --ladder``, which steps ``rate`` upward.
    """
    plan = ClientPlan(n_clients=N_CLIENTS,
                      total_messages=max(N_CLIENTS, round(rate * window_s)),
                      rate_msgs_per_s=rate, seed=seed)
    spec = gateway_spec(seed, plan)
    deadline_s = deadline_s or max(60.0, 4.0 * plan.duration_s() + 30.0)
    channels: List[Dict[str, int]] = []

    def keep_channel_counters(transport: NetTransport) -> None:
        channels.extend(transport.channel_counters().values())

    started = time.perf_counter()
    with ExitStack() as stack:
        meter = stack.enter_context(ClusterMeter(sample_children))
        # run_trial is one call; a traced run spans the public functions
        # it calls and reads the coordinator's channel counters, which
        # the trial report leaves out, before the transport closes.
        for owner, attr, name, before in (
                (gateway_cluster, "spawn_children",
                 "net.cluster.spawn_children", None),
                (gateway_cluster, "replay_reference",
                 "gateway.cluster.replay_reference", None),
                (gateway_cluster, "verify_trace_equivalence",
                 "tools.verify_determinism.verify_trace_equivalence", None),
                (NetTransport, "close", "net.node.NetTransport.close",
                 keep_channel_counters)):
            stack.enter_context(tracer.spanning(owner, attr, name, before))
        with tracer.span("gateway.cluster.run_trial"), profile.on():
            trial = gateway_cluster.run_trial(label, spec, plan, None, 0.4,
                                              deadline_s)
    return {"plan": plan, "trial": trial, "channels": channels,
            "meter": meter, "wall_s": time.perf_counter() - started}


def failed_ops(trial: Dict, planned: int, out: Outcome) -> None:
    """Add one gateway trial's ops to ``out`` under the op rules."""
    delivered = sum(trial["counts"].values())
    accepted = trial["clients"]["accepted"]
    out.attempted += planned
    if trial["error"] or not trial["deterministic"]:
        out.failed += planned
        out.failures.append(trial["error"] or "stream differs from replay")
    elif trial["exactly_once_violations"] or trial["stutter"]:
        out.failed += planned
        out.failures.append("delivered twice: violations="
                            f"{trial['exactly_once_violations']} "
                            f"stutter={trial['stutter']}")
    elif delivered != planned or trial["clients"]["unresolved"]:
        out.failed += planned - delivered
        out.failures.append(
            f"planned {planned}, accepted {accepted}, delivered {delivered}, "
            f"unresolved {trial['clients']['unresolved']}")


def run(seed: int, run_seconds: float, tracer: Tracer,
        profile: LayerProfile) -> Outcome:
    trials = [run_cluster("gw_steady", seed * TRIALS + k, RATE_MSGS_PER_S,
                          run_seconds / TRIALS, tracer, profile,
                          sample_children=tracer.enabled)
              for k in range(TRIALS)]
    out = Outcome("gw_steady", attempted=0, failed=0)
    for got in trials:
        failed_ops(got["trial"], got["plan"].total_messages, out)
        latency = got["trial"]["metrics"]["latency"]
        ref_per_s = got["meter"].ref_per_s
        got["delivered"] = max(1, sum(got["trial"]["counts"].values()))
        got["cpu_ref_s"] = got["meter"].cpu_s * ref_per_s
        got["throughput"] = got["delivered"] / got["cpu_ref_s"]
        got["p50_us"] = latency["p50_us"] * ref_per_s
        got["p95_us"] = latency["p95_us"] * ref_per_s
    out.metrics = {
        "setup_s": (statistics.median(
            got["wall_s"] - got["plan"].duration_s() for got in trials), "s"),
        "throughput_per_refs": (
            max(got["throughput"] for got in trials), "1/s"),
        "latency_p50_us": (min(got["p50_us"] for got in trials), "us"),
        "latency_tail_us": (min(got["p95_us"] for got in trials), "us"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    # Layer figures come from one trial, the one the throughput came from.
    got = max(trials, key=lambda got: got["throughput"])
    trial, meter, delivered = got["trial"], got["meter"], got["delivered"]
    latency = trial["metrics"]["latency"]
    gateway = trial["gateway"]
    out.layers = {
        "latency_p99_us": (latency["p99_us"] * meter.ref_per_s, "us"),
        "net.heartbeat.detect_budget_ms": (HEARTBEAT_MS * HEARTBEAT_MISS, "ms"),
        "gateway.server.accepted": (float(gateway["accepted"]), "count"),
        "gateway.server.refused": (
            float(gateway["shed"] + gateway["rate_limited"]), "count"),
        "oracle_s": (tracer.total_s("gateway.cluster.replay_reference"), "s"),
        **meter.cpu_layers(delivered),
        **channel_layers(got["channels"]),
    }
    out.raw = {
        "offered_msgs_per_s": RATE_MSGS_PER_S,
        "window_s_per_trial": got["plan"].duration_s(),
        "cpu_ms_per_msg_raw": meter.cpu_s * 1e3 / delivered,
        "latency_p50_us_raw": latency["p50_us"],
        "latency_p95_us_raw": latency["p95_us"],
        "cpu_refms_per_msg": got["cpu_ref_s"] * 1e3 / delivered,
        "median_spin_ms": meter.spin_cpu_s * 1e3,
    }
    out.profiled_ops = float(sum(got["delivered"] for got in trials))
    return out
