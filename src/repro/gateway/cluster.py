"""Gateway acceptance harness: real clients, real cluster, replayed oracle.

``python -m repro.gateway.cluster`` is the end-to-end proof for the
public ingress path.  It differs from the producer-driven harness in one
fundamental way: external submissions arrive at *wall-clock* times over
real sockets, so no seeded simulation can predict the ingress log up
front.  The determinism oracle therefore runs **after** the live run:

1. spawn the usual engine/replica processes, host the ingresses and
   consumers on the coordinator, and put a :class:`~repro.gateway
   .server.GatewayServer` in front of the ingresses;
2. drive it with a fleet of open-loop TCP clients (:mod:`repro.gateway
   .client`), optionally SIGKILLing the active engine mid-stream or
   resetting client connections through the chaos proxy;
3. replay the gateway's shadow log — every admitted ``(seq, vt,
   stamped payload)`` — into a *fresh pure simulation* at the recorded
   virtual times (:func:`replay_reference`).  Because the ingress stamp
   is ``vt = max(now, last_vt + 1)`` and the recorded stamps are
   strictly increasing per wire, the replay reproduces the ingress log
   exactly, and a deterministic engine must then reproduce the consumer
   stream byte for byte;
4. wait for the live consumers to reach the replayed counts and judge
   the run with :func:`repro.chaos.invariants.check_invariants` (byte
   identity, exactly-once delivery, convergence, non-victim liveness),
   plus the client ledger's exactly-once checks (no conflicting
   ACCEPTs, no duplicated ingress sequence numbers).

Failover transparency is judged from the client ledger: across a
``--kill-active`` run the fleet must report zero reconnects — client
connections terminate at the gateway, which never dies, so an engine
failover is invisible at the socket layer.

Gateway runs default to ``speed=1.0`` (one simulated tick per real
nanosecond), so consumer latency percentiles come out in honest
microseconds of admission-to-delivery time.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.net.cluster import (
    ClusterHarness,
    add_cluster_arguments,
    check_kill_arguments,
    spawn_children,  # noqa: F401 - bench/wl_gw_steady.py spans it by name
    spec_keywords,
)
from repro.net.topology import (
    ClusterSpec,
    pipeline_spec,
    plan_cluster_nodes,
    reference_run,
)
from repro.gateway.client import (
    ClientPlan,
    build_clients,
    exactly_once_violations,
    fleet_summary,
)
from repro.gateway.server import GatewayConfig, GatewayServer
from repro.tools.verify_determinism import (
    verify_trace_equivalence,  # noqa: F401 - bench/wl_gw_steady.py spans it
)


def gateway_payload_factory(n_devices: int = 8, n_fields: int = 4):
    """Client payloads for the pipeline app: readings *without* birth.

    The gateway's ingress stamp supplies ``birth = vt`` at admission —
    a client cannot know its own admission time, and letting it claim
    one would corrupt the latency metric.
    """

    def factory(rng, index: int) -> Dict:
        return {
            "device": f"dev{rng.randrange(n_devices)}",
            "fields": [rng.randrange(100) for _ in range(n_fields)],
        }

    return factory


def replay_reference(spec: ClusterSpec,
                     shadow: Dict[str, List[Tuple[int, int, Any]]]
                     ) -> Dict[str, List[Tuple]]:
    """The reference output streams: the simulated twin replaying the
    gateway's shadow log (see :func:`~repro.net.topology.simulated_twin`)."""
    return reference_run(spec, external=shadow)


async def run_gateway_cluster(
    spec: ClusterSpec,
    plan: ClientPlan,
    kill_engine: Optional[str] = None,
    kill_fraction: float = 0.4,
    deadline_s: float = 120.0,
    chaos=None,
    payload_factory=None,
) -> Dict:
    """One live gateway run; returns streams, reference, and diagnostics.

    ``spec`` must carry a gateway config.  A gateway in front of the
    coordinator's ingresses and ``plan``'s client fleet drive the load;
    the clients dial the address the gateway bound.  With
    ``kill_engine`` set, that engine's process is SIGKILLed once
    ``kill_fraction`` of the planned submissions have been admitted;
    the run is complete when the fleet has finished, the admission
    shadow log has been replayed, and every sink's count equals the
    replay's.  ``chaos`` is an optional
    :class:`~repro.chaos.runner.ChaosDriver`; when it fronts
    ``"gateway"``, the clients dial that front instead.
    """
    cluster = ClusterHarness(spec, chaos, deadline_s)
    deployment, runtime = cluster.deployment, cluster.runtime
    metrics = deployment.metrics
    for consumer in deployment.consumers.values():
        consumer.birth_of = _birth_of
    gateway = GatewayServer(
        "gateway",
        ingresses=dict(deployment.ingresses),
        inject=runtime.rtk.inject,
        metrics=metrics,
        config=GatewayConfig.from_spec(spec),
        congested=runtime.transport.congested,
    )
    client_stats: List = []
    reference: Dict[str, List[Tuple]] = {}
    shadow: Dict[str, List[Tuple]] = {}
    kill_at = max(1, int(plan.total_messages * kill_fraction))

    def kill_due() -> Optional[Dict]:
        accepted = gateway.accepted()
        return {"at_accepted": accepted} if accepted >= kill_at else None

    async with cluster:
        address = await gateway.start()
        try:
            if chaos is not None:
                address = (await chaos.front({"gateway": address}))["gateway"]
            clients = build_clients(plan, address, payload_factory
                                    or gateway_payload_factory())
            # The fleet starts at the cluster's shared epoch.
            client_t0 = time.monotonic() + (cluster.t0 - time.time())
            fleet = asyncio.gather(*(c.run(client_t0) for c in clients),
                                   return_exceptions=True)
            if not await cluster.poll(fleet.done, kill_engine, kill_due,
                                      wake=fleet):
                fleet.cancel()
                raise RuntimeError(
                    f"clients still running at the {deadline_s}s deadline"
                )
            for outcome in fleet.result():
                if isinstance(outcome, BaseException):
                    raise outcome
                client_stats.append(outcome)

            # Freeze the admitted-work record and replay it (CPU-bound,
            # in a worker thread) while the live consumers finish
            # draining.
            shadow = {input_id: list(entries)
                      for input_id, entries in gateway.shadow.items()}
            reference = await asyncio.get_running_loop().run_in_executor(
                None, replay_reference, spec, shadow
            )
            ref_counts = {sink: len(s) for sink, s in reference.items()}
            if not await cluster.poll(lambda: cluster.counts() == ref_counts):
                raise RuntimeError(
                    f"consumers at {cluster.counts()} of {ref_counts} at the "
                    f"{deadline_s}s deadline"
                )
            cluster.result["complete"] = True
        finally:
            await gateway.close()

    samples = metrics.latency_count()
    cluster.result.update(
        reference=reference,
        gateway=gateway.report(),
        clients=fleet_summary(client_stats),
        exactly_once_violations=exactly_once_violations(
            client_stats, gateway.shadow
        ),
        latency={
            "samples": samples,
            "p50_us": _pct(metrics, 50.0, samples),
            "p99_us": _pct(metrics, 99.0, samples),
            "p999_us": _pct(metrics, 99.9, samples),
        },
        shadow=shadow,
    )
    return cluster.result


def _birth_of(payload: Any) -> Optional[int]:
    if isinstance(payload, dict):
        return payload.get("birth")
    return None


def _pct(metrics, q: float, samples: int) -> Optional[float]:
    if samples == 0:
        return None
    return round(metrics.latency_percentile_us(q), 3)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def gateway_spec(plan: ClientPlan, max_inflight: int = 1024,
                 max_inflight_bytes: int = 8 * 1024 * 1024,
                 client_rate: float = 2000.0, client_burst: float = 200.0,
                 retry_ms: float = 50.0, **fields) -> ClusterSpec:
    """A gateway-fed pipeline spec for ``plan``'s fleet.

    No seeded workload, and one tick per real nanosecond so latency
    percentiles come out in real microseconds.  The named keywords are
    the admission limits (global in-flight caps, per-client token
    bucket, BUSY retry hint); ``fields`` go to
    :func:`~repro.net.topology.pipeline_spec`.
    """
    return pipeline_spec(
        speed=1.0,
        gateway={
            "max_inflight_msgs": max_inflight,
            "max_inflight_bytes": max_inflight_bytes,
            "rate_msgs_per_s": client_rate,
            "rate_burst": client_burst,
            "retry_ms": retry_ms,
            "span_ms": max(400.0, plan.duration_s() * 1000.0),
        },
        **fields,
    )


def run_trial(label: str, spec: ClusterSpec, plan: ClientPlan,
              kill_engine: Optional[str], kill_fraction: float,
              deadline_s: float,
              chaos_seed: Optional[int] = None,
              record_dir: Optional[str] = None) -> Dict:
    """One live run + verification; returns the trial report.

    With ``chaos_seed``, the seeded ``gateway_client_reset`` schedule
    runs through a fault proxy that fronts the gateway alone: engine and
    replica links stay direct — gateway chaos faults the edge, not the
    interior (``repro.chaos`` covers the interior).
    """
    from repro.chaos.invariants import check_invariants

    chaos = schedule = None
    if chaos_seed is not None:
        from repro.chaos.proxy import FaultProxy
        from repro.chaos.runner import ChaosDriver
        from repro.chaos.schedule import generate_schedule

        schedule = generate_schedule(
            chaos_seed, spec, scenario="gateway_client_reset"
        )
        chaos = ChaosDriver(schedule, FaultProxy(), spec,
                            fronted=["gateway"])
    result = asyncio.run(run_gateway_cluster(
        spec, plan, kill_engine=kill_engine,
        kill_fraction=kill_fraction, deadline_s=deadline_s, chaos=chaos,
    ))
    verdict = check_invariants(spec, schedule, result.pop("reference"),
                               result)
    del result["streams"], result["arrival_ticks"]  # bulky; judged
    shadow = result.pop("shadow", {})
    if record_dir is not None and shadow:
        # Gateway bundles replay the admission shadow log (the spec has
        # no seeded workload), re-executed under the replay-clock tracer.
        from repro.runtime.flightrec import record_run

        bundle = record_run(
            spec, Path(record_dir) / label, external=shadow,
            seed=spec.master_seed, source="gateway",
        )
        result["bundle"] = str(bundle)
        print(f"{label}: wrote replay bundle {bundle}",
              file=sys.stderr, flush=True)
    # The client ledger: no conflicting ACCEPTs or duplicated ingress
    # seqs, no submission left unanswered, and — the engine died, yet
    # no client socket so much as blinked — failover transparency.
    violations = verdict["violations"]
    clients = result["clients"]
    if result["exactly_once_violations"]:
        violations.append(f"client ledger: "
                          f"{result['exactly_once_violations']} "
                          f"exactly-once violation(s)")
    if clients["unresolved"]:
        violations.append(f"client ledger: {clients['unresolved']} "
                          f"unresolved submission(s)")
    if kill_engine is not None and result["killed"] is None:
        violations.append(f"{kill_engine} was never killed")
    if kill_engine is not None and clients["reconnects"]:
        violations.append(f"client ledger: {clients['reconnects']} "
                          f"reconnect(s) across the kill")
    for violation in violations:
        print(f"{label}: violation: {violation}", file=sys.stderr, flush=True)
    result.update(ok=not violations, deterministic=verdict["byte_identical"])
    if not verdict["byte_identical"]:
        result["divergence"] = violations[0]  # byte identity is judged first
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.gateway.cluster",
        description="Drive a real cluster through the public ingress "
                    "gateway with open-loop TCP clients and verify the "
                    "output against a pure-sim replay of the gateway's "
                    "admission log.",
    )
    add_cluster_arguments(parser, "g")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--client-reset", type=int, default=None,
                        metavar="SEED",
                        help="run the seeded gateway_client_reset chaos "
                             "scenario: client connections are hard-"
                             "closed mid-burst through the fault proxy")
    parser.add_argument("--max-inflight", type=int, default=1024,
                        help="admission cap on in-flight messages")
    parser.add_argument("--max-inflight-bytes", type=int,
                        default=8 * 1024 * 1024)
    parser.add_argument("--client-rate", type=float, default=2000.0,
                        help="per-client token bucket refill (msgs/sec)")
    parser.add_argument("--client-burst", type=float, default=200.0)
    parser.add_argument("--retry-ms", type=float, default=50.0)
    args = parser.parse_args(argv)

    check_kill_arguments(parser, args)
    kill_engine = None
    if args.kill_active:
        kill_engine = args.kill_engine or "e0"
        if kill_engine not in [f"e{i}" for i in range(args.engines)]:
            parser.error(f"unknown --kill-engine {kill_engine!r}")

    plan = ClientPlan(
        n_clients=args.clients,
        total_messages=args.messages,
        rate_msgs_per_s=args.rate,
        seed=args.seed,
    )
    spec = gateway_spec(
        plan,
        max_inflight=args.max_inflight,
        max_inflight_bytes=args.max_inflight_bytes,
        client_rate=args.client_rate,
        client_burst=args.client_burst,
        retry_ms=args.retry_ms,
        master_seed=args.seed,
        **spec_keywords(args, seeded=False),
    )
    deadline_s = args.timeout or max(60.0, 6.0 * plan.duration_s() + 30.0)

    trials: List[Tuple[str, Optional[str], Optional[int]]] = []
    if not args.skip_clean:
        trials.append(("gateway-clean", None, None))
    if kill_engine is not None:
        trials.append((f"gateway-kill-{kill_engine}", kill_engine, None))
    if args.client_reset is not None:
        trials.append((f"gateway-reset-{args.client_reset}", None,
                       args.client_reset))
    if not trials:
        trials.append(("gateway-clean", None, None))

    report: Dict = {"plan": {
        "clients": plan.n_clients,
        "messages": plan.total_messages,
        "rate_msgs_per_s": plan.rate_msgs_per_s,
    }, "trials": {}}
    metrics_docs: Dict[str, Dict] = {}
    failed = False
    for label, victim, chaos_seed in trials:
        print(f"{label}: launching "
              f"{len(plan_cluster_nodes(spec)) - 1} child process(es), "
              f"{plan.n_clients} client(s), {plan.total_messages} "
              f"submission(s) ...", file=sys.stderr, flush=True)
        result = run_trial(label, spec, plan, victim, args.kill_fraction,
                           deadline_s, chaos_seed=chaos_seed,
                           record_dir=args.record)
        metrics_docs[label] = result.pop("metrics", None)
        failed = failed or not result["ok"]
        report["trials"][label] = result
        status = "OK" if result["ok"] else "FAIL"
        lat = result["latency"]
        gw = result["gateway"]
        print(f"{label}: {status} — {sum(result['counts'].values())} "
              f"outputs in {result['elapsed_s']}s; accepted="
              f"{gw['accepted']} shed={gw['shed']} rate_limited="
              f"{gw['rate_limited']} dup={gw['duplicates']}; "
              f"p50={lat['p50_us']}us p99={lat['p99_us']}us "
              f"p999={lat['p999_us']}us; stutter={result['stutter']}, "
              f"reconnects={result['clients']['reconnects']}, "
              f"violations={result['exactly_once_violations']}"
              + (f"; killed {result['killed']['engine']} after "
                 f"{result['killed']['at_accepted']} admissions"
                 if result["killed"] else ""),
              file=sys.stderr, flush=True)

    if args.metrics_out is not None:
        Path(args.metrics_out).write_text(
            json.dumps(metrics_docs, indent=2, sort_keys=True) + "\n")
        print(f"gateway: wrote metrics to {args.metrics_out}",
              file=sys.stderr, flush=True)
    if args.as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    print("gateway: " + ("all trials byte-identical to the replayed "
                         "reference" if not failed else "FAILED"),
          file=sys.stderr, flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
