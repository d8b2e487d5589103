"""``python -m repro.tools.loadgen``: open-loop gateway load harness.

Measures the public ingress path end to end and writes the committed
snapshot ``BENCH_gateway.json``.  Two phases, both verified against the
replayed-shadow-log oracle (see :mod:`repro.gateway.cluster`):

1. **steady** — a fleet of open-loop clients offers a fixed aggregate
   Poisson arrival rate well inside the admission envelope.  Reported:
   p50/p99/p999 admission-to-consumer latency (the gateway stamps
   ``birth = vt`` at admission; the consumer's latency metric measures
   to delivery), achieved throughput, and the determinism verdict.
2. **overload** — a synchronized burst from many more clients than the
   (deliberately tightened) admission controller will hold, with small
   per-client token buckets.  The gateway must degrade by *answering* —
   BUSY ``rate`` and BUSY ``shed`` both nonzero, zero crashes, zero
   exactly-once violations — and the accepted subset must still replay
   byte-identically.

Open loop means arrival times are fixed up front: clients keep
submitting on schedule no matter how the gateway responds, so the
overload phase genuinely overloads instead of politely slowing down.

``--quick`` shrinks both phases for CI smoke; committed snapshots
should come from a full run.  ``--connect HOST:PORT`` skips the
self-contained cluster and fires the fleet at an already-running
gateway (started via ``python -m repro.net.cluster --gateway``),
reporting client-observed accept round trips instead.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.gateway.client import (
    ClientPlan,
    build_clients,
    fleet_summary,
)
from repro.gateway.cluster import (
    gateway_payload_factory,
    gateway_spec,
    run_trial,
)

#: Phase parameters: (clients, messages, aggregate msgs/sec).
_STEADY = {"quick": (40, 400, 800.0), "full": (200, 4000, 2000.0)}
_OVERLOAD_CLIENTS = {"quick": 120, "full": 400}
#: Submissions per client in the overload burst.
_OVERLOAD_PER_CLIENT = 4
#: Admission cap during overload — far below the burst size, so the
#: controller *must* shed.
_OVERLOAD_MAX_INFLIGHT = 32
#: Overload per-client bucket: burst 2 of 4 submissions, so the token
#: bucket *must* rate-limit the rest.
_OVERLOAD_BUCKET = (50.0, 2.0)


def _steady_phase(quick: bool, seed: int, timeout: float) -> Dict:
    clients, messages, rate = _STEADY["quick" if quick else "full"]
    plan = ClientPlan(n_clients=clients, total_messages=messages,
                      rate_msgs_per_s=rate, seed=seed)
    spec = gateway_spec(plan, client_rate=4 * rate, client_burst=2 * rate,
                        retry_ms=25.0, master_seed=seed)
    started = time.monotonic()
    result = run_trial("loadgen-steady", spec, plan, None, 0.4, timeout)
    wall_s = time.monotonic() - started
    lat = result["latency"]
    gw = result["gateway"]
    span_s = max(plan.duration_s(), 1e-9)
    return {
        "clients": plan.n_clients,
        "offered": plan.total_messages,
        "offered_msgs_per_s": rate,
        "accepted": gw["accepted"],
        "achieved_msgs_per_s": round(gw["accepted"] / span_s, 1),
        "p50_us": lat["p50_us"],
        "p99_us": lat["p99_us"],
        "p999_us": lat["p999_us"],
        "samples": lat["samples"],
        "stutter": result["stutter"],
        "deterministic": result["deterministic"],
        "ok": result["ok"],
        "violations": result["exactly_once_violations"],
        "wall_s": round(wall_s, 4),
    }


def _overload_phase(quick: bool, seed: int, timeout: float) -> Dict:
    clients = _OVERLOAD_CLIENTS["quick" if quick else "full"]
    messages = clients * _OVERLOAD_PER_CLIENT
    plan = ClientPlan(n_clients=clients, total_messages=messages,
                      rate_msgs_per_s=0.0, seed=seed)  # burst
    bucket_rate, bucket_burst = _OVERLOAD_BUCKET
    spec = gateway_spec(plan, max_inflight=_OVERLOAD_MAX_INFLIGHT,
                        client_rate=bucket_rate, client_burst=bucket_burst,
                        retry_ms=25.0, master_seed=seed)
    started = time.monotonic()
    result = run_trial("loadgen-overload", spec, plan, None, 0.4, timeout)
    wall_s = time.monotonic() - started
    gw = result["gateway"]
    return {
        "clients": plan.n_clients,
        "offered": plan.total_messages,
        "max_inflight_msgs": _OVERLOAD_MAX_INFLIGHT,
        "accepted": gw["accepted"],
        "shed": gw["shed"],
        "rate_limited": gw["rate_limited"],
        "stutter": result["stutter"],
        "deterministic": result["deterministic"],
        "ok": result["ok"],
        "violations": result["exactly_once_violations"],
        "wall_s": round(wall_s, 4),
    }


def _percentile(samples: List[float], q: float) -> float:
    """Linear-interpolation percentile (numpy default definition)."""
    ordered = sorted(samples)
    if not ordered:
        return float("nan")
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def _connect_mode(addr: str, clients: int, messages: int, rate: float,
                  seed: int, input_id: str) -> int:
    """Fire the fleet at an external gateway; report accept RTTs."""
    host, _, port = addr.rpartition(":")
    plan = ClientPlan(n_clients=clients, total_messages=messages,
                      rate_msgs_per_s=rate, seed=seed, input_id=input_id)

    async def _run():
        fleet = build_clients(plan, (host or "127.0.0.1", int(port)),
                              gateway_payload_factory())
        t0 = time.monotonic() + 0.25
        return await asyncio.gather(*(c.run(t0) for c in fleet))

    stats = asyncio.run(_run())
    summary = fleet_summary(stats)
    rtts = [s for stat in stats for s in stat.rtt_s]
    report = {
        "connect": f"{host or '127.0.0.1'}:{port}",
        "fleet": summary,
        "accept_rtt": {
            "samples": len(rtts),
            "p50_us": round(_percentile(rtts, 50.0) * 1e6, 1),
            "p99_us": round(_percentile(rtts, 99.0) * 1e6, 1),
            "p999_us": round(_percentile(rtts, 99.9) * 1e6, 1),
        } if rtts else {"samples": 0},
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    failed = (summary["conflicts"] or summary["unresolved"]
              or not summary["accepted"])
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.loadgen",
        description="Open-loop load harness for the ingress gateway; "
                    "writes BENCH_gateway.json.",
    )
    parser.add_argument("--quick", action="store_true",
                        help="small phases for CI smoke")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="per-phase wall-clock deadline in seconds")
    parser.add_argument("--out-dir", default=".",
                        help="where to write BENCH_gateway.json")
    parser.add_argument("--connect", default=None, metavar="HOST:PORT",
                        help="drive an already-running gateway instead "
                             "of the self-contained cluster phases")
    parser.add_argument("--clients", type=int, default=40,
                        help="--connect mode: fleet size")
    parser.add_argument("--messages", type=int, default=400,
                        help="--connect mode: total submissions")
    parser.add_argument("--rate", type=float, default=800.0,
                        help="--connect mode: aggregate msgs/sec")
    parser.add_argument("--input", default="readings",
                        help="--connect mode: target input id")
    args = parser.parse_args(argv)

    if args.connect is not None:
        return _connect_mode(args.connect, args.clients, args.messages,
                             args.rate, args.seed, args.input)

    print("loadgen: steady phase ...", file=sys.stderr, flush=True)
    steady = _steady_phase(args.quick, args.seed, args.timeout)
    print(f"loadgen: steady accepted={steady['accepted']}"
          f"/{steady['offered']} p50={steady['p50_us']}us "
          f"p99={steady['p99_us']}us p999={steady['p999_us']}us "
          f"deterministic={steady['deterministic']}",
          file=sys.stderr, flush=True)
    print("loadgen: overload phase ...", file=sys.stderr, flush=True)
    overload = _overload_phase(args.quick, args.seed, args.timeout)
    print(f"loadgen: overload accepted={overload['accepted']}"
          f"/{overload['offered']} shed={overload['shed']} "
          f"rate_limited={overload['rate_limited']} "
          f"deterministic={overload['deterministic']}",
          file=sys.stderr, flush=True)

    payload = {
        "bench": "gateway",
        "quick": bool(args.quick),
        "steady": steady,
        "overload": overload,
        "exactly_once_violations": (steady["violations"]
                                    + overload["violations"]),
    }
    path = Path(args.out_dir) / "BENCH_gateway.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(payload, indent=2, sort_keys=True))

    ok = (steady["ok"] and overload["ok"] and overload["shed"] > 0
          and overload["rate_limited"] > 0
          and payload["exactly_once_violations"] == 0)
    print("loadgen: " + ("OK" if ok else "FAILED"),
          file=sys.stderr, flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
