"""One benchmark for the whole stack.

Driver form (the contract in ``BENCHMARK.json``)::

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

runs one workload, checks its outputs, and prints one JSON object as the
last line of stdout: every end-to-end metric with ``--trace 0``, every
per-layer metric with ``--trace 1``.  Everything for people goes to
stderr.

Without ``--workload`` it runs all four workloads and prints the table
of named metrics, each run in a process of its own as the driver would
(``--traced`` adds the per-layer runs, ``--repeat N`` runs seeds
``seed .. seed+N-1``, ``--out`` keeps the runs for ``compare.py``).
``--ladder`` runs the informational saturation ladder.

A traced run measures the workload twice at half ``--seconds`` -- once
plain, once with bench-side spans and a per-module profile -- reports
the difference as ``tracing_overhead_pct``, then runs the layer drivers.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import benchlib

benchlib.bootstrap()

import calibrate  # noqa: E402 - needs the bootstrap above
import layers  # noqa: E402
import wl_gw_steady  # noqa: E402
import wl_net_failover  # noqa: E402
import wl_sim_fig1  # noqa: E402
import wl_wire_stream  # noqa: E402
from benchlib import (RESULTS, ROOT, LayerProfile, Outcome,  # noqa: E402
                      Tracer)

WORKLOADS = {
    "sim_fig1": wl_sim_fig1.run,
    "wire_stream": wl_wire_stream.run,
    "gw_steady": wl_gw_steady.run,
    "net_failover": wl_net_failover.run,
}
SMOKE_SECONDS = 1.5
#: Workload layer metrics that are timings of the run itself.
UNPROFILED_LAYERS = frozenset({
    "latency_p99_us", "sim_fig1.nondet_dispatch_per_refs",
    "net_failover.gap_ms", "net_failover.e2e_p95_us",
    "net_failover.late_over_50ms", "runtime.recovery.failover_excess_ms",
})
LADDER_STEP, LADDER_WINDOW_S, LADDER_P95_LIMIT_US = 1.25, 8.0, 20_000.0


def spec() -> Dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def machine() -> Dict:
    """Where the numbers came from (recorded with every result)."""
    model = "unknown"
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10.0).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    spins = [calibrate.timed_spin() for _ in range(9)]
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": model, "commit": commit,
            "median_spin_ms": statistics.median(spins) * 1e3}


def say(text: str = "") -> None:
    print(text, file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def measure(workload: str, seed: int, run_seconds: float) -> Outcome:
    """The untraced run: the end-to-end metrics come from here."""
    return WORKLOADS[workload](seed, run_seconds,
                               Tracer(workload, False), LayerProfile(False))


def measure_traced(workload: str, seed: int, run_seconds: float) -> Outcome:
    """Plain twin, traced twin, layer drivers -> every per-layer metric."""
    half = run_seconds / 2.0
    plain = measure(workload, seed, half)
    tracer, profile = Tracer(workload, True), LayerProfile(True)
    traced = WORKLOADS[workload](seed, half, tracer, profile)
    rows = {row["name"]: row for row in spec()["per_layer"]}
    values: Dict[str, tuple] = {
        name: (0.0, row["unit"]) for name, row in rows.items()}
    shares = profile.summary()
    calls = shares.pop("calls")
    values.update({name: (share, "ratio") for name, share in shares.items()})
    values["calls_per_op"] = (
        calls / max(1.0, traced.profiled_ops), "count")
    values.update(traced.layers)
    # The profiler inflates every timing, so rates and latencies are
    # read from the plain twin; counts and shares need the traced one.
    values.update({name: value for name, value in plain.layers.items()
                   if name in UNPROFILED_LAYERS})
    base = plain.metrics["throughput_per_refs"][0]
    values["tracing_overhead_pct"] = (
        100.0 * (1.0 - traced.metrics["throughput_per_refs"][0] / base), "%")
    values.update(layers.run_all(tracer))
    say(f"{workload}: {len(tracer.spans)} spans -> {tracer.write()}")
    unknown = sorted(set(values) - set(rows))
    if unknown:
        raise RuntimeError(f"per-layer metrics missing from BENCHMARK.json: "
                           f"{unknown}")
    return Outcome(workload, plain.attempted + traced.attempted,
                   plain.failed + traced.failed,
                   plain.failures + traced.failures, values)


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, tuple]) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def driver_main(args) -> int:
    if args.trace:
        out = measure_traced(args.workload, args.seed, args.seconds)
    else:
        out = measure(args.workload, args.seed, args.seconds)
    report(out)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(dataclasses.asdict(out), handle, indent=1)
    print(result_line(out.failed == 0, out.attempted, out.failed,
                      out.metrics), flush=True)
    return 0 if out.failed == 0 else 1


def report(out: Outcome) -> None:
    say(f"--- {out.workload}")
    for name, (value, unit) in out.metrics.items():
        say(f"  {name:48s} {value:16.4f} {unit}")
    say(f"  {'ops_attempted':48s} {out.attempted:16d}")
    say(f"  {'ops_failed':48s} {out.failed:16d}")
    for name, value in out.raw.items():
        say(f"  ({name:46s} {value:16.4f})")
    for why in out.failures:
        say(f"{out.workload}: FAILED: {why}")


# ----------------------------------------------------------------------
# All workloads, for people
# ----------------------------------------------------------------------
def named_metrics(outs: Dict[str, Dict]) -> Dict[str, list]:
    """The issue's metric names, read off the per-workload slots."""
    sim, wire = outs["sim_fig1"], outs["wire_stream"]
    gw, fo = outs["gw_steady"], outs["net_failover"]
    return {
        "sim_dispatch_per_refs": sim["metrics"]["throughput_per_refs"],
        "sim_nondet_dispatch_per_refs":
            sim["layers"]["sim_fig1.nondet_dispatch_per_refs"],
        "det_overhead_pct": sim["layers"]["sim_fig1.det_overhead_pct"],
        "wire_msgs_per_refs": wire["metrics"]["throughput_per_refs"],
        "wire_trickle_ack_p50_us": wire["metrics"]["latency_p50_us"],
        "e2e_p50_refus": gw["metrics"]["latency_p50_us"],
        "e2e_p95_refus": gw["metrics"]["latency_tail_us"],
        "cpu_refms_per_msg": [gw["raw"]["cpu_refms_per_msg"], "ms"],
        "peak_rss_mb": gw["metrics"]["peak_rss_mb"],
        "failover_gap_ms": fo["layers"]["net_failover.gap_ms"],
    }


def one_run(workload: str, seed: int, run_seconds: float, trace: int) -> Dict:
    """One driver-form run in a process of its own; its full outcome.

    A fresh process per workload is what the driver does, and what makes
    ``peak_rss_mb`` mean the workload's peak and not the suite's.
    """
    path = RESULTS / "tmp" / f"outcome-{workload}-{seed}-{trace}.json"
    done = subprocess.run(
        [sys.executable, __file__, "--workload", workload,
         "--seed", str(seed), "--seconds", str(run_seconds),
         "--trace", str(trace), "--out", str(path)],
        stdout=subprocess.DEVNULL)
    if not path.exists():
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode} "
                           f"and no outcome")
    outcome = json.loads(path.read_text())
    path.unlink()
    return outcome


def suite_main(args) -> int:
    meta = machine()
    say(f"machine: {json.dumps(meta)}")
    runs: List[Dict] = []
    failed = 0
    for seed in range(args.seed, args.seed + args.repeat):
        started = time.perf_counter()
        outs = {workload: one_run(workload, seed, args.seconds, 0)
                for workload in WORKLOADS}
        wall_s = time.perf_counter() - started
        named = named_metrics(outs)
        say(f"=== seed {seed}: named metrics ({wall_s:.1f} s wall)")
        for name, (value, unit) in named.items():
            say(f"  {name:32s} {value:16.4f} {unit}")
        run = {"seed": seed, "wall_s": wall_s, "named": named,
               "workloads": outs}
        if args.traced:
            run["per_layer"] = {
                workload: one_run(workload, seed, args.seconds, 1)
                for workload in WORKLOADS}
        failed += sum(out["failed"] for kind in ("workloads", "per_layer")
                      for out in run.get(kind, {}).values())
        runs.append(run)
    document = {"machine": meta, "seconds": args.seconds, "runs": runs}
    out_path = args.out or str(RESULTS / f"run-seed{args.seed}.json")
    with open(out_path, "w") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    say(f"wrote {out_path}" + (f"; {failed} ops FAILED" if failed else ""))
    return 1 if failed else 0


def ladder_main(args) -> int:
    """Informational: step the offered rate up until the cluster gives.

    Kept out of ``BENCHMARK.json``: a 25 % step cannot repeat within a
    tenth, so the knee it finds is a bracket, not a metric.
    """
    rate = wl_gw_steady.RATE_MSGS_PER_S
    steps = []
    while True:
        say(f"ladder: {rate:.0f} msgs/s for {LADDER_WINDOW_S:.0f} s ...")
        got = wl_gw_steady.run_cluster(
            f"ladder-{rate:.0f}", args.seed, rate, LADDER_WINDOW_S,
            Tracer("ladder", False), LayerProfile(False),
            sample_children=False, deadline_s=LADDER_WINDOW_S * 3 + 20.0)
        trial = got["trial"]
        latency = trial["metrics"]["latency"]
        step = {"offered_msgs_per_s": rate, "complete": bool(trial["ok"]),
                "delivered": sum(trial["counts"].values()),
                "p50_us": latency.get("p50_us"),
                "p95_us": latency.get("p95_us"),
                "error": trial["error"]}
        steps.append(step)
        say(f"ladder: {json.dumps(step)}")
        if not step["complete"] or step["p95_us"] > LADDER_P95_LIMIT_US:
            break
        rate *= LADDER_STEP
    document = {"machine": machine(), "window_s": LADDER_WINDOW_S,
                "p95_limit_us": LADDER_P95_LIMIT_US, "steps": steps,
                "last_good_msgs_per_s": max(
                    (s["offered_msgs_per_s"] for s in steps[:-1]),
                    default=None)}
    path = RESULTS / "ladder.json"
    path.write_text(json.dumps(document, indent=1) + "\n")
    say(f"wrote {path}")
    print(json.dumps(document["last_good_msgs_per_s"]), flush=True)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 bench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        default=float(spec()["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help=f"tenth-scale run (--seconds {SMOKE_SECONDS})")
    parser.add_argument("--repeat", type=int, default=1,
                        help="without --workload: run this many seeds")
    parser.add_argument("--out", help="also write the full result here")
    parser.add_argument("--ladder", action="store_true",
                        help="informational saturation ladder on gw_steady")
    args = parser.parse_args(argv)
    args.traced = args.trace = bool(args.trace or args.traced)
    if args.smoke:
        args.seconds = SMOKE_SECONDS
    RESULTS.mkdir(parents=True, exist_ok=True)
    if args.ladder:
        return ladder_main(args)
    if args.workload:
        return driver_main(args)
    return suite_main(args)


if __name__ == "__main__":
    sys.exit(main())
