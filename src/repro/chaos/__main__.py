"""``python -m repro.chaos``: run one seeded chaos experiment.

Exit codes: 0 — live run byte-identical to the simulated reference and
all invariants hold; 1 — an invariant failed (a real bug); 2 — the
schedule was unsurvivable and the cluster degraded gracefully with a
structured :class:`~repro.errors.UnrecoverableClusterError` (expected
for ``--scenario unsurvivable``, a surprise otherwise).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.chaos.runner import run_chaos
from repro.chaos.schedule import (
    EXTRA_SCENARIOS,
    SCENARIOS,
    ChaosSchedule,
    generate_schedule,
)
from repro.errors import UnrecoverableClusterError
from repro.net.cluster import add_cluster_arguments, spec_keywords
from repro.net.topology import pipeline_spec


def main(argv: Optional[List[str]] = None,
         namespace: Optional[argparse.Namespace] = None) -> int:
    """``namespace`` carries values ``repro.net.cluster --chaos`` has
    already parsed; options it does not hold get their defaults."""
    known = sorted(SCENARIOS) + sorted(EXTRA_SCENARIOS)
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="Generate the seeded fault schedule for --seed, run "
                    "it against a live multi-process cluster behind a "
                    "TCP fault proxy, and verify the recovered output "
                    "byte-identical to the simulated reference.",
    )
    add_cluster_arguments(parser, "c")
    parser.add_argument("--seed", type=int, default=0,
                        help="schedule seed; also picks the scenario "
                             "(seed %% n rotates through them)")
    parser.add_argument("--master-seed", type=int, default=7,
                        help="workload/application seed (the chaos "
                             "--seed only drives the fault schedule)")
    parser.add_argument("--scenario", default=None, choices=known,
                        help="force a scenario instead of the rotation")
    parser.add_argument("--schedule", default=None, metavar="FILE",
                        help="run a saved schedule JSON instead of "
                             "generating one")
    parser.add_argument("--emit-schedule", action="store_true",
                        help="print the schedule JSON and exit (diff "
                             "two seeds, or save for --schedule)")
    parser.add_argument("--sim-only", action="store_true",
                        help="only run the in-simulator replay")
    parser.add_argument("--skip-sim", action="store_true",
                        help="skip the in-simulator replay")
    args = parser.parse_args(argv, namespace)

    # The cluster CLI's workload and layout, with transport timeouts
    # compressed so partitions and kills resolve in test-scale wall time.
    spec = pipeline_spec(
        master_seed=args.master_seed,
        connect_timeout_s=0.5,
        handshake_timeout_s=0.5,
        backoff_min_s=0.02,
        backoff_max_s=0.2,
        fence_attempts=10,
        fence_gap_s=0.1,
        **spec_keywords(args),
    )
    schedule = None
    if args.schedule:
        schedule = ChaosSchedule.from_json(Path(args.schedule).read_text())
    if args.emit_schedule:
        schedule = schedule or generate_schedule(args.seed, spec,
                                                 args.scenario)
        print(schedule.to_json())
        return 0

    try:
        report = run_chaos(
            spec, args.seed,
            scenario=args.scenario,
            schedule=schedule,
            deadline_s=args.timeout,
            run_sim=not args.skip_sim,
            run_live=not args.sim_only,
            record_dir=args.record,
        )
    except UnrecoverableClusterError as exc:
        print(f"chaos: {exc}", file=sys.stderr, flush=True)
        if args.as_json:
            print(json.dumps({
                "ok": False,
                "unrecoverable": True,
                "lost_state": exc.lost_state,
                "seed": exc.schedule_seed,
                "delivered": exc.delivered,
                "expected": exc.expected,
            }, indent=2, sort_keys=True))
        return 2

    if args.metrics_out is not None:
        Path(args.metrics_out).write_text(
            json.dumps(report.get("metrics"), indent=2, sort_keys=True)
            + "\n")
        print(f"chaos: wrote metrics to {args.metrics_out}",
              file=sys.stderr, flush=True)
    report.pop("metrics", None)  # bulky; lives in --metrics-out / bundles
    if args.as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    verdict = report.get("verdict", {})
    for violation in verdict.get("violations", []):
        print(f"chaos: violation: {violation}", file=sys.stderr, flush=True)
    status = "OK" if report["ok"] else "FAIL"
    print(f"chaos: seed {args.seed} ({report['scenario']}): {status}",
          file=sys.stderr, flush=True)
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
