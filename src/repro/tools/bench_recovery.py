"""``python -m repro.tools.bench_recovery``: measure the three costs
the cadence controller reasons about, and write ``BENCH_recovery.json``.

1. **Checkpoint capture** — wall microseconds to snapshot every
   component on an engine and encode the canonical blob (both full and
   incremental captures, measured separately).
2. **Replay rate** — virtual ticks of log replayed per wall second,
   measured over real in-simulator failovers (kill + promote + replay).
3. **Audit rebuild** — wall microseconds for one divergence audit:
   fold the mirrored chain forward with a fresh delta and byte-compare
   against live state.

These are the empirical inputs to the recovery-time objective
(``docs/recovery.md``): capture cost bounds how often checkpointing is
affordable, replay rate converts a wall-clock RTO into a tick budget,
and rebuild cost is the audit's steady-state overhead.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path
from typing import Dict, List

from repro.apps.pipeline import build_pipeline_app, reading_factory
from repro.apps.wordcount import birth_of
from repro.runtime.app import Deployment
from repro.runtime.engine import EngineConfig
from repro.runtime.placement import Placement
from repro.sim.kernel import TICKS_PER_MS, ms


def _build(audit: str = "off", master_seed: int = 7) -> Deployment:
    app = build_pipeline_app(window=5)
    config = EngineConfig(checkpoint_interval=ms(10))
    if audit != "off":
        config = EngineConfig(checkpoint_interval=ms(10), audit=audit)
    dep = Deployment(
        app,
        Placement({"parser": "E1", "enricher": "E1", "aggregator": "E2"}),
        engine_config=config, master_seed=master_seed, birth_of=birth_of,
    )
    dep.add_poisson_producer("readings", reading_factory(),
                             mean_interarrival=ms(1))
    return dep


def _summary(samples_us: List[float]) -> Dict:
    ordered = sorted(samples_us)
    return {
        "samples": len(ordered),
        "mean_us": round(statistics.fmean(ordered), 2),
        "p50_us": round(ordered[len(ordered) // 2], 2),
        "p95_us": round(ordered[int(len(ordered) * 0.95) - 1], 2),
    }


def bench_capture(rounds: int = 200) -> Dict:
    """Time full and incremental captures on a busy engine."""
    dep = _build()
    dep.run(until=ms(50))
    engine = dep.engine("E1")
    full: List[float] = []
    incremental: List[float] = []
    blob_bytes = 0.0
    for i in range(rounds):
        dep.run(until=dep.sim.now + ms(2))  # accumulate dirty state
        force_full = i % 2 == 0
        started = time.perf_counter()
        engine.capture_checkpoint(force_full=force_full,
                                  avoid_full=not force_full)
        elapsed_us = (time.perf_counter() - started) * 1e6
        (full if force_full else incremental).append(elapsed_us)
        blob_bytes = dep.metrics.gauge_value("cadence.checkpoint_bytes",
                                             blob_bytes)
    return {
        "full": _summary(full),
        "incremental": _summary(incremental),
        "components_per_engine": len(engine.runtimes),
    }


def bench_audit_rebuild(rounds: int = 200) -> Dict:
    """Time the chain-fold + byte-compare at real checkpoint boundaries."""
    dep = _build(audit="heal")
    dep.run(until=ms(100))  # several captures: the mirrored chain exists
    auditor = dep.engine("E1").auditor
    samples: List[float] = []
    for _ in range(rounds):
        dep.run(until=dep.sim.now + ms(2))
        started = time.perf_counter()
        outcome = auditor.audit_once()
        samples.append((time.perf_counter() - started) * 1e6)
        assert outcome == "clean", outcome
    return _summary(samples)


def bench_replay(failovers: int = 5) -> Dict:
    """Measure replay throughput over real kill + promote + replay cycles.

    Wall time is measured around the simulation window that performs
    the failover; the replayed span is the virtual downtime the
    recovery manager records.  The resulting ticks-per-second is the
    end-to-end rate a wall-clock RTO must be converted through.
    """
    dep = _build()
    dep.run(until=ms(100))
    spans: List[int] = []
    walls: List[float] = []
    for i in range(failovers):
        victim = "E1" if i % 2 == 0 else "E2"
        failed_at = dep.sim.now
        dep.recovery.engine_failed(victim, detection_delay=ms(2))
        started = time.perf_counter()
        dep.run(until=dep.sim.now + ms(30))
        walls.append(time.perf_counter() - started)
        history = dep.recovery.history[victim][-1]
        spans.append(dep.sim.now - failed_at)
        assert history is not None
    total_ticks = sum(spans)
    total_s = sum(walls)
    return {
        "failovers": len(spans),
        "replayed_ticks": total_ticks,
        "wall_s": round(total_s, 4),
        "ticks_per_sec": round(total_ticks / total_s, 1),
        "sim_ms_per_wall_s": round(total_ticks / TICKS_PER_MS / total_s, 2),
    }


def bench_group_failover(
    shapes=((1, 1), (3, 1), (3, 2)),
    messages: int = 240,
    speed: float = 0.1,
) -> Dict:
    """Live SIGKILL-to-first-recovered-byte latency per cluster shape.

    For each ``engines x followers`` shape, runs the real multi-process
    cluster with ``--kill-active`` semantics and measures
    ``group_failover_ms``: wall milliseconds from the SIGKILL to the
    first byte a sink depending on the victim's replication group
    delivers afterwards (detection + promotion + replay + reconnect).
    The non-sharded ``1x1`` shape is the legacy engine+replica pair;
    the ``3xK`` shapes measure group-local failover while the other
    groups keep streaming.
    """
    import asyncio

    from repro.net.cluster import (
        default_victim,
        run_networked,
        with_addresses,
    )
    from repro.net.topology import (
        pipeline_spec,
        reference_run,
        sink_upstream_engines,
    )

    shapes_out: Dict[str, Dict] = {}
    for engines, followers in shapes:
        spec = pipeline_spec(engines=engines, messages=messages,
                             speed=speed, followers_per_group=followers)
        reference = reference_run(spec)
        ref_counts = {sink: len(s) for sink, s in reference.items()}
        victim = default_victim(spec)
        result = asyncio.run(run_networked(
            with_addresses(spec), ref_counts, kill_engine=victim,
            kill_fraction=0.4, deadline_s=120.0,
        ))
        label = f"{engines}x{followers}"
        if result.get("error") or not result.get("complete"):
            shapes_out[label] = {"error": result.get("error")
                                 or "incomplete"}
            continue
        kill_tick = (result.get("killed") or {}).get("at_ticks")
        arrivals = result.get("arrival_ticks") or {}
        upstream = sink_upstream_engines(spec)
        victim_sinks = [s for s, deps in upstream.items()
                        if victim in deps]
        first = min((t for sink in victim_sinks
                     for t in arrivals.get(sink, []) if t >= kill_tick),
                    default=None)
        failover_ms = (None if first is None
                       else round((first - kill_tick) / (1e6 * speed), 2))
        shapes_out[label] = {
            "engines": engines,
            "followers": followers,
            "victim": victim,
            "group_failover_ms": failover_ms,
            "stutter": result.get("stutter"),
            "epoch_resets": result.get("epoch_resets"),
            "elapsed_s": result.get("elapsed_s"),
        }
    return shapes_out


def bench_bundle_replay(rounds: int = 3) -> Dict:
    """Record a ``.replay`` flight-recorder bundle and time a cold
    load + seek-to-horizon (``docs/timetravel.md``).

    ``record_ms`` is the cost of executing the simulated twin under a
    replay-clock tracer and persisting the bundle; ``replay_ms`` is the
    cost the debugger pays per cold seek (rebuild + re-execute +
    byte-verify against the recorded snapshot).
    """
    import tempfile

    from repro.net.topology import ClusterSpec
    from repro.runtime.flightrec import ReplayBundle, record_run
    from repro.tools.timetravel import TimeTravelSession

    spec = ClusterSpec(
        engines=["e0", "e1"], replicas=1, master_seed=7,
        workload={"readings": {"n_messages": 120,
                               "mean_interarrival_ms": 1.0}},
    )
    record_samples: List[float] = []
    replay_samples: List[float] = []
    events = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(rounds):
            started = time.perf_counter()
            path = record_run(spec, Path(tmp) / f"bench{i}",
                              source="bench")
            record_samples.append((time.perf_counter() - started) * 1e3)
            started = time.perf_counter()
            bundle = ReplayBundle.load(path)
            session = TimeTravelSession(bundle)
            assert session.verify_final()
            replay_samples.append((time.perf_counter() - started) * 1e3)
            events = len(bundle.events)
    return {
        "rounds": rounds,
        "events": events,
        "record_ms": round(statistics.fmean(record_samples), 2),
        "replay_ms": round(statistics.fmean(replay_samples), 2),
    }


def main() -> int:
    result = {
        "bench": "recovery",
        "checkpoint_capture": bench_capture(),
        "audit_rebuild_us": bench_audit_rebuild(),
        "replay": bench_replay(),
        "bundle_replay": bench_bundle_replay(),
        "group_failover": bench_group_failover(),
    }
    out = Path("BENCH_recovery.json")
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result, indent=2, sort_keys=True))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
