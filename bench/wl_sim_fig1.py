"""Workload ``sim_fig1``: the paper's Figure 1 application, purely simulated.

Two word-count senders feed a merger on one engine, 20 us curiosity
probes, per-tick N(1, 0.1) jitter, 1 000 msg/s per sender -- built as
``repro.experiments.common.run_fig1`` builds it, but stepped in 100 ms
virtual chunks so each chunk can be speed-normalised (see
``calibrate``), once under the deterministic scheduler and once under
the nondeterministic one.

Why: all the work is in ``sim.kernel``, ``core.scheduler``,
``core.silence_policy`` and ``vt`` and none in ``net.*``/``gateway.*``.
It is what every replay oracle, time-travel seek and chaos judge costs;
running both schedulers shows a deterministic-path gain that is paid for
by the machinery both share.
"""

from __future__ import annotations

import statistics
import time
from typing import Optional, Tuple

from benchlib import LayerProfile, Outcome, Tracer, peak_rss_mb, percentile
from calibrate import ChunkRate, timed_spin

from repro.apps.wordcount import (
    birth_of,
    build_wordcount_app,
    make_merger_class,
    make_sender_class,
    sentence_factory,
)
from repro.core.silence_policy import CuriositySilencePolicy
from repro.experiments.common import Fig1Params, overhead_pct, run_fig1
from repro.runtime.app import Deployment
from repro.runtime.engine import EngineConfig
from repro.runtime.placement import single_engine_placement
from repro.sim.jitter import NormalTickJitter
from repro.sim.kernel import ms, seconds
from repro.vt.time import TICKS_PER_US

CHUNK_TICKS = ms(100)
#: Producers stop offering this long before the end, so every offered
#: message is delivered by the deadline and none counts as failed.
DRAIN_TICKS = ms(200)
#: Virtual seconds simulated per scheduler mode, per ``--seconds``.
VIRTUAL_PER_SECOND = 4.0 / 3.0
#: The one-shot reference covers this share of the run (a prefix).
REFERENCE_SHARE = 0.25
SETUP_REPEATS = 3
MODES = ("deterministic", "nondeterministic")


def build_fig1(params: Fig1Params, stop_at: Optional[int]) -> Deployment:
    """The deployment ``run_fig1`` builds, not yet run."""
    sender = make_sender_class(per_iteration_true=params.per_iteration,
                               estimator=params.estimator)
    merger = make_merger_class(service_time=params.merger_service)
    app = build_wordcount_app(params.n_senders, sender, merger)
    backoff = params.probe_backoff
    config = EngineConfig(
        mode=params.effective_mode(),
        prescient=(params.mode == "prescient"),
        jitter=params.jitter if params.jitter is not None else NormalTickJitter(),
        policy_factory=lambda: CuriositySilencePolicy(probe_backoff=backoff),
    )
    deployment = Deployment(
        app, single_engine_placement(app.component_names()),
        engine_config=config, control_delay=params.control_delay,
        birth_of=birth_of, master_seed=params.seed,
    )
    factory = sentence_factory(params.iterations_low, params.iterations_high)
    for i in range(1, params.n_senders + 1):
        deployment.add_poisson_producer(
            f"ext{i}", factory, mean_interarrival=params.mean_interarrival,
            stop_at=stop_at,
        )
    return deployment


def step_mode(mode: str, seed: int, virtual_s: Optional[float],
              wall_budget_s: Optional[float] = None,
              tracer: Optional[Tracer] = None,
              profile: Optional[LayerProfile] = None,
              ) -> Tuple[ChunkRate, Deployment, int]:
    """Step one scheduler mode chunk by chunk.

    Runs ``virtual_s`` virtual seconds, or until ``wall_budget_s`` wall
    seconds have passed when ``virtual_s`` is None (the self-check).
    Returns the chunk rates, the deployment and the messages offered.
    """
    tracer = tracer or Tracer("sim_fig1", False)
    profile = profile or LayerProfile(False)
    duration = seconds(virtual_s) if virtual_s is not None else None
    stop_at = duration - DRAIN_TICKS if duration is not None else None
    deployment = build_fig1(Fig1Params(mode=mode, seed=seed), stop_at)
    deployment.start()
    rate = ChunkRate()
    sim, metrics = deployment.sim, deployment.metrics
    started = time.perf_counter()
    until = 0
    with tracer.span(f"sim_fig1.{mode}"):
        while True:
            until += CHUNK_TICKS
            spin_s = timed_spin()
            before = metrics.counter("messages_processed")
            with tracer.span("sim.kernel.run"), profile.on():
                chunk_started = time.perf_counter()
                sim.run(until=until)
                chunk_s = time.perf_counter() - chunk_started
            rate.add(metrics.counter("messages_processed") - before,
                     chunk_s, spin_s)
            if duration is not None:
                if until >= duration:
                    break
            elif time.perf_counter() - started >= wall_budget_s:
                break
    offered = sum(p.produced for p in deployment.producers)
    return rate, deployment, offered


def _setup_cycle(seed: int, virtual_s: float, tracer: Tracer) -> dict:
    """Everything outside the timed window, once: build + reference run."""
    started = time.perf_counter()
    reference = {}
    for mode in MODES:
        with tracer.span("runtime.app.Deployment"):
            build_fig1(Fig1Params(mode=mode, seed=seed), None)
        with tracer.span("experiments.common.run_fig1"):
            reference[mode] = run_fig1(Fig1Params(
                mode=mode, seed=seed,
                duration=seconds(virtual_s * REFERENCE_SHARE),
            )).latencies
    reference["setup_s"] = time.perf_counter() - started
    return reference


def run(seed: int, run_seconds: float, tracer: Tracer,
        profile: LayerProfile) -> Outcome:
    virtual_s = max(1.0, round(run_seconds * VIRTUAL_PER_SECOND, 1))
    setups = [_setup_cycle(seed, virtual_s, tracer)
              for _ in range(SETUP_REPEATS)]
    reference = setups[-1]

    out = Outcome("sim_fig1", attempted=0, failed=0)
    rates, deployments = {}, {}
    for mode in MODES:
        rate, deployment, offered = step_mode(
            mode, seed, virtual_s, tracer=tracer, profile=profile)
        rates[mode], deployments[mode] = rate, deployment
        latencies = deployment.metrics.latencies
        delivered = len(latencies)
        out.attempted += offered
        consumer = next(iter(deployment.consumers.values()))
        seqs = [rec[0] for rec in consumer.effective_outputs]
        if latencies[:len(reference[mode])] != reference[mode]:
            out.failed += offered
            out.failures.append(
                f"{mode}: chunked latencies differ from one-shot run_fig1")
        elif consumer.stutter or seqs != list(range(len(seqs))):
            out.failed += offered
            out.failures.append(f"{mode}: sink stream repeated or reordered")
        elif delivered != offered:
            out.failed += offered - delivered
            out.failures.append(
                f"{mode}: {offered - delivered} of {offered} undelivered")

    det, nondet = (deployments[m].metrics for m in MODES)
    det_us = [t / TICKS_PER_US for t in det.latencies]
    out.metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "throughput_per_refs": (rates["deterministic"].per_ref_s(), "1/s"),
        "latency_p50_us": (percentile(det_us, 50), "us"),
        "latency_tail_us": (percentile(det_us, 95), "us"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    dispatches = det.counter("messages_processed")
    messages = max(1, det.latency_count())
    out.layers = {
        "core.scheduler.dispatches": (float(dispatches), "count"),
        "core.scheduler.pessimism_delay_us_per_msg": (
            det.accumulator("pessimism_delay_ticks") / TICKS_PER_US / messages,
            "us"),
        "core.scheduler.out_of_order_fraction": (
            det.out_of_order_fraction(), "ratio"),
        "core.silence_policy.probes_per_msg": (
            det.probes_per_message(), "ratio"),
        "latency_p99_us": (percentile(det_us, 99), "us"),
        "sim_fig1.nondet_dispatch_per_refs": (
            rates["nondeterministic"].per_ref_s(), "1/s"),
        "sim_fig1.det_overhead_pct": (
            overhead_pct(nondet.mean_latency_us(), det.mean_latency_us()),
            "%"),
    }
    out.raw = {
        "virtual_s_per_mode": virtual_s,
        "det_dispatch_per_s_raw": rates["deterministic"].raw_per_s(),
        "nondet_dispatch_per_s_raw": rates["nondeterministic"].raw_per_s(),
        "median_spin_ms": rates["deterministic"].median_spin_ms(),
    }
    out.profiled_ops = float(dispatches + nondet.counter("messages_processed"))
    return out
