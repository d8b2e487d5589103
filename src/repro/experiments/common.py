"""Shared harness for the Figure-1 simulation studies.

The paper's sections III.A/III.B all run the same configuration: the
Figure 1 application (two senders, one merger) on a multiprocessor
engine, each component on a dedicated processor, external Poisson
clients, 20 µs curiosity probes.  :func:`run_fig1` builds and runs that
configuration once and returns its metrics; the per-figure modules sweep
its parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from repro.apps.wordcount import (
    birth_of,
    build_wordcount_app,
    make_merger_class,
    make_sender_class,
    sentence_factory,
)
from repro.core.estimators import Estimator
from repro.core.silence_policy import CuriositySilencePolicy
from repro.runtime.app import Deployment
from repro.runtime.engine import EngineConfig
from repro.runtime.metrics import MetricSet
from repro.runtime.placement import single_engine_placement
from repro.sim.jitter import JitterModel, NormalTickJitter
from repro.sim.kernel import ms, seconds, us


@dataclass
class Fig1Params:
    """One run of the Figure 1 configuration."""

    #: "nondeterministic", "deterministic", or "prescient".
    mode: str = "deterministic"
    #: Simulated run length in ticks.
    duration: int = seconds(5)
    #: Number of sender components (paper: 2).
    n_senders: int = 2
    #: Mean inter-arrival per sender in ticks (paper: 1 msg / 1000 µs).
    mean_interarrival: int = ms(1)
    #: Iteration-count distribution bounds (paper sweeps these).
    iterations_low: int = 1
    iterations_high: int = 19
    #: True per-iteration cost in ticks (paper: 60 µs).
    per_iteration: int = us(60)
    #: Estimator override; None = smart linear estimator at per_iteration.
    estimator: Optional[Estimator] = None
    #: Merger fixed service time (paper: 400 µs).
    merger_service: int = us(400)
    #: One-way control-message delay; probe round trip = 2x this
    #: (paper: probes take 20 µs).
    control_delay: int = us(10)
    #: Execution jitter; None = the paper's per-tick N(1, 0.1).
    jitter: Optional[JitterModel] = None
    #: RNG master seed.
    seed: int = 0
    #: Probe backoff between unhelpful answers.
    probe_backoff: int = us(20)

    def effective_mode(self) -> str:
        """Engine mode string ("prescient" maps to deterministic)."""
        return ("nondeterministic" if self.mode == "nondeterministic"
                else "deterministic")


def build_fig1(params: Fig1Params) -> Deployment:
    """The Figure 1 deployment, wired and with its producers, not yet run."""
    sender_class = make_sender_class(
        per_iteration_true=params.per_iteration,
        estimator=params.estimator,
    )
    merger_class = make_merger_class(service_time=params.merger_service)
    app = build_wordcount_app(params.n_senders, sender_class, merger_class)

    jitter = params.jitter if params.jitter is not None else NormalTickJitter()
    backoff = params.probe_backoff
    config = EngineConfig(
        mode=params.effective_mode(),
        prescient=(params.mode == "prescient"),
        jitter=jitter,
        policy_factory=lambda: CuriositySilencePolicy(probe_backoff=backoff),
    )
    deployment = Deployment(
        app,
        single_engine_placement(app.component_names()),
        engine_config=config,
        control_delay=params.control_delay,
        birth_of=birth_of,
        master_seed=params.seed,
    )
    factory = sentence_factory(params.iterations_low, params.iterations_high)
    for i in range(1, params.n_senders + 1):
        deployment.add_poisson_producer(
            f"ext{i}", factory, mean_interarrival=params.mean_interarrival
        )
    return deployment


def run_fig1(params: Fig1Params) -> MetricSet:
    """Run the Figure 1 configuration once; return its metrics."""
    deployment = build_fig1(params)
    deployment.run(until=params.duration)
    return deployment.metrics


def compare_modes(base: Fig1Params,
                  modes: Sequence[str] = ("nondeterministic",
                                          "deterministic",
                                          "prescient")) -> Dict[str, MetricSet]:
    """Run the same workload under several scheduling modes."""
    return {mode: run_fig1(replace(base, mode=mode)) for mode in modes}


def overhead_pct(baseline_us: float, measured_us: float) -> float:
    """Relative latency overhead in percent."""
    if baseline_us <= 0:
        return float("nan")
    return (measured_us - baseline_us) / baseline_us * 100.0


def format_table(rows: List[Dict], columns: Optional[List[str]] = None) -> str:
    """Render experiment rows as an aligned text table."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered = [[_fmt(row.get(col)) for col in columns] for row in rows]
    widths = [
        max(len(col), max(len(r[i]) for r in rendered))
        for i, col in enumerate(columns)
    ]
    header = "  ".join(col.ljust(w) for col, w in zip(columns, widths))
    rule = "  ".join("-" * w for w in widths)
    body = "\n".join(
        "  ".join(cell.rjust(w) for cell, w in zip(r, widths)) for r in rendered
    )
    return f"{header}\n{rule}\n{body}"


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
