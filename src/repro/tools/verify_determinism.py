"""Determinism verification for user applications.

Components must obey the paper's restrictions (no shared state, no
non-deterministic operations, estimator-driven features only).  Python
cannot enforce those statically, so this tool makes them *checkable*:
it runs your deployment several times under perturbations that must not
matter — execution jitter, silence-policy choice — and diffs the
virtual-time outcomes.  Any divergence means a component (or an
estimator) smuggled non-determinism in, and the report says where.

Usage::

    from repro.tools.verify_determinism import verify_determinism

    report = verify_determinism(my_deployment_factory, until=seconds(2))
    assert report.deterministic, report.summary()

The factory is called once per trial and must build a *fresh* deployment
(same seed internally each time — the tool checks your wiring, not your
workload generator).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.silence_policy import (
    AggressiveSilencePolicy,
    CuriositySilencePolicy,
)
from repro.sim.jitter import NormalTickJitter
from repro.sim.kernel import us


@dataclasses.dataclass
class Divergence:
    """One detected mismatch between trials."""

    trial: str
    sink: str
    index: int
    reference: object
    observed: object

    def __str__(self) -> str:
        return (f"[{self.trial}] sink {self.sink!r} diverges at output "
                f"#{self.index}: expected {self.reference!r}, got "
                f"{self.observed!r}")


@dataclasses.dataclass
class DeterminismReport:
    """Outcome of :func:`verify_determinism`."""

    trials: List[str]
    outputs_compared: int
    divergences: List[Divergence]

    @property
    def deterministic(self) -> bool:
        """True when every trial produced the reference stream."""
        return not self.divergences

    def summary(self) -> str:
        """Human-readable verdict."""
        if self.deterministic:
            return (f"deterministic: {len(self.trials)} trials, "
                    f"{self.outputs_compared} outputs identical")
        lines = [f"NON-DETERMINISTIC: {len(self.divergences)} divergence(s)"]
        lines += [f"  {d}" for d in self.divergences[:10]]
        return "\n".join(lines)


def freeze_payload(payload):
    """A hashable, order-insensitive-for-dicts view of one payload.

    Used for comparing output streams across trials *and* across
    processes: payloads that cross a :mod:`repro.net` socket come back
    as plain dicts/lists whatever they started as, so comparisons must
    not depend on container identity or dict insertion order.
    """
    if isinstance(payload, dict):
        return tuple(sorted((k, freeze_payload(v))
                            for k, v in payload.items()))
    if isinstance(payload, (list, tuple)):
        return tuple(freeze_payload(v) for v in payload)
    return payload


def streams_of(deployment) -> Dict[str, List[Tuple]]:
    """Every sink's effective output as comparable ``(seq, vt,
    payload)`` triples, payloads frozen by :func:`freeze_payload`."""
    return {
        sink: [(seq, vt, freeze_payload(payload)) for seq, vt, payload, _t in
               consumer.effective_outputs]
        for sink, consumer in deployment.consumers.items()
    }


def compare_streams(
    reference: Dict[str, List[Tuple]],
    observed: Dict[str, List[Tuple]],
    trial: str,
    require_complete: bool = False,
) -> List[Divergence]:
    """Diff two per-sink output streams of ``(seq, vt, frozen payload)``.

    The delivered prefix must match element-for-element.  With
    ``require_complete`` every reference output must also be present
    (networked acceptance runs wait for completion first, so a short
    stream there is a real loss); without it a short tail is tolerated
    down to half the reference length, since perturbation trials may
    strand undelivered outputs at the simulation cutoff.
    """
    divergences: List[Divergence] = []
    for sink, want in reference.items():
        got = observed.get(sink, [])
        n = min(len(want), len(got))
        for i in range(n):
            if want[i] != got[i]:
                divergences.append(Divergence(trial, sink, i,
                                              want[i], got[i]))
                break
        if require_complete:
            if len(got) != len(want):
                divergences.append(Divergence(
                    trial, sink, n, f"{len(want)} outputs",
                    f"{len(got)} outputs"))
        elif len(got) < len(want) * 0.5:
            divergences.append(Divergence(
                trial, sink, n, f"{len(want)} outputs",
                f"only {len(got)} outputs"))
    return divergences


def verify_trace_equivalence(
    reference: Dict[str, List[Tuple]],
    observed: Dict[str, List[Tuple]],
    trial: str = "networked",
    require_complete: bool = True,
) -> DeterminismReport:
    """Judge a captured output trace against a reference trace.

    This is the entry point for traces that did not come from an
    in-process run — e.g. consumer streams collected by
    ``repro.net.cluster`` from a real multi-process deployment.  Both
    arguments map sink name to ``(seq, vt, frozen payload)`` lists as
    produced by :func:`freeze_payload`-based capture.
    """
    compared = sum(len(v) for v in reference.values())
    divergences = compare_streams(reference, observed, trial,
                                  require_complete=require_complete)
    return DeterminismReport([trial], compared, divergences)


def verify_determinism(
    deployment_factory: Callable[[], "Deployment"],
    until: int,
    extra_trials: Optional[Dict[str, Callable[["Deployment"], None]]] = None,
) -> DeterminismReport:
    """Run the deployment under must-not-matter perturbations and diff.

    Built-in trials: a repeat run (flushes accidental global state), a
    heavy-jitter run (virtual outcomes must not track real time), and an
    aggressive-silence run (propagation must not change behaviour).
    ``extra_trials`` maps trial names to functions that mutate a freshly
    built deployment before it runs.

    Perturbations are applied through the engine configs, so the factory
    needs no cooperation beyond building the same app each call.
    """

    def perturb_jitter(deployment) -> None:
        for engine in deployment.engines.values():
            engine.config = dataclasses.replace(
                engine.config,
                jitter=NormalTickJitter(1.0, 0.5, correlated=True),
            )
            for runtime in engine.runtimes.values():
                runtime.services.jitter = engine.config.jitter

    def perturb_policy(deployment) -> None:
        for engine in deployment.engines.values():
            for runtime in engine.runtimes.values():
                if runtime.deterministic:
                    runtime.policy.stop()
                    policy = AggressiveSilencePolicy(interval=us(250))
                    runtime.policy = policy
                    policy.bind(runtime)

    trials: Dict[str, Callable] = {
        "repeat": lambda _d: None,
        "heavy-jitter": perturb_jitter,
        "aggressive-silence": perturb_policy,
    }
    trials.update(extra_trials or {})

    reference_dep = deployment_factory()
    reference_dep.run(until=until)
    reference = streams_of(reference_dep)
    compared = sum(len(v) for v in reference.values())

    divergences: List[Divergence] = []
    for name, perturb in trials.items():
        deployment = deployment_factory()
        perturb(deployment)
        deployment.run(until=until)
        observed = streams_of(deployment)
        divergences.extend(compare_streams(reference, observed, name))
    return DeterminismReport(list(trials), compared, divergences)
