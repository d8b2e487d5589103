"""TART — Time-Aware Run-Time.

A from-scratch Python reproduction of *"Deterministic Replay for
Transparent Recovery in Component-Oriented Middleware"* (Strom, Dorai,
Feng, Zheng — ICDCS 2009): stateful components communicating by one-way
sends and two-way calls are transparently augmented with virtual times
so they execute deterministically, making checkpoint + replay a complete
recovery story with a single passive replica.

Quick tour:

* write components: subclass :class:`~repro.core.component.Component`,
  declare state/ports in ``setup()``, register handlers with
  :func:`~repro.core.component.on_message` /
  :func:`~repro.core.component.on_call` and a cost model;
* declare the graph with :class:`~repro.runtime.app.Application`;
* deploy with :class:`~repro.runtime.app.Deployment` (placement, engine
  configs, link parameters), attach producers, ``run()``;
* inject failures with :class:`~repro.runtime.failure.FailureInjector`
  and watch the replica take over;
* reproduce the paper's evaluation via :mod:`repro.experiments`.
"""

from repro.core.component import Component, on_call, on_message
from repro.core.cost import CostModel, LinearCost, SegmentedCost, fixed_cost
from repro.core.estimators import (
    ConstantEstimator,
    Estimator,
    LinearEstimator,
    SwitchableEstimator,
)
from repro.core.calibration import LinearRegressionCalibrator, RegressionResult
from repro.core.estimators import QueueCorrelatedDelayEstimator
from repro.core.silence_policy import (
    AggressiveSilencePolicy,
    BiasSilencePolicy,
    CuriositySilencePolicy,
    HyperAggressiveSilencePolicy,
    LazySilencePolicy,
    PreProbingCuriositySilencePolicy,
    SilencePolicy,
)
from repro.runtime.tracing import explain_hold, render_hold_report
from repro.errors import TartError
from repro.runtime.app import Application, Deployment
from repro.runtime.engine import EngineConfig
from repro.runtime.failure import FailureInjector
from repro.runtime.placement import (
    Placement,
    round_robin_placement,
    single_engine_placement,
)
from repro.runtime.transport import LinkParams
from repro.sim.kernel import Simulator, ms, seconds, us

__version__ = "1.0.0"

__all__ = [
    "AggressiveSilencePolicy",
    "Application",
    "BiasSilencePolicy",
    "Component",
    "ConstantEstimator",
    "CostModel",
    "CuriositySilencePolicy",
    "Deployment",
    "EngineConfig",
    "Estimator",
    "FailureInjector",
    "HyperAggressiveSilencePolicy",
    "LazySilencePolicy",
    "LinearCost",
    "LinearEstimator",
    "LinearRegressionCalibrator",
    "LinkParams",
    "Placement",
    "PreProbingCuriositySilencePolicy",
    "QueueCorrelatedDelayEstimator",
    "RegressionResult",
    "SegmentedCost",
    "SilencePolicy",
    "Simulator",
    "SwitchableEstimator",
    "TartError",
    "explain_hold",
    "fixed_cost",
    "render_hold_report",
    "ms",
    "on_call",
    "on_message",
    "round_robin_placement",
    "seconds",
    "single_engine_placement",
    "us",
    "__version__",
]
