"""Virtual-time estimators.

An estimator is a *deterministic* function from a handler's feature vector
(basic-block execution counts, paper Eq. 1) to an estimated computation
time in ticks.  Estimates need not be accurate for correctness — "Any
estimator that yields a virtual time in the future will be correct" — but
performance improves the closer estimated virtual time tracks real time.

Estimator kinds:

* :class:`ConstantEstimator` — the paper's "dumb" estimator: a fixed
  average time per message, ignoring the input.
* :class:`LinearEstimator` — the paper's Eq. (1):
  τ = β₀ + β₁ξ₁ + ... + βₙξₙ.
* :class:`SwitchableEstimator` — a piecewise-in-virtual-time estimator
  supporting determinism-fault re-calibration: the coefficient change
  takes effect only for messages dequeued at or after a logged virtual
  time, so replay reproduces the original behaviour (paper II.G.4).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Mapping, Tuple

from repro.errors import VirtualTimeError


class Estimator(ABC):
    """Deterministic map from features to estimated ticks."""

    @abstractmethod
    def estimate(self, features: Mapping[str, int]) -> int:
        """Estimated computation time in ticks for this feature vector."""


class ConstantEstimator(Estimator):
    """Always predicts ``ticks`` regardless of the input message."""

    def __init__(self, ticks: int):
        if ticks < 0:
            raise VirtualTimeError("estimated cost must be non-negative")
        self.ticks = int(ticks)

    def estimate(self, features: Mapping[str, int]) -> int:
        return self.ticks

    def __repr__(self) -> str:
        return f"ConstantEstimator({self.ticks})"

    def __eq__(self, other) -> bool:
        return isinstance(other, ConstantEstimator) and other.ticks == self.ticks

    def __hash__(self) -> int:
        return hash(("const", self.ticks))


class LinearEstimator(Estimator):
    """τ = intercept + Σ per_feature[f] · features[f]  (paper Eq. 1).

    Missing features count as zero, so an estimator fitted on a superset
    of blocks still evaluates.
    """

    def __init__(self, per_feature: Mapping[str, int], intercept: int = 0):
        if intercept < 0:
            raise VirtualTimeError("intercept must be non-negative")
        self.per_feature: Dict[str, int] = {k: int(v) for k, v in per_feature.items()}
        self.intercept = int(intercept)

    def estimate(self, features: Mapping[str, int]) -> int:
        total = self.intercept
        for name, coeff in self.per_feature.items():
            total += coeff * int(features.get(name, 0))
        return max(0, total)

    def __repr__(self) -> str:
        terms = " + ".join(f"{c}*{f}" for f, c in sorted(self.per_feature.items()))
        return f"LinearEstimator({self.intercept} + {terms})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinearEstimator)
            and other.intercept == self.intercept
            and other.per_feature == self.per_feature
        )

    def __hash__(self) -> int:
        return hash(("linear", self.intercept, tuple(sorted(self.per_feature.items()))))


class SwitchableEstimator(Estimator):
    """An estimator with virtual-time-stamped revisions.

    Evaluation requires the dequeue virtual time of the message being
    estimated: revisions logged as determinism faults apply only at or
    after their effective virtual time.  During replay the same revision
    log reproduces the exact same estimates.
    """

    def __init__(self, initial: Estimator):
        self._revisions: List[Tuple[int, Estimator]] = [(0, initial)]

    def revise(self, effective_vt: int, estimator: Estimator) -> None:
        """Install ``estimator`` for messages dequeued at vt >= ``effective_vt``.

        Revisions must be appended in non-decreasing effective time; the
        determinism-fault machinery guarantees this (it logs the fault at
        a vt beyond every message already processed).
        """
        last_vt, _ = self._revisions[-1]
        if effective_vt < last_vt:
            raise VirtualTimeError(
                f"estimator revision at vt {effective_vt} precedes existing "
                f"revision at vt {last_vt}"
            )
        self._revisions.append((int(effective_vt), estimator))

    def active_at(self, vt: int) -> Estimator:
        """The estimator in force for a message dequeued at ``vt``."""
        active = self._revisions[0][1]
        for eff, est in self._revisions:
            if eff <= vt:
                active = est
            else:
                break
        return active

    def estimate(self, features: Mapping[str, int]) -> int:
        # Without a vt we answer with the latest revision; scheduler code
        # always goes through estimate_at.
        return self._revisions[-1][1].estimate(features)

    def estimate_at(self, features: Mapping[str, int], vt: int) -> int:
        """Estimate using the revision in force at dequeue time ``vt``."""
        return self.active_at(vt).estimate(features)

    def revisions(self) -> List[Tuple[int, Estimator]]:
        """The revision history (effective_vt, estimator), oldest first."""
        return list(self._revisions)

    def __repr__(self) -> str:
        return f"SwitchableEstimator({len(self._revisions)} revisions, latest={self._revisions[-1][1]!r})"


class CommDelayEstimator(Estimator):
    """Deterministic communication-delay estimate for a wire.

    The paper (II.G.1) notes delay estimators must not read
    non-deterministic state like live queue sizes; a constant expected
    delay is the crude-but-sound choice, optionally plus a per-byte term
    driven by a deterministic payload-size feature.
    """

    def __init__(self, base_ticks: int, per_unit_ticks: int = 0, unit_feature: str = "bytes"):
        if base_ticks < 0 or per_unit_ticks < 0:
            raise VirtualTimeError("delay estimate terms must be non-negative")
        self.base_ticks = int(base_ticks)
        self.per_unit_ticks = int(per_unit_ticks)
        self.unit_feature = unit_feature

    def estimate(self, features: Mapping[str, int]) -> int:
        return self.base_ticks + self.per_unit_ticks * int(
            features.get(self.unit_feature, 0)
        )

    def __repr__(self) -> str:
        if self.per_unit_ticks:
            return (f"CommDelayEstimator({self.base_ticks} + "
                    f"{self.per_unit_ticks}*{self.unit_feature})")
        return f"CommDelayEstimator({self.base_ticks})"


class QueueCorrelatedDelayEstimator(CommDelayEstimator):
    """Load-aware communication-delay estimate (paper II.G.1).

    "[A delay estimator] can be a function based upon expected queuing
    delay.  To be deterministic, it cannot depend upon non-deterministic
    state such as the current queue size.  It must instead use
    deterministic factors that correlate with queue size, such as the
    number of messages sent within a recent number of virtual ticks."

    The estimate is ``base + per_recent * n`` where ``n`` is the number
    of data ticks this wire carried within the trailing ``window_ticks``
    of virtual time — a pure function of the emitted-message history, so
    it replays identically.  The plain :meth:`estimate` (no load
    context) returns the load-free minimum, which keeps silence facts
    (lower bounds on future output times) sound unchanged.
    """

    def __init__(self, base_ticks: int, per_recent_ticks: int,
                 window_ticks: int):
        super().__init__(base_ticks)
        if per_recent_ticks < 0 or window_ticks <= 0:
            raise VirtualTimeError("invalid load-estimate parameters")
        self.per_recent_ticks = int(per_recent_ticks)
        self.window_ticks = int(window_ticks)

    def estimate_with_load(self, features: Mapping[str, int],
                           recent_count: int) -> int:
        """Estimate given the deterministic recent-emission count."""
        return self.base_ticks + self.per_recent_ticks * int(recent_count)

    def __repr__(self) -> str:
        return (f"QueueCorrelatedDelayEstimator({self.base_ticks} + "
                f"{self.per_recent_ticks}/msg over {self.window_ticks} ticks)")
