"""Estimator calibration by linear regression (paper Eq. 2, Figure 2).

"Before execution, a rough estimate of the βᵢ's is made based upon known
costs per instruction.  Later, after some execution samples are taken,
measuring ξ₁, ξ₂, and t, a linear regression is taken to fit the
coefficients."

:class:`LinearRegressionCalibrator` accumulates (feature vector, measured
duration) samples and fits ordinary least squares, optionally through the
origin (the paper fits ``y = 61.827x`` with no intercept).  The result
carries the diagnostics Figure 2 reports: R², residual skewness (the
paper: "highly right-skewed"), and the residual–regressor correlation
(the paper: "close to zero correlation ... hence a good linear fit").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Mapping, Sequence, Tuple

from repro.core.estimators import LinearEstimator
from repro.errors import ComponentError

if TYPE_CHECKING:
    import numpy as np


@dataclass
class RegressionResult:
    """Fitted coefficients plus goodness-of-fit diagnostics."""

    feature_names: Tuple[str, ...]
    coefficients: Tuple[float, ...]
    intercept: float
    r_squared: float
    n_samples: int
    residual_mean: float
    residual_std: float
    residual_skewness: float
    #: Pearson correlation between residual and each regressor.
    residual_feature_corr: Tuple[float, ...]

    def to_estimator(self) -> LinearEstimator:
        """Round the fit into an integer-tick :class:`LinearEstimator`."""
        per_feature = {
            name: int(round(coef))
            for name, coef in zip(self.feature_names, self.coefficients)
        }
        return LinearEstimator(per_feature, max(0, int(round(self.intercept))))

    def coefficient(self, name: str) -> float:
        """The fitted coefficient of one feature."""
        try:
            return self.coefficients[self.feature_names.index(name)]
        except ValueError:
            raise ComponentError(f"no coefficient for feature '{name}'") from None


class LinearRegressionCalibrator:
    """Accumulates samples and fits Eq. (1) by ordinary least squares."""

    def __init__(self, feature_names: Sequence[str], fit_intercept: bool = False):
        if not feature_names:
            raise ComponentError("calibrator needs at least one feature")
        self.feature_names: Tuple[str, ...] = tuple(feature_names)
        self.fit_intercept = fit_intercept
        self._rows: List[Tuple[Tuple[int, ...], int]] = []

    def add_sample(self, features: Mapping[str, int], duration_ticks: int) -> None:
        """Record one measured execution."""
        row = tuple(int(features.get(name, 0)) for name in self.feature_names)
        self._rows.append((row, int(duration_ticks)))

    def __len__(self) -> int:
        return len(self._rows)

    def clear(self) -> None:
        """Drop all samples (e.g. after a re-calibration is applied)."""
        self._rows.clear()

    def fit(self) -> RegressionResult:
        """Fit OLS over the accumulated samples."""
        if len(self._rows) < len(self.feature_names) + (1 if self.fit_intercept else 0):
            raise ComponentError(
                f"need at least {len(self.feature_names) + int(self.fit_intercept)} "
                f"samples, have {len(self._rows)}"
            )
        # numpy is imported here, not at module level: live processes
        # import this module but never fit, and should not pay for it.
        import numpy as np

        x = np.array([row for row, _ in self._rows], dtype=float)
        y = np.array([dur for _, dur in self._rows], dtype=float)

        if self.fit_intercept:
            design = np.hstack([x, np.ones((len(y), 1))])
        else:
            design = x
        solution, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
        if self.fit_intercept:
            coefs = solution[:-1]
            intercept = float(solution[-1])
        else:
            coefs = solution
            intercept = 0.0

        predicted = design @ solution
        residuals = y - predicted
        # R^2 convention matches the paper's through-origin fit: compare
        # against the mean-only model.
        ss_res = float(np.sum(residuals**2))
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0

        res_std = float(residuals.std(ddof=1)) if len(y) > 1 else 0.0
        skew = _skewness(residuals)
        corrs = tuple(
            _safe_corr(residuals, x[:, i]) for i in range(x.shape[1])
        )
        return RegressionResult(
            feature_names=self.feature_names,
            coefficients=tuple(float(c) for c in coefs),
            intercept=intercept,
            r_squared=r_squared,
            n_samples=len(y),
            residual_mean=float(residuals.mean()),
            residual_std=res_std,
            residual_skewness=skew,
            residual_feature_corr=corrs,
        )


def _skewness(values: np.ndarray) -> float:
    """Sample skewness (Fisher-Pearson, no bias correction)."""
    import numpy as np

    if len(values) < 3:
        return 0.0
    centered = values - values.mean()
    std = values.std()
    if std == 0:
        return 0.0
    return float(np.mean(centered**3) / std**3)


def _safe_corr(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation, 0.0 when either side is constant."""
    import numpy as np

    if len(a) < 2 or a.std() == 0 or b.std() == 0:
        return 0.0
    return float(np.corrcoef(a, b)[0, 1])


class DriftMonitor:
    """Detects sustained divergence between virtual and real time.

    Powers dynamic re-tuning (paper II.G.4): when the mean signed error
    between estimated and actual cost exceeds ``threshold_fraction`` of
    the mean actual cost over a window, the monitor recommends a
    determinism-fault re-calibration.
    """

    def __init__(self, window: int = 200, threshold_fraction: float = 0.05):
        if window < 2:
            raise ComponentError("drift window must be >= 2")
        self.window = window
        self.threshold_fraction = threshold_fraction
        self._errors: List[int] = []
        self._actuals: List[int] = []

    def observe(self, estimated_ticks: int, actual_ticks: int) -> None:
        """Record one (estimated, actual) pair."""
        self._errors.append(int(estimated_ticks) - int(actual_ticks))
        self._actuals.append(int(actual_ticks))
        if len(self._errors) > self.window:
            self._errors.pop(0)
            self._actuals.pop(0)

    def drifting(self) -> bool:
        """True when the window is full and mean error exceeds threshold."""
        if len(self._errors) < self.window:
            return False
        mean_actual = sum(self._actuals) / len(self._actuals)
        if mean_actual <= 0:
            return False
        mean_error = sum(self._errors) / len(self._errors)
        return abs(mean_error) > self.threshold_fraction * mean_actual

    def mean_error(self) -> float:
        """Mean signed (estimated - actual) error over the window."""
        if not self._errors:
            return 0.0
        return sum(self._errors) / len(self._errors)
