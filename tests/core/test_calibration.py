"""Unit tests for regression calibration and drift monitoring."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.calibration import DriftMonitor, LinearRegressionCalibrator
from repro.errors import ComponentError


class TestLinearRegressionCalibrator:
    def test_exact_fit_through_origin(self):
        calib = LinearRegressionCalibrator(["loop"])
        for k in range(1, 20):
            calib.add_sample({"loop": k}, 61_827 * k)
        fit = calib.fit()
        assert fit.coefficient("loop") == pytest.approx(61_827)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.residual_std == pytest.approx(0.0, abs=1e-6)

    def test_fit_with_intercept(self):
        calib = LinearRegressionCalibrator(["x"], fit_intercept=True)
        for k in range(1, 30):
            calib.add_sample({"x": k}, 500 + 10 * k)
        fit = calib.fit()
        assert fit.intercept == pytest.approx(500, rel=1e-6)
        assert fit.coefficient("x") == pytest.approx(10, rel=1e-6)

    def test_multi_feature_fit(self):
        rng = random.Random(3)
        calib = LinearRegressionCalibrator(["x1", "x2"])
        for _ in range(200):
            x1, x2 = rng.randint(1, 10), rng.randint(1, 10)
            calib.add_sample({"x1": x1, "x2": x2}, 100 * x1 + 7 * x2)
        fit = calib.fit()
        assert fit.coefficient("x1") == pytest.approx(100, rel=1e-6)
        assert fit.coefficient("x2") == pytest.approx(7, rel=1e-6)

    def test_noisy_fit_recovers_slope(self):
        rng = random.Random(7)
        calib = LinearRegressionCalibrator(["loop"])
        for _ in range(2000):
            k = rng.randint(1, 19)
            calib.add_sample({"loop": k}, int(61_827 * k + rng.gauss(0, 50_000)))
        fit = calib.fit()
        assert fit.coefficient("loop") == pytest.approx(61_827, rel=0.02)
        assert 0 < fit.r_squared < 1

    def test_to_estimator_rounds(self):
        calib = LinearRegressionCalibrator(["loop"])
        for k in range(1, 10):
            calib.add_sample({"loop": k}, 61_827 * k)
        est = calib.fit().to_estimator()
        assert est.estimate({"loop": 2}) == 123_654

    def test_skewness_detects_right_skew(self):
        rng = random.Random(11)
        calib = LinearRegressionCalibrator(["k"])
        for _ in range(3000):
            k = rng.randint(1, 19)
            noise = rng.lognormvariate(10, 1.0)
            calib.add_sample({"k": k}, int(60_000 * k + noise))
        assert calib.fit().residual_skewness > 1.0

    def test_insufficient_samples_rejected(self):
        calib = LinearRegressionCalibrator(["a", "b"])
        calib.add_sample({"a": 1, "b": 1}, 10)
        with pytest.raises(ComponentError):
            calib.fit()

    def test_unknown_coefficient_rejected(self):
        calib = LinearRegressionCalibrator(["a"])
        for i in range(1, 4):
            calib.add_sample({"a": i}, i)
        with pytest.raises(ComponentError):
            calib.fit().coefficient("zz")

    def test_clear(self):
        calib = LinearRegressionCalibrator(["a"])
        calib.add_sample({"a": 1}, 1)
        calib.clear()
        assert len(calib) == 0

    def test_rejects_empty_feature_list(self):
        with pytest.raises(ComponentError):
            LinearRegressionCalibrator([])


class TestDriftMonitor:
    def test_no_drift_before_window_fills(self):
        mon = DriftMonitor(window=10, threshold_fraction=0.05)
        for _ in range(9):
            mon.observe(100, 200)  # huge error, but window not full
        assert not mon.drifting()

    def test_detects_systematic_overestimate(self):
        mon = DriftMonitor(window=10, threshold_fraction=0.05)
        for _ in range(10):
            mon.observe(120, 100)
        assert mon.drifting()
        assert mon.mean_error() == pytest.approx(20)

    def test_detects_systematic_underestimate(self):
        mon = DriftMonitor(window=10, threshold_fraction=0.05)
        for _ in range(10):
            mon.observe(80, 100)
        assert mon.drifting()

    def test_accurate_estimates_do_not_drift(self):
        mon = DriftMonitor(window=10, threshold_fraction=0.05)
        for i in range(20):
            mon.observe(100 + (i % 2), 100)
        assert not mon.drifting()

    def test_window_slides(self):
        mon = DriftMonitor(window=10, threshold_fraction=0.05)
        for _ in range(10):
            mon.observe(200, 100)
        assert mon.drifting()
        for _ in range(10):
            mon.observe(100, 100)
        assert not mon.drifting()

    def test_rejects_tiny_window(self):
        with pytest.raises(ComponentError):
            DriftMonitor(window=1)


class ListDriftModel:
    """The drift monitor as two lists popped at the front and re-summed."""

    def __init__(self, window, threshold_fraction):
        self.window = window
        self.threshold_fraction = threshold_fraction
        self.errors, self.actuals = [], []

    def observe(self, estimated, actual):
        self.errors.append(estimated - actual)
        self.actuals.append(actual)
        if len(self.errors) > self.window:
            self.errors.pop(0)
            self.actuals.pop(0)

    def drifting(self):
        if len(self.errors) < self.window:
            return False
        mean_actual = sum(self.actuals) / len(self.actuals)
        if mean_actual <= 0:
            return False
        mean_error = sum(self.errors) / len(self.errors)
        return abs(mean_error) > self.threshold_fraction * mean_actual

    def mean_error(self):
        return sum(self.errors) / len(self.errors) if self.errors else 0.0


@settings(max_examples=200, deadline=None)
@given(window=st.integers(2, 12),
       threshold=st.sampled_from([0.0, 0.01, 0.05, 0.5]),
       samples=st.lists(st.tuples(st.integers(-50, 10**6),
                                  st.integers(-50, 10**6)), max_size=60))
def test_drift_monitor_matches_the_list_model(window, threshold, samples):
    monitor = DriftMonitor(window, threshold)
    model = ListDriftModel(window, threshold)
    for estimated, actual in samples:
        monitor.observe(estimated, actual)
        model.observe(estimated, actual)
        assert monitor.drifting() == model.drifting()
        assert monitor.mean_error() == model.mean_error()
