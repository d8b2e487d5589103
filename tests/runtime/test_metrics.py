"""Unit tests for the metrics sink."""

import math

import pytest

from repro.runtime.metrics import MetricSet


class TestCounters:
    def test_count_and_read(self):
        m = MetricSet()
        m.count("x")
        m.count("x", 4)
        assert m.counter("x") == 5
        assert m.counter("absent") == 0

    def test_accumulators(self):
        m = MetricSet()
        m.add("ticks", 100)
        m.add("ticks", 50)
        assert m.accumulator("ticks") == 150
        assert m.accumulator("absent") == 0


class TestLatency:
    def test_record_and_mean(self):
        m = MetricSet()
        m.record_latency(0, 2_000)
        m.record_latency(1_000, 5_000)
        assert m.latency_count() == 2
        assert m.mean_latency_us() == pytest.approx(3.0)
        assert m.latencies == [2_000, 4_000]

    def test_empty_latency_stats_are_nan(self):
        m = MetricSet()
        assert math.isnan(m.mean_latency_us())
        assert math.isnan(m.latency_percentile_us(50))

    def test_percentiles(self):
        m = MetricSet()
        for i in range(1, 101):
            m.record_latency(0, i * 1_000)
        assert m.latency_percentile_us(50) == pytest.approx(50, abs=2)
        assert m.latency_percentile_us(95) == pytest.approx(95, abs=2)
        assert m.latency_percentile_us(0) == pytest.approx(1)

    def test_percentiles_interpolate_between_ranks(self):
        # Known quantiles on a small, fixed sample: with linear
        # interpolation between closest ranks (numpy's default), the
        # values below are exact; nearest-rank rounding would bias
        # p95 up to 4.0us and p50 to a data point.
        m = MetricSet()
        for v in (1_000, 2_000, 3_000, 4_000):
            m.record_latency(0, v)
        assert m.latency_percentile_us(50) == pytest.approx(2.5)
        assert m.latency_percentile_us(25) == pytest.approx(1.75)
        assert m.latency_percentile_us(75) == pytest.approx(3.25)
        assert m.latency_percentile_us(95) == pytest.approx(3.85)
        assert m.latency_percentile_us(0) == pytest.approx(1.0)
        assert m.latency_percentile_us(100) == pytest.approx(4.0)

    def test_percentile_single_sample_and_clamping(self):
        m = MetricSet()
        m.record_latency(0, 7_000)
        for q in (0, 37.5, 100):
            assert m.latency_percentile_us(q) == pytest.approx(7.0)
        m.record_latency(0, 9_000)
        # Out-of-range q clamps rather than indexing out of bounds.
        assert m.latency_percentile_us(-5) == pytest.approx(7.0)
        assert m.latency_percentile_us(120) == pytest.approx(9.0)

    def test_std(self):
        m = MetricSet()
        for v in (1_000, 3_000):
            m.record_latency(0, v)
        assert m.latency_std_us() == pytest.approx(2**0.5, rel=1e-6)
        assert MetricSet().latency_std_us() == 0.0


class TestDerived:
    def test_probes_per_message(self):
        m = MetricSet()
        m.count("curiosity_probes", 30)
        assert m.probes_per_message() == 0.0  # no messages yet
        m.record_latency(0, 1)
        m.record_latency(0, 1)
        assert m.probes_per_message() == 15.0

    def test_out_of_order_fraction(self):
        m = MetricSet()
        assert m.out_of_order_fraction() == 0.0
        m.count("messages_processed", 10)
        m.count("out_of_order_arrivals", 1)
        assert m.out_of_order_fraction() == pytest.approx(0.1)

    def test_summary_keys(self):
        m = MetricSet()
        m.record_latency(0, 1_000)
        summary = m.summary()
        for key in ("messages", "mean_latency_us", "p95_latency_us",
                    "probes_per_message", "pessimism_delay_us"):
            assert key in summary
        assert summary["messages"] == 1.0


class TestDumpJson:
    def test_dump_json_is_json_safe_and_complete(self):
        import json

        m = MetricSet()
        m.count("messages_sent", 3)
        m.add("replayed_ticks", 42)
        m.gauge("queue_depth", 2.5)
        m.gauge("broken", float("nan"))
        m.record_latency(0, 2_000)
        m.record_latency(1_000, 5_000)
        doc = m.dump_json()
        # Must survive strict JSON (non-finite floats become null).
        round_tripped = json.loads(json.dumps(doc, allow_nan=False))
        assert round_tripped["counters"]["messages_sent"] == 3
        assert round_tripped["accumulators"]["replayed_ticks"] == 42
        assert round_tripped["gauges"]["queue_depth"] == 2.5
        assert round_tripped["gauges"]["broken"] is None
        assert round_tripped["latency"]["count"] == 2
        assert round_tripped["latency"]["mean_us"] == pytest.approx(3.0)
        assert "summary" in round_tripped

    def test_dump_json_empty_metrics(self):
        import json

        doc = MetricSet().dump_json()
        json.dumps(doc, allow_nan=False)
        assert doc["latency"] == {"count": 0}

    def test_wall_clock_gauges_can_be_left_out(self):
        m = MetricSet()
        m.gauge("audit.rebuild_us", 150.0, wall_clock=True)
        m.gauge("audit.rebuild_us", 140.0)  # the mark sticks to the name
        m.gauge("audit.incarnation_epoch", 3.0)
        assert m.dump_json()["gauges"] == {"audit.rebuild_us": 140.0,
                                           "audit.incarnation_epoch": 3.0}
        assert m.dump_json(wall_clock=False)["gauges"] == {
            "audit.incarnation_epoch": 3.0}

    def test_dump_json_is_pinned_and_sorts_the_samples_once(self, monkeypatch):
        import json
        from array import array

        from repro.runtime import metrics as metrics_module

        m = MetricSet()
        for i in range(37):
            m.record_latency(1_000 * i, 1_000 * i + (i * 7_919) % 5_003 + 250)
        m.count("curiosity_probes", 11)
        m.count("messages_processed", 40)
        m.count("out_of_order_arrivals", 3)
        m.count("chan.e1.items_resent", 2)
        m.add("pessimism_delay_ticks", 12_345)
        m.gauge("cadence_ms", 2.5)
        sample_sorts = []

        def counting_sorted(values, **kwargs):
            if isinstance(values, array):
                sample_sorts.append(len(values))
            return sorted(values, **kwargs)

        monkeypatch.setattr(metrics_module, "sorted", counting_sorted,
                            raising=False)
        # The document the list-of-samples MetricSet wrote, byte for byte.
        assert json.dumps(m.dump_json()) == (
            '{"counters": {"chan.e1.items_resent": 2, "curiosity_probes": 11,'
            ' "messages_processed": 40, "out_of_order_arrivals": 3},'
            ' "gauges": {"cadence_ms": 2.5},'
            ' "accumulators": {"pessimism_delay_ticks": 12345},'
            ' "latency": {"count": 37, "mean_us": 2.8432162162162165,'
            ' "p50_us": 2.737, "p95_us": 5.1718, "p99_us": 5.21356,'
            ' "p999_us": 5.222956, "std_us": 1.5026942679943462},'
            ' "channels": {"e1": {"items_resent": 2}},'
            ' "summary": {"messages": 37.0,'
            ' "mean_latency_us": 2.8432162162162165, "p50_latency_us": 2.737,'
            ' "p95_latency_us": 5.1718, "latency_std_us": 1.5026942679943462,'
            ' "curiosity_probes": 11.0,'
            ' "probes_per_message": 0.2972972972972973,'
            ' "out_of_order_arrivals": 3.0, "pessimism_events": 0.0,'
            ' "pessimism_delay_us": 12.345, "duplicates_discarded": 0.0,'
            ' "messages_replayed": 0.0, "determinism_faults": 0.0}}')
        assert sample_sorts == [37]
