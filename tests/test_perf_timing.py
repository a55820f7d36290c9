"""The perf package's timing primitives: percentiles and recorders."""

from __future__ import annotations

import numpy as np
import pytest

from repro.perf.timing import PerfRecorder, TimingStats, percentile


class TestPercentile:
    def test_matches_numpy_linear(self):
        rng = np.random.default_rng(0)
        xs = rng.exponential(size=37).tolist()
        for q in (0, 25, 50, 90, 95, 100):
            assert percentile(xs, q) == pytest.approx(
                float(np.percentile(xs, q)))

    def test_single_sample(self):
        assert percentile([3.5], 95) == 3.5

    def test_errors(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestPerfRecorder:
    def test_time_and_stats(self):
        rec = PerfRecorder()
        for _ in range(5):
            with rec.time("solve"):
                pass
        stats = rec.stats("solve")
        assert isinstance(stats, TimingStats)
        assert stats.n == 5
        assert stats.total_s >= 0.0
        assert stats.p95_ms >= stats.p50_ms >= 0.0
        assert stats.ops_per_sec > 0

    def test_counters_and_summary(self):
        rec = PerfRecorder()
        rec.count("cases")
        rec.count("cases", 4)
        rec.add_sample("t", 0.002)
        summary = rec.summary()
        assert summary["counters"] == {"cases": 5}
        assert summary["timers"]["t"]["n"] == 1
        assert summary["timers"]["t"]["p50_ms"] == pytest.approx(2.0)
