"""Tests for repro.machine.contention."""

import numpy as np
import pytest

from repro.machine.contention import effective_parallelism, windowed_hot_stats


class TestEffectiveParallelism:
    def test_no_imbalance(self):
        assert effective_parallelism(64, 0.0) == 64.0

    def test_capped(self):
        assert effective_parallelism(64, 0.25) == 4.0

    def test_below_cap(self):
        assert effective_parallelism(2, 0.25) == 2.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            effective_parallelism(0, 0.0)
        with pytest.raises(ValueError):
            effective_parallelism(4, 1.5)


class TestWindowedHotStats:
    def test_burst_detected(self):
        keys = np.concatenate([np.full(100, 7), np.arange(100)])
        burst, frac = windowed_hot_stats(keys, 50)
        assert burst >= 50
        assert frac >= 1.0

    def test_spread_stream_low(self):
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 1000, 10_000)
        burst, frac = windowed_hot_stats(keys, 100)
        assert frac < 0.2

    def test_empty(self):
        assert windowed_hot_stats([], 10) == (0, 0.0)

    def test_window_larger_than_stream(self):
        burst, _ = windowed_hot_stats([1, 1, 2], 100)
        assert burst == 2

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            windowed_hot_stats([1], 0)
