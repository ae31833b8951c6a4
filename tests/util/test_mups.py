"""Tests for repro.util.mups."""

import numpy as np
import pytest

from repro.util.mups import mups, speedup_series, updates_per_second


class TestRates:
    def test_updates_per_second(self):
        assert updates_per_second(1000, 2.0) == 500.0

    def test_mups(self):
        assert mups(25_000_000, 1.0) == pytest.approx(25.0)

    def test_zero_updates_ok(self):
        assert mups(0, 1.0) == 0.0

    def test_zero_time_rejected(self):
        with pytest.raises(ValueError):
            updates_per_second(10, 0.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            updates_per_second(10, -1.0)

    def test_negative_updates_rejected(self):
        with pytest.raises(ValueError):
            updates_per_second(-1, 1.0)


class TestSpeedupSeries:
    def test_basic(self):
        s = speedup_series([8.0, 4.0, 2.0, 1.0])
        assert np.allclose(s, [1, 2, 4, 8])

    def test_starts_at_one(self):
        assert speedup_series([3.7])[0] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            speedup_series([])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            speedup_series([1.0, 0.0])

    def test_2d_rejected(self):
        with pytest.raises(ValueError):
            speedup_series(np.ones((2, 2)))
