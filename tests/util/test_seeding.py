"""Tests for repro.util.seeding."""

import numpy as np

from repro.util.seeding import DEFAULT_SEED, make_rng, mix_seed


class TestMakeRng:
    def test_none_uses_default_seed(self):
        a = make_rng(None).integers(0, 1 << 30, 10)
        b = make_rng(DEFAULT_SEED).integers(0, 1 << 30, 10)
        assert np.array_equal(a, b)

    def test_int_seed_reproducible(self):
        assert np.array_equal(
            make_rng(5).integers(0, 100, 20), make_rng(5).integers(0, 100, 20)
        )

    def test_different_seeds_differ(self):
        assert not np.array_equal(
            make_rng(5).integers(0, 1 << 40, 20), make_rng(6).integers(0, 1 << 40, 20)
        )

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert make_rng(g) is g


class TestMixSeed:
    def test_deterministic(self):
        assert mix_seed(1, "a", 2) == mix_seed(1, "a", 2)

    def test_order_sensitive(self):
        assert mix_seed(1, "a", "b") != mix_seed(1, "b", "a")

    def test_component_changes_value(self):
        assert mix_seed(1) != mix_seed(1, "x")
        assert mix_seed(1, "x") != mix_seed(1, "y")

    def test_result_is_valid_numpy_seed(self):
        s = mix_seed(DEFAULT_SEED, "timestamps")
        assert 0 <= s < (1 << 63)
        np.random.default_rng(s)  # must not raise

    def test_large_seed_no_overflow_warning(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mix_seed((1 << 62) + 12345, "tag")
