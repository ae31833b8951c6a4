"""Tests for the R-MAT generator."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.generators.rmat import PAPER_RMAT, RMATParams, rmat_edges, rmat_graph


class TestRMATParams:
    def test_paper_defaults(self):
        assert PAPER_RMAT.as_tuple() == (0.6, 0.15, 0.15, 0.10)

    def test_must_sum_to_one(self):
        with pytest.raises(GraphError):
            RMATParams(0.5, 0.5, 0.5, 0.5)

    def test_probability_range(self):
        with pytest.raises(ValueError):
            RMATParams(1.2, -0.1, -0.05, -0.05)


class TestRmatEdges:
    def test_shapes_and_range(self):
        src, dst = rmat_edges(8, 1000, seed=1)
        assert src.shape == dst.shape == (1000,)
        assert src.min() >= 0 and src.max() < 256
        assert dst.min() >= 0 and dst.max() < 256

    def test_deterministic(self):
        a = rmat_edges(8, 500, seed=3)
        b = rmat_edges(8, 500, seed=3)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_seed_changes_output(self):
        a = rmat_edges(8, 500, seed=3)
        b = rmat_edges(8, 500, seed=4)
        assert not np.array_equal(a[0], b[0])

    def test_skew_toward_low_ids(self):
        """a=0.6 concentrates endpoints at low vertex ids."""
        src, dst = rmat_edges(12, 20_000, seed=5)
        below = np.count_nonzero(src < 2048)
        assert below > 12_000  # 0.75 of mass expected in the low half

    def test_power_law_max_degree(self):
        """Max degree far exceeds the mean for the paper's parameters."""
        src, _ = rmat_edges(12, 10 * 4096, seed=6)
        deg = np.bincount(src, minlength=4096)
        assert deg.max() > 10 * deg.mean()

    def test_uniform_params_uniformish(self):
        params = RMATParams(0.25, 0.25, 0.25, 0.25)
        src, _ = rmat_edges(10, 50_000, params, seed=7)
        deg = np.bincount(src, minlength=1024)
        assert deg.max() < 6 * deg.mean()

    def test_zero_edges(self):
        src, dst = rmat_edges(5, 0, seed=1)
        assert src.size == dst.size == 0

    def test_invalid_scale(self):
        with pytest.raises(GraphError):
            rmat_edges(0, 10)
        with pytest.raises(GraphError):
            rmat_edges(63, 10)

    def test_negative_m(self):
        with pytest.raises(GraphError):
            rmat_edges(5, -1)

    def test_noise_still_valid(self):
        params = RMATParams(0.6, 0.15, 0.15, 0.10, noise=0.1)
        src, dst = rmat_edges(9, 2000, params, seed=8)
        assert src.max() < 512 and dst.max() < 512


class TestRmatGraph:
    def test_default_edge_factor(self):
        g = rmat_graph(8, seed=1)
        assert g.n == 256 and g.m == 2560

    def test_explicit_m(self):
        assert rmat_graph(8, m=100, seed=1).m == 100

    def test_timestamps_assigned(self):
        g = rmat_graph(8, seed=1, ts_range=(1, 100))
        assert g.ts is not None
        assert g.ts.min() >= 1 and g.ts.max() <= 100

    def test_ts_stream_independent_of_topology(self):
        """Same topology whether or not time-stamps are requested."""
        a = rmat_graph(8, seed=9)
        b = rmat_graph(8, seed=9, ts_range=(1, 10))
        assert np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)

    def test_drop_self_loops(self):
        g = rmat_graph(8, seed=1).without_self_loops()
        assert np.all(g.src != g.dst)

    def test_deduplicate(self):
        g = rmat_graph(6, edge_factor=40, seed=1).deduplicated()
        key = g.src * g.n + g.dst
        assert np.unique(key).size == g.m

    def test_shuffle_preserves_multiset(self):
        a = rmat_graph(8, seed=2)
        b = rmat_graph(8, seed=2, shuffle=True)
        assert sorted(zip(a.src, a.dst)) == sorted(zip(b.src, b.dst))

    def test_meta_recorded(self):
        g = rmat_graph(8, seed=1)
        assert g.meta["generator"] == "rmat"
        assert g.meta["scale"] == 8
