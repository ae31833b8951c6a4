"""Tests for graph persistence (npz and text edge lists)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edgelist import EdgeList
from repro.errors import GraphError
from repro.generators.rmat import rmat_graph
from repro.io import load_npz, read_edgelist, save_npz, write_edgelist


@pytest.fixture
def stamped():
    return EdgeList(
        6,
        np.array([0, 2, 4]),
        np.array([1, 3, 5]),
        ts=np.array([7, 8, 9]),
        w=np.array([1, 2, 3]),
        meta={"generator": "test"},
    )


class TestNpz:
    def test_roundtrip_full(self, tmp_path, stamped):
        p = tmp_path / "g.npz"
        save_npz(p, stamped)
        back = load_npz(p)
        assert back.n == stamped.n
        assert np.array_equal(back.src, stamped.src)
        assert np.array_equal(back.dst, stamped.dst)
        assert np.array_equal(back.ts, stamped.ts)
        assert np.array_equal(back.w, stamped.w)
        assert back.directed == stamped.directed
        assert back.meta["generator"] == "test"

    def test_roundtrip_minimal(self, tmp_path):
        g = EdgeList(3, np.array([0]), np.array([1]), directed=True)
        p = tmp_path / "g.npz"
        save_npz(p, g)
        back = load_npz(p)
        assert back.ts is None and back.w is None
        assert back.directed

    def test_roundtrip_rmat(self, tmp_path):
        g = rmat_graph(8, 6, seed=91, ts_range=(1, 10))
        p = tmp_path / "rmat.npz"
        save_npz(p, g)
        back = load_npz(p)
        assert back.m == g.m
        assert np.array_equal(back.ts, g.ts)
        assert back.meta["scale"] == 8

    def test_empty_graph(self, tmp_path):
        g = EdgeList(4, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        p = tmp_path / "empty.npz"
        save_npz(p, g)
        assert load_npz(p).m == 0


class TestText:
    def test_roundtrip_full(self, tmp_path, stamped):
        p = tmp_path / "g.txt"
        write_edgelist(p, stamped)
        back = read_edgelist(p)
        assert back.n == stamped.n  # from the header
        assert np.array_equal(back.src, stamped.src)
        assert np.array_equal(back.ts, stamped.ts)
        assert np.array_equal(back.w, stamped.w)

    def test_roundtrip_no_header(self, tmp_path, stamped):
        p = tmp_path / "g.txt"
        write_edgelist(p, stamped, header=False)
        back = read_edgelist(p)
        assert back.n == 6  # max id + 1

    def test_explicit_n(self, tmp_path, stamped):
        p = tmp_path / "g.txt"
        write_edgelist(p, stamped, header=False)
        assert read_edgelist(p, n=100).n == 100

    def test_two_column_file(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1\n1 2\n")
        back = read_edgelist(p)
        assert back.m == 2 and back.ts is None

    def test_comments_and_blanks_skipped(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("# comment\n\n0 1\n# another\n1 2\n")
        assert read_edgelist(p).m == 2

    def test_directed_from_header(self, tmp_path):
        g = EdgeList(3, np.array([0]), np.array([1]), directed=True)
        p = tmp_path / "g.txt"
        write_edgelist(p, g)
        assert read_edgelist(p).directed

    def test_inconsistent_columns_rejected(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1\n1 2 3\n")
        with pytest.raises(GraphError, match="inconsistent"):
            read_edgelist(p)

    def test_non_integer_rejected(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 x\n")
        with pytest.raises(GraphError, match="non-integer"):
            read_edgelist(p)

    def test_too_many_columns_rejected(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1 2 3 4\n")
        with pytest.raises(GraphError, match="columns"):
            read_edgelist(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("")
        back = read_edgelist(p)
        assert back.m == 0 and back.n == 0

    def test_three_columns_are_ts(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1 5\n")
        back = read_edgelist(p)
        assert back.ts.tolist() == [5] and back.w is None


class TestIOProperties:
    N = 12

    @given(st.lists(
        st.tuples(st.integers(min_value=0, max_value=N - 1),
                  st.integers(min_value=0, max_value=N - 1),
                  st.integers(min_value=0, max_value=100)),
        max_size=30,
    ))
    @settings(max_examples=40, deadline=None)
    def test_npz_roundtrip(self, tmp_path_factory, triples):
        if triples:
            src, dst, ts = (np.array(x, dtype=np.int64) for x in zip(*triples))
        else:
            src = dst = ts = np.array([], dtype=np.int64)
        g = EdgeList(self.N, src, dst, ts=ts)
        path = tmp_path_factory.mktemp("io") / "g.npz"
        save_npz(path, g)
        back = load_npz(path)
        assert np.array_equal(back.src, g.src)
        assert np.array_equal(back.dst, g.dst)
        assert np.array_equal(back.timestamps(), g.timestamps())
