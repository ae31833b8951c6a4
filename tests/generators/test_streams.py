"""Tests for update streams."""

import numpy as np
import pytest

from repro.errors import StreamError
from repro.generators.rmat import rmat_graph
from repro.generators.streams import (
    DELETE,
    INSERT,
    UpdateStream,
    deletion_stream,
    insertion_stream,
    iter_batches,
    mixed_stream,
    semisort,
)


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(9, 8, seed=11, ts_range=(1, 50))


def make_stream(n=5, ops=(1, -1, 1), src=(0, 1, 2), dst=(1, 2, 3)):
    k = len(ops)
    return UpdateStream(
        n,
        np.array(ops, dtype=np.int8),
        np.array(src),
        np.array(dst),
        np.zeros(k, dtype=np.int64),
    )


class TestUpdateStream:
    def test_counts(self):
        s = make_stream()
        assert len(s) == 3
        assert s.n_inserts == 2 and s.n_deletes == 1

    def test_invalid_op_codes(self):
        with pytest.raises(StreamError):
            make_stream(ops=(1, 2, 1))

    def test_out_of_range_vertices(self):
        with pytest.raises(Exception):
            make_stream(n=2)

    def test_select_and_filters(self):
        s = make_stream()
        assert len(s.select(np.nonzero(s.op == INSERT)[0])) == 2
        assert len(s.select(np.nonzero(s.op == DELETE)[0])) == 1
        assert s.select(np.array([2])).src.tolist() == [2]

    def test_shuffled_preserves_multiset(self):
        s = make_stream()
        sh = s.shuffled(0)
        assert sorted(zip(sh.op, sh.src, sh.dst)) == sorted(zip(s.op, s.src, s.dst))

    def test_concatenated(self):
        s = make_stream()
        both = s.concatenated(s)
        assert len(both) == 6

    def test_concatenated_vertex_mismatch(self):
        with pytest.raises(StreamError):
            make_stream(n=5).concatenated(make_stream(n=6))


class TestInsertionStream:
    def test_all_inserts(self, graph):
        s = insertion_stream(graph)
        assert s.n_inserts == graph.m and s.n_deletes == 0
        assert np.array_equal(s.src, graph.src)
        assert np.array_equal(s.ts, graph.ts)

    def test_shuffle(self, graph):
        s = insertion_stream(graph, shuffle=True, seed=1)
        assert not np.array_equal(s.src, graph.src)
        assert sorted(s.src.tolist()) == sorted(graph.src.tolist())


class TestDeletionStream:
    def test_targets_existing_edges(self, graph):
        s = deletion_stream(graph, 100, seed=2)
        assert len(s) == 100 and s.n_deletes == 100
        existing = set(zip(graph.src.tolist(), graph.dst.tolist()))
        assert all((u, v) in existing for u, v in zip(s.src.tolist(), s.dst.tolist()))

    def test_distinct_positions(self, graph):
        s = deletion_stream(graph, graph.m, seed=2)
        assert len(s) == graph.m

    def test_too_many_rejected(self, graph):
        with pytest.raises(StreamError):
            deletion_stream(graph, graph.m + 1)

    def test_negative_rejected(self, graph):
        with pytest.raises(StreamError):
            deletion_stream(graph, -1)


class TestMixedStream:
    def test_fractions(self, graph):
        s = mixed_stream(graph, 1000, 0.75, seed=3)
        assert len(s) == 1000
        assert s.n_inserts == 750 and s.n_deletes == 250

    def test_deletes_target_existing(self, graph):
        s = mixed_stream(graph, 400, 0.5, seed=4)
        existing = set(zip(graph.src.tolist(), graph.dst.tolist()))
        d = s.select(np.nonzero(s.op == DELETE)[0])
        assert all((u, v) in existing for u, v in zip(d.src.tolist(), d.dst.tolist()))

    def test_uniform_delete_mode(self, graph):
        s = mixed_stream(graph, 400, 0.5, seed=4, delete_mode="uniform")
        assert s.n_deletes == 200  # uniform pairs need not exist in the graph

    def test_invalid_delete_mode(self, graph):
        with pytest.raises(StreamError):
            mixed_stream(graph, 10, 0.5, delete_mode="bogus")

    def test_insert_edges_source(self, graph):
        extra = rmat_graph(9, 2, seed=99)
        s = mixed_stream(graph, 100, 0.9, seed=5, insert_edges=extra)
        ins = s.select(np.nonzero(s.op == INSERT)[0])
        pool = set(zip(extra.src.tolist(), extra.dst.tolist()))
        assert all((u, v) in pool for u, v in zip(ins.src.tolist(), ins.dst.tolist()))

    def test_insert_edges_too_small(self, graph):
        tiny = rmat_graph(9, m=5, seed=99)
        with pytest.raises(StreamError):
            mixed_stream(graph, 100, 0.9, insert_edges=tiny)

    def test_insert_frac_bounds(self, graph):
        with pytest.raises(ValueError):
            mixed_stream(graph, 10, 1.5)


class TestSemisort:
    def test_sorted_by_source(self, graph):
        s = mixed_stream(graph, 500, 0.5, seed=6)
        out, perm = semisort(s)
        assert np.all(np.diff(out.src) >= 0)
        assert np.array_equal(out.src, s.src[perm])

    def test_stable_within_vertex(self):
        s = make_stream(ops=(1, 1, 1), src=(2, 0, 2), dst=(1, 1, 3))
        out, _ = semisort(s)
        # vertex 2's updates keep arrival order: dst 1 before dst 3
        two = out.dst[out.src == 2]
        assert two.tolist() == [1, 3]


class TestIterBatches:
    def test_partition(self, graph):
        s = insertion_stream(graph)
        batches = list(iter_batches(s, 1000))
        assert sum(len(b) for b in batches) == len(s)
        assert all(len(b) <= 1000 for b in batches)
        recon = np.concatenate([b.src for b in batches])
        assert np.array_equal(recon, s.src)

    def test_invalid_batch_size(self, graph):
        with pytest.raises(StreamError):
            list(iter_batches(insertion_stream(graph), 0))
