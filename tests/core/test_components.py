"""Tests for connected components (validated against networkx)."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adjacency.csr import build_csr, csr_from_arrays
from repro.core import components
from repro.core.components import connected_components, hook_and_jump, hook_min_labels
from repro.edgelist import EdgeList
from repro.generators.reference import cycle_graph, path_graph, star_graph
from repro.generators.rmat import rmat_graph


class TestCorrectness:
    def test_matches_networkx(self, er_csr, er_nx):
        res = connected_components(er_csr)
        truth = list(nx.connected_components(er_nx))
        assert res.n_components == len(truth)
        for comp in truth:
            labels = {int(res.labels[v]) for v in comp}
            assert len(labels) == 1

    def test_labels_are_canonical_minimum(self, er_csr, er_nx):
        res = connected_components(er_csr)
        for comp in nx.connected_components(er_nx):
            assert int(res.labels[next(iter(comp))]) == min(comp)

    def test_single_component(self):
        res = connected_components(build_csr(cycle_graph(10)))
        assert res.n_components == 1
        assert np.all(res.labels == 0)

    def test_all_isolated(self):
        g = EdgeList(5, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        res = connected_components(build_csr(g))
        assert res.n_components == 5
        assert res.labels.tolist() == [0, 1, 2, 3, 4]

    def test_two_components(self):
        g = EdgeList(6, np.array([0, 1, 3, 4]), np.array([1, 2, 4, 5]))
        res = connected_components(build_csr(g))
        assert res.n_components == 2
        assert res.same_component(0, 2)
        assert not res.same_component(2, 3)

    def test_directed_arcs_still_weakly_connect(self):
        # One-directional CSR input: hooking propagates both ways.
        g = EdgeList(3, np.array([0, 1]), np.array([1, 2]), directed=True)
        res = connected_components(build_csr(g))
        assert res.n_components == 1

    def test_empty_graph(self):
        g = EdgeList(0, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        res = connected_components(build_csr(g))
        assert res.n_components == 0

    def test_long_path_converges(self):
        res = connected_components(build_csr(path_graph(500)))
        assert res.n_components == 1


class TestDerived:
    def test_sizes_sum_to_n(self, er_csr):
        res = connected_components(er_csr)
        assert int(res.sizes().sum()) == er_csr.n

    def test_largest(self, er_csr, er_nx):
        root, size = connected_components(er_csr).largest()
        truth = max(nx.connected_components(er_nx), key=len)
        assert size == len(truth)
        assert root == min(truth)

    def test_roots_sorted_unique(self, er_csr):
        roots = connected_components(er_csr).roots()
        assert np.all(np.diff(roots) > 0)

    def test_profile_has_pass_phases(self, er_csr):
        res = connected_components(er_csr)
        prof = res.profile(er_csr)
        assert len(prof.phases) == res.n_passes
        assert prof.total("atomics") > 0

    def test_pass_count_logarithmic(self):
        res = connected_components(build_csr(star_graph(1000)))
        assert res.n_passes <= 4


def reference_run(graph):
    """The two-sided scatter sweep through the same pass loop."""
    src = np.repeat(np.arange(graph.n, dtype=np.int64), graph.degrees())
    return hook_and_jump(
        graph.n, lambda prev: hook_min_labels(prev, src, graph.targets), graph.n_arcs, None
    )


def assert_every_pass_is_the_reference(graph):
    """Each pass of the shipped hook equals :func:`hook_min_labels` on the
    same labels, and the run's labels and counts equal the reference run's."""
    src = np.repeat(np.arange(graph.n, dtype=np.int64), graph.degrees())
    sweeps = []

    def checking(n, hook, n_arcs, max_passes):
        def checked(prev):
            got = hook(prev)
            np.testing.assert_array_equal(got, hook_min_labels(prev, src, graph.targets))
            assert got.dtype == np.int64
            sweeps.append(got)
            return got

        return hook_and_jump(n, checked, n_arcs, max_passes)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(components, "hook_and_jump", checking)
        res = connected_components(graph)
    assert len(sweeps) == res.n_passes
    if graph.n:
        labels, passes, jumps, arcs = reference_run(graph)
        np.testing.assert_array_equal(res.labels, labels)
        assert (res.n_passes, res.jump_rounds, res.arcs_processed) == (passes, jumps, arcs)
    return res


edge_lists = st.integers(0, 12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))),
                 max_size=40 if n else 0),
    )
)


class TestSegmentedHook:
    """The shipped sweep is a segmented minimum over CSR rows; the
    two-sided ``minimum.at`` sweep is its reference."""

    @settings(max_examples=60, deadline=None)
    @given(edge_lists)
    def test_symmetric_passes_equal_the_reference(self, case):
        # Isolated vertices, self-loops, multi-edges and n in {0, 1} all arise.
        n, edges = case
        src = np.array([u for u, _ in edges], dtype=np.int64)
        dst = np.array([v for _, v in edges], dtype=np.int64)
        graph = build_csr(EdgeList(n, src, dst))
        assert graph.symmetric
        assert_every_pass_is_the_reference(graph)

    @settings(max_examples=60, deadline=None)
    @given(edge_lists)
    def test_unstamped_passes_equal_the_reference(self, case):
        n, edges = case
        src = np.array([u for u, _ in edges], dtype=np.int64)
        dst = np.array([v for _, v in edges], dtype=np.int64)
        graph = csr_from_arrays(n, src, dst)
        assert not graph.symmetric
        assert_every_pass_is_the_reference(graph)

    @pytest.mark.parametrize("n", [0, 1])
    def test_tiny(self, n):
        empty = np.array([], dtype=np.int64)
        res = assert_every_pass_is_the_reference(build_csr(EdgeList(n, empty, empty)))
        assert res.labels.tolist() == list(range(n))

    @pytest.mark.parametrize(
        "src, dst", [([2, 1], [1, 0]), ([0, 1], [1, 2])], ids=["2-1-0", "0-1-2"]
    )
    def test_one_way_path_of_an_unstamped_csr(self, src, dst):
        # Arcs 2->1->0 reach 0 through out-arcs; arcs 0->1->2 only through
        # the in-arc scatter, without which 1 and 2 stay apart from 0.
        graph = csr_from_arrays(3, np.array(src), np.array(dst))
        assert not graph.symmetric
        res = assert_every_pass_is_the_reference(graph)
        assert res.labels.tolist() == [0, 0, 0]

    def test_rmat(self):
        assert_every_pass_is_the_reference(build_csr(rmat_graph(10, 8, seed=3)))


class TestSummaries:
    """Roots and sizes read off canonical labels equal ``np.unique``'s."""

    def test_equal_to_unique(self):
        graph = build_csr(rmat_graph(9, 2, seed=5))  # many isolated vertices
        res = connected_components(graph)
        roots, counts = np.unique(res.labels, return_counts=True)
        assert res.roots().dtype == roots.dtype and res.sizes().dtype == counts.dtype
        np.testing.assert_array_equal(res.roots(), roots)
        np.testing.assert_array_equal(res.sizes(), counts)
        assert res.n_components == roots.size
        i = int(np.argmax(counts))
        assert res.largest() == (int(roots[i]), int(counts[i]))

    def test_tie_takes_the_smallest_root(self):
        graph = build_csr(EdgeList(6, np.array([4, 0, 2]), np.array([5, 1, 3])))
        assert connected_components(graph).largest() == (0, 2)

    def test_empty(self):
        empty = np.array([], dtype=np.int64)
        res = connected_components(build_csr(EdgeList(0, empty, empty)))
        assert res.roots().size == res.sizes().size == res.n_components == 0
