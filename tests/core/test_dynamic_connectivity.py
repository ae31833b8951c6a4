"""Fully dynamic connectivity: ``ConnectivityIndex.apply_batch``.

After every batch the forest spans the graph (``validate`` audits it against
from-scratch components), and it agrees with the per-op reference in
``tests/core/connectivity_oracle.py``: the same adjacency, the same insert /
delete / miss counts and the same trees, though not necessarily the same
parent array.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.adjacency.csr import build_csr
from repro.adjacency.registry import REPRESENTATIONS, make_representation
from repro.core.connectivity import ConnectivityIndex
from repro.errors import GraphError
from repro.generators.rmat import rmat_graph
from repro.generators.streams import (
    UpdateStream,
    insertion_stream,
    iter_batches,
    mixed_stream,
)
from tests.core.connectivity_oracle import OracleStats, PerOpConnectivity

INS, DEL = 1, -1


def index(n, kind="hybrid", **kwargs):
    """An index over an empty graph of ``n`` vertices."""
    return ConnectivityIndex.from_rep(make_representation(kind, n, **kwargs))


def batch(n, *updates):
    """A stream of ``(op, u, v)`` or ``(op, u, v, ts)`` updates."""
    rows = [(*row, 0)[:4] for row in updates]
    op, u, v, ts = (np.array([r[i] for r in rows], dtype=np.int64) for i in range(4))
    return UpdateStream(n, op.astype(np.int8), u, v, ts)


def rep_kwargs(kind, n):
    if kind == "dynarr-nr":
        return {"degrees": np.full(n, 512)}
    if kind == "hybrid":
        return {"degree_thresh": 3, "seed": 1}
    if kind == "treap":
        return {"seed": 1}
    return {}


def assert_matches_oracle(idx, oracle):
    mine, theirs = idx.rep.to_csr(), oracle.rep.to_csr()
    for name in ("offsets", "targets", "ts"):
        np.testing.assert_array_equal(getattr(mine, name), getattr(theirs, name))
    for name in vars(OracleStats()):
        assert getattr(idx.stats, name) == getattr(oracle.stats, name), name
    # The same trees: root -> root is a bijection.
    a, b = idx.forest.resolve()[0], oracle.forest.resolve()[0]
    assert np.unique(a * idx.n + b).size == np.unique(a).size == np.unique(b).size


class TestBasics:
    def test_insert_changes_connectivity(self):
        dc = index(4)
        dc.apply_batch(batch(4, (INS, 0, 1)))
        assert dc.query(0, 1)
        assert dc.forest.n_trees() == 3

    def test_nontree_insert(self):
        dc = index(4)
        dc.apply_batch(batch(4, (INS, 0, 1), (INS, 1, 2), (INS, 0, 2)))
        assert dc.stats.tree_links == 2
        assert dc.forest.n_trees() == 2

    def test_self_loop_no_connectivity_change(self):
        dc = index(3)
        dc.apply_batch(batch(3, (INS, 1, 1)))
        assert dc.forest.n_trees() == 3
        dc.apply_batch(batch(3, (DEL, 1, 1)))
        assert (dc.stats.deletes, dc.stats.delete_misses) == (1, 0)
        assert dc.rep.n_arcs == 0

    def test_delete_missing(self):
        dc = index(3)
        result = dc.apply_batch(batch(3, (DEL, 0, 1)))
        assert result.misses == 2  # both arcs
        assert dc.stats.delete_misses == 1

    def test_delete_bridge_disconnects(self):
        dc = index(3)
        dc.apply_batch(batch(3, (INS, 0, 1), (INS, 1, 2), (DEL, 0, 1)))
        assert not dc.query(0, 1)
        assert dc.query(1, 2)
        assert dc.stats.tree_cuts == 1
        assert dc.stats.replacements_found == 0

    def test_delete_cycle_edge_keeps_connectivity(self):
        dc = index(4)
        dc.apply_batch(batch(4, (INS, 0, 1), (INS, 1, 2), (INS, 2, 3), (INS, 3, 0)))
        dc.apply_batch(batch(4, (DEL, 1, 2)))
        assert dc.query(1, 2)
        dc.validate()

    def test_parallel_edge_keeps_tree_link(self):
        dc = index(3)
        dc.apply_batch(batch(3, (INS, 0, 1), (INS, 0, 1), (DEL, 0, 1)))
        assert dc.query(0, 1)
        assert dc.stats.parallel_edge_keeps == 1
        assert dc.stats.tree_cuts == 0
        dc.apply_batch(batch(3, (DEL, 0, 1)))
        assert not dc.query(0, 1)
        assert dc.stats.tree_cuts == 1

    def test_n_edges(self):
        dc = index(4)
        dc.apply_batch(batch(4, (INS, 0, 1), (INS, 2, 3)))
        assert dc.rep.n_arcs // 2 == 2
        dc.apply_batch(batch(4, (DEL, 0, 1)))
        assert dc.rep.n_arcs // 2 == 1


class TestAgainstNetworkx:
    def _random_session(self, seed, n=24, steps=250, p_insert=0.6, batch_size=10):
        rng = np.random.default_rng(seed)
        dc = index(n, seed=int(seed))
        G = nx.MultiGraph()
        G.add_nodes_from(range(n))
        updates = []
        hits = misses = 0  # deletes that find the edge in G, and the rest
        for _ in range(steps):
            u, v = (int(x) for x in rng.integers(0, n, 2))
            if u == v:
                continue
            if rng.random() < p_insert:
                updates.append((INS, u, v))
                G.add_edge(u, v)
            else:
                updates.append((DEL, u, v))
                if G.has_edge(u, v):
                    G.remove_edge(u, v)
                    hits += 1
                else:
                    misses += 1
            if len(updates) == batch_size:
                dc.apply_batch(batch(n, *updates))
                updates = []
                self._check_equal(dc, G, hits, misses)
        dc.apply_batch(batch(n, *updates))
        self._check_equal(dc, G, hits, misses)
        dc.validate()
        return dc

    @staticmethod
    def _check_equal(dc, G, hits, misses):
        assert (dc.stats.deletes, dc.stats.delete_misses) == (hits, misses)
        rng = np.random.default_rng(0)
        for _ in range(40):
            a, b = (int(x) for x in rng.integers(0, dc.n, 2))
            assert dc.query(a, b) == nx.has_path(G, a, b), (a, b)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_update_sessions(self, seed):
        self._random_session(seed)

    def test_deletion_heavy_session(self):
        dc = self._random_session(7, p_insert=0.45, steps=300)
        assert dc.stats.tree_cuts > 0

    def test_component_count_tracks_truth(self):
        rng = np.random.default_rng(11)
        n = 20
        dc = index(n, seed=11)
        G = nx.MultiGraph()
        G.add_nodes_from(range(n))
        for _ in range(15):
            updates = []
            for _ in range(10):
                u, v = (int(x) for x in rng.integers(0, n, 2))
                if u == v:
                    continue
                if rng.random() < 0.55:
                    updates.append((INS, u, v))
                    G.add_edge(u, v)
                elif G.has_edge(u, v):
                    updates.append((DEL, u, v))
                    G.remove_edge(u, v)
            dc.apply_batch(batch(n, *updates))
            assert dc.forest.n_trees() == nx.number_connected_components(G)


class TestStreams:
    def test_apply_stream(self):
        graph = rmat_graph(8, 6, seed=61)
        dc = index(graph.n, seed=1)
        dc.apply_batch(insertion_stream(graph))
        dc.validate()
        dc.apply_batch(mixed_stream(graph, 200, 0.5, seed=2))
        dc.validate()

    def test_apply_counts_misses(self):
        dc = index(4)
        result = dc.apply_batch(batch(4, (DEL, 0, 1), (DEL, 1, 2)))
        assert result.misses == 4
        assert (dc.stats.deletes, dc.stats.delete_misses) == (0, 2)

    def test_stream_vertex_mismatch(self):
        dc = index(4)
        with pytest.raises(GraphError):
            dc.apply_batch(batch(5, (INS, 0, 1)))

    def test_queries_only_index_rejects_updates(self):
        dc = ConnectivityIndex.from_csr(build_csr(rmat_graph(5, 4, seed=1)))
        with pytest.raises(GraphError):
            dc.apply_batch(batch(dc.n, (INS, 0, 1)))


class TestProfiles:
    def test_profile_structure(self):
        dc = index(10, seed=1)
        dc.apply_batch(batch(10, (INS, 0, 1), (INS, 1, 2), (INS, 2, 3), (INS, 0, 3)))
        dc.apply_batch(batch(10, (DEL, 1, 2)))
        prof = dc.maintenance_profile()
        assert len(prof.phases) == 2
        forest_phase = prof.phases[1]
        assert forest_phase.locks >= dc.stats.tree_links

    def test_replacement_scan_counted(self):
        dc = index(4, seed=1)
        dc.apply_batch(batch(4, (INS, 0, 1), (INS, 1, 2), (INS, 2, 3), (INS, 3, 0)))
        dc.apply_batch(batch(4, (DEL, 0, 1)))
        assert dc.stats.replacements_found == 1
        assert dc.stats.replacement_scan_arcs > 0


class TestValidate:
    def test_detects_divergence(self):
        dc = index(4)
        dc.apply_batch(batch(4, (INS, 0, 1)))
        dc.forest.cut(0 if dc.forest.parent_of(0) == 1 else 1)
        with pytest.raises(GraphError):
            dc.validate()


updates = st.lists(
    st.tuples(st.sampled_from([INS, INS, DEL]), st.integers(0, 9), st.integers(0, 9),
              st.integers(0, 2)),
    max_size=60,
)


class TestAgainstPerOp:
    @pytest.mark.parametrize("kind", sorted(REPRESENTATIONS))
    @settings(max_examples=25, deadline=None)
    @given(batches=st.lists(updates, min_size=1, max_size=4))
    # Two deleted tree edges, 1-2 cut first while 5-1 still hangs the
    # subtree {5, 3, 4} under 1: a search that reads the graph without the
    # uncut 5-1 misses that subtree and leaves 2-3-5 split.
    @example(batches=[[(INS, 5, 1, 0), (INS, 4, 5, 0), (INS, 3, 5, 0), (INS, 2, 1, 0),
                       (INS, 3, 2, 0)], [(DEL, 2, 1, 0), (DEL, 5, 1, 0)]])
    def test_batches_match_the_per_op_path(self, kind, batches):
        # Inserts, deletes that hit and miss, duplicates with several stamps,
        # self-loops; deletes drawn from a 10-vertex space keep hitting the
        # edges earlier updates made, tree edges and replacements included.
        idx = index(10, kind, **rep_kwargs(kind, 10))
        oracle = PerOpConnectivity(make_representation(kind, 10, **rep_kwargs(kind, 10)))
        for ups in batches:
            stream = batch(10, *ups)
            result = idx.apply_batch(stream)
            assert result.misses // 2 == oracle.apply(stream)
            assert_matches_oracle(idx, oracle)
            idx.validate()

    @pytest.mark.parametrize("kind", ["hybrid", "dynarr"])
    def test_rmat_churn_matches_the_per_op_path(self, kind):
        # The mixed recipe at a small scale: fresh R-MAT inserts, deletes of
        # existing edges, many tree cuts and replacements per batch.
        base = rmat_graph(9, 8, seed=5)
        stream = mixed_stream(base, 3072, 0.75, 7, insert_edges=rmat_graph(9, 16, seed=6),
                              delete_mode="existing")
        kwargs = {"seed": 1} if kind == "hybrid" else {}
        idx = index(base.n, kind, **kwargs)
        oracle = PerOpConnectivity(make_representation(kind, base.n, **kwargs))
        oracle.apply(insertion_stream(base))
        idx.apply_batch(insertion_stream(base))
        for part in iter_batches(stream, 512):
            idx.apply_batch(part)
            oracle.apply(part)
            assert_matches_oracle(idx, oracle)
        idx.validate()
        assert idx.stats.tree_cuts > 20 and idx.stats.replacements_found > 10
        assert idx.stats.parallel_edge_keeps > 0

    def test_from_rep_starts_from_the_snapshot_forest(self):
        graph = rmat_graph(8, 6, seed=3)
        dc = index(graph.n, seed=1)
        dc.apply_batch(insertion_stream(graph))
        again = ConnectivityIndex.from_rep(dc.rep)
        np.testing.assert_array_equal(
            again.forest.parent, ConnectivityIndex.from_csr(dc.rep.to_csr()).forest.parent
        )
        again.apply_batch(mixed_stream(graph, 300, 0.5, seed=4))
        again.validate()
