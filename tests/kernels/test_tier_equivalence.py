"""End-to-end bit-identity through the public APIs, whatever tier is named.

Each test runs a whole workload with the retired tier variable naming
``scalar`` and again naming ``vectorised`` — nothing reads it, so every
observable must agree: labels, parents, hop totals, counters, profile
metadata — and diffs the batch call against its per-query (``scalar``) loop
where one exists.
"""

import numpy as np

from repro.adjacency.csr import build_csr
from repro.core.components import connected_components
from repro.core.connectivity import ConnectivityIndex
from repro.core.linkcut import LinkCutForest
from repro.generators.rmat import rmat_graph
from tests.retired_tier import stale_tier


def _csr(scale=9, seed=17):
    return build_csr(rmat_graph(scale=scale, edge_factor=8, seed=seed))


def test_connected_components_tiers():
    g = _csr()
    with stale_tier("scalar"):
        sca = connected_components(g)
    with stale_tier("vectorised"):
        vec = connected_components(g)
    np.testing.assert_array_equal(sca.labels, vec.labels)
    assert (sca.n_passes, sca.jump_rounds, sca.arcs_processed) == (
        vec.n_passes,
        vec.jump_rounds,
        vec.arcs_processed,
    )
    assert sca.profile(g).meta == vec.profile(g).meta


def test_forest_construction_and_queries_tiers():
    g = _csr(seed=23)
    with stale_tier("scalar"):
        f_sca, rec_sca = LinkCutForest.from_csr(g)
    with stale_tier("vectorised"):
        f_vec, rec_vec = LinkCutForest.from_csr(g)
    np.testing.assert_array_equal(f_sca.parent, f_vec.parent)
    assert rec_sca.max_depth == rec_vec.max_depth

    rng = np.random.default_rng(2)
    us = rng.integers(0, g.n, 4000).astype(np.int64)
    vs = rng.integers(0, g.n, 4000).astype(np.int64)
    with stale_tier("scalar"):
        sca = ConnectivityIndex(f_sca).query_batch(us, vs)
    with stale_tier("vectorised"):
        vec = ConnectivityIndex(f_vec).query_batch(us, vs)
    np.testing.assert_array_equal(sca.connected, vec.connected)
    assert sca.total_hops == vec.total_hops
    assert sca.profile.meta == vec.profile.meta

    # The per-query loop answers and counts the same.
    index, before = ConnectivityIndex(f_sca), f_sca.hops
    one_by_one = [index.query(int(u), int(v)) for u, v in zip(us, vs)]
    assert sca.connected.tolist() == one_by_one
    assert f_sca.hops - before == sca.total_hops


def test_insert_batch_tiers():
    g = _csr(scale=8, seed=29)
    rng = np.random.default_rng(5)
    us = rng.integers(0, g.n, 1500).astype(np.int64)
    vs = rng.integers(0, g.n, 1500).astype(np.int64)
    for rule, comp in (("rank", "halving"), ("size", "none"), ("rem", "splitting")):
        with stale_tier("scalar"):
            idx_sca = ConnectivityIndex.from_csr(g)
            sca = idx_sca.insert_batch(us, vs, union_rule=rule, compaction=comp)
        with stale_tier("vectorised"):
            idx_vec = ConnectivityIndex.from_csr(g)
            vec = idx_vec.insert_batch(us, vs, union_rule=rule, compaction=comp)
        np.testing.assert_array_equal(sca.linked, vec.linked)
        np.testing.assert_array_equal(idx_sca.forest.parent, idx_vec.forest.parent)
        assert sca.total_hops == vec.total_hops
        assert sca.profile.meta == vec.profile.meta

        # add_edge one edge at a time links exactly the same edges.
        forest_one, _ = LinkCutForest.from_csr(g)
        one_by_one = [forest_one.add_edge(int(u), int(v)) for u, v in zip(us, vs)]
        assert sca.linked.tolist() == one_by_one


def test_scalar_tier_findroot_batch_matches():
    # A BFS forest of an R-MAT graph: shallow trees, many queries per root.
    # The batch chase and the per-query findroot give the same roots and
    # the same summed hops.
    forest, _ = LinkCutForest.from_csr(_csr(scale=8, seed=31))
    q = np.random.default_rng(9).integers(0, forest.n, 700).astype(np.int64)
    with stale_tier("scalar"):
        before = forest.hops
        roots = forest.findroot_batch(q)
        batch_hops = forest.hops - before
    before = forest.hops
    want = [forest.findroot(int(v)) for v in q]
    assert roots.tolist() == want
    assert batch_hops == forest.hops - before > 0
