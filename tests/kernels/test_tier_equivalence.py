"""End-to-end bit-identity through the public APIs, whatever tier is named.

Each test runs a whole workload with the retired tier variable naming
``scalar`` and again naming ``vectorised`` — nothing reads it, so every
observable must agree: labels, parents, hop totals, counters, profile
metadata — and diffs the batch call against its per-query (``scalar``) loop
where one exists.
"""

import numpy as np

from repro.adjacency.csr import build_csr
from repro.api import DynamicGraph
from repro.core.components import connected_components
from repro.core.connectivity import ConnectivityIndex
from repro.core.linkcut import LinkCutForest
from repro.generators.rmat import rmat_graph
from repro.generators.streams import UpdateStream
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
    graph = rmat_graph(scale=8, edge_factor=8, seed=29)
    g = build_csr(graph)
    rng = np.random.default_rng(5)
    us = rng.integers(0, g.n, 1500).astype(np.int64)
    vs = rng.integers(0, g.n, 1500).astype(np.int64)
    stream = UpdateStream(g.n, np.ones(us.size, dtype=np.int8), us, vs, np.zeros(us.size))
    runs = {}
    for tier in ("scalar", "vectorised"):
        with stale_tier(tier):
            idx = ConnectivityIndex.from_rep(DynamicGraph.from_edgelist(graph, seed=1).rep)
            linked = idx._union_roots(us, vs)
            idx.apply_batch(stream)
            runs[tier] = (idx, linked)
    (sca, sca_linked), (vec, vec_linked) = runs["scalar"], runs["vectorised"]
    np.testing.assert_array_equal(sca_linked, vec_linked)
    np.testing.assert_array_equal(sca.forest.parent, vec.forest.parent)
    assert sca.forest.hops == vec.forest.hops
    assert sca.stats == vec.stats

    # add_edge one edge at a time links exactly the same edges.
    forest_one, _ = LinkCutForest.from_csr(g)
    one_by_one = [forest_one.add_edge(int(u), int(v)) for u, v in zip(us, vs)]
    assert sca_linked.tolist() == one_by_one
    assert sca.stats.tree_links == sum(one_by_one)


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
