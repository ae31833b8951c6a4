"""End-to-end scalar-vs-vectorised bit-identity through the public APIs.

Each test runs a whole workload twice — once at the ``scalar`` tier, once
at ``vectorised`` — and diffs every observable: labels, parents, hop
totals, counters, profile metadata.
"""

import numpy as np

from repro import kernels
from repro.adjacency.csr import build_csr
from repro.core.components import connected_components
from repro.core.connectivity import ConnectivityIndex
from repro.core.linkcut import LinkCutForest
from repro.generators.rmat import rmat_graph


def _csr(scale=9, seed=17):
    return build_csr(rmat_graph(scale=scale, edge_factor=8, seed=seed))


def test_connected_components_tiers(monkeypatch):
    g = _csr()
    monkeypatch.setenv(kernels.ENV_VAR, "scalar")
    sca = connected_components(g)
    monkeypatch.setenv(kernels.ENV_VAR, "vectorised")
    vec = connected_components(g)
    np.testing.assert_array_equal(sca.labels, vec.labels)
    assert (sca.n_passes, sca.jump_rounds, sca.arcs_processed) == (
        vec.n_passes,
        vec.jump_rounds,
        vec.arcs_processed,
    )
    assert sca.profile(g).meta == vec.profile(g).meta


def test_forest_construction_and_queries_tiers(monkeypatch):
    g = _csr(seed=23)
    monkeypatch.setenv(kernels.ENV_VAR, "scalar")
    f_sca, rec_sca = LinkCutForest.from_csr(g)
    monkeypatch.setenv(kernels.ENV_VAR, "vectorised")
    f_vec, rec_vec = LinkCutForest.from_csr(g)
    np.testing.assert_array_equal(f_sca.parent, f_vec.parent)
    assert rec_sca.max_depth == rec_vec.max_depth

    rng = np.random.default_rng(2)
    us = rng.integers(0, g.n, 4000).astype(np.int64)
    vs = rng.integers(0, g.n, 4000).astype(np.int64)
    monkeypatch.setenv(kernels.ENV_VAR, "scalar")
    sca = ConnectivityIndex(f_sca).query_batch(us, vs)
    monkeypatch.setenv(kernels.ENV_VAR, "vectorised")
    vec = ConnectivityIndex(f_vec).query_batch(us, vs)
    np.testing.assert_array_equal(sca.connected, vec.connected)
    assert sca.total_hops == vec.total_hops
    assert sca.profile.meta["kernel_tier"] == "scalar"
    assert vec.profile.meta["kernel_tier"] == "vectorised"


def test_insert_batch_tiers(monkeypatch):
    g = _csr(scale=8, seed=29)
    rng = np.random.default_rng(5)
    us = rng.integers(0, g.n, 1500).astype(np.int64)
    vs = rng.integers(0, g.n, 1500).astype(np.int64)
    for rule, comp in (("rank", "halving"), ("size", "none"), ("rem", "splitting")):
        monkeypatch.setenv(kernels.ENV_VAR, "scalar")
        idx_sca = ConnectivityIndex.from_csr(g)
        sca = idx_sca.insert_batch(us, vs, union_rule=rule, compaction=comp)
        monkeypatch.setenv(kernels.ENV_VAR, "vectorised")
        idx_vec = ConnectivityIndex.from_csr(g)
        vec = idx_vec.insert_batch(us, vs, union_rule=rule, compaction=comp)
        np.testing.assert_array_equal(sca.linked, vec.linked)
        np.testing.assert_array_equal(idx_sca.forest.parent, idx_vec.forest.parent)
        assert sca.total_hops == vec.total_hops
        assert sca.profile.meta["counters"] == vec.profile.meta["counters"]
        assert sca.profile.meta["kernel_tier"] == "scalar"


def test_scalar_tier_findroot_batch_matches(monkeypatch):
    monkeypatch.delenv(kernels.ENV_VAR, raising=False)
    g = _csr(scale=8, seed=31)
    f_ref, _ = LinkCutForest.from_csr(g)
    f_sca, _ = LinkCutForest.from_csr(g)
    f_sca.kernel_tier = "scalar"
    rng = np.random.default_rng(9)
    q = rng.integers(0, g.n, 700).astype(np.int64)
    h_ref, h_sca = f_ref.hops, f_sca.hops
    np.testing.assert_array_equal(f_sca.findroot_batch(q), f_ref.findroot_batch(q))
    assert f_sca.hops - h_sca == f_ref.hops - h_ref
