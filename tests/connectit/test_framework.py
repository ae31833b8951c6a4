"""Equivalence suite: every variant × composition matches networkx.

The acceptance contract of the framework: canonical component labels are
bit-identical to the networkx reference (and to the repo's Shiloach–Vishkin
kernel) for every union rule, compaction rule, and sampling strategy, on
every reference topology, under both execution backends.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adjacency.csr import build_csr
from repro.connectit import (
    SAMPLING_RULES,
    ConnectItSpec,
    UnionFind,
    connect_components,
    variant_matrix,
)
from repro.core.components import connected_components
from repro.edgelist import EdgeList
from repro.errors import GraphError
from repro.parallel.backend import ProcessBackend
from tests.retired_tier import stale_tier

ALL_SPECS = variant_matrix(samplings=SAMPLING_RULES)


def nx_reference_labels(graph) -> np.ndarray:
    """Canonical (min-id) labels from networkx, including isolates."""
    nxg = nx.Graph()
    nxg.add_nodes_from(range(graph.n))
    nxg.add_edges_from(zip(graph.src.tolist(), graph.dst.tolist()))
    labels = np.empty(graph.n, dtype=np.int64)
    for comp in nx.connected_components(nxg):
        labels[list(comp)] = min(comp)
    return labels


@pytest.mark.parametrize("spec", ALL_SPECS, ids=[s.name for s in ALL_SPECS])
def test_all_variants_match_networkx(graph_family, spec):
    name, graph, csr = graph_family
    expected = nx_reference_labels(graph)
    result = connect_components(csr, spec)
    np.testing.assert_array_equal(result.labels, expected)
    assert result.n_components == np.unique(expected).size


@pytest.mark.parametrize("spec", ALL_SPECS, ids=[s.name for s in ALL_SPECS])
def test_compiled_tier_bit_identical(graph_family, spec):
    # ConnectIt runs one union body and reads no tier, so a stale
    # environment naming the deleted compiled tier changes nothing:
    # labels AND the full WorkCounters accounting of both phases are
    # bit-identical to a run with the variable unset.
    _, _, csr = graph_family
    with stale_tier(None):
        ref = connect_components(csr, spec)
    with stale_tier("compiled"):
        stale = connect_components(csr, spec)
    np.testing.assert_array_equal(stale.labels, ref.labels)
    assert stale.counters.to_dict() == ref.counters.to_dict()
    assert stale.sample_counters.to_dict() == ref.sample_counters.to_dict()
    assert stale.finish_counters.to_dict() == ref.finish_counters.to_dict()
    assert stale.sample.to_dict() == ref.sample.to_dict()
    assert stale.meta == ref.meta


def test_matches_shiloach_vishkin(graph_family):
    _, _, csr = graph_family
    sv = connected_components(csr)
    for spec in (ConnectItSpec(), ConnectItSpec(sampling="kout"), ConnectItSpec(sampling="bfs")):
        np.testing.assert_array_equal(connect_components(csr, spec).labels, sv.labels)


@pytest.mark.parametrize(
    "spec",
    [
        ConnectItSpec(),
        ConnectItSpec(sampling="kout", union_rule="rem", compaction="splitting"),
        ConnectItSpec(sampling="kout", k=4, union_rule="size", compaction="full"),
        ConnectItSpec(sampling="bfs", union_rule="rank", compaction="none"),
    ],
    ids=lambda s: s.name,
)
def test_process_backend_bit_identical(graph_family, pool, spec):
    _, _, csr = graph_family
    serial = connect_components(csr, spec)
    be = ProcessBackend.__new__(ProcessBackend)
    be.pool = pool
    parallel = connect_components(csr, spec, backend=be)
    np.testing.assert_array_equal(serial.labels, parallel.labels)
    assert parallel.meta["backend"] == "process"
    assert parallel.meta["workers"] == pool.workers


def test_sampling_reduces_finish_work(small_rmat_csr):
    unsampled = connect_components(small_rmat_csr, ConnectItSpec())
    for sampling in ("kout", "bfs"):
        sampled = connect_components(small_rmat_csr, ConnectItSpec(sampling=sampling))
        assert sampled.meta["finish_arcs"] < unsampled.meta["finish_arcs"]
        assert sampled.counters.unions < unsampled.counters.unions
        assert sampled.sample.giant_fraction > 0.5


def test_spec_validation():
    with pytest.raises(GraphError):
        ConnectItSpec(union_rule="nope")
    with pytest.raises(GraphError):
        ConnectItSpec(sampling="nope")
    with pytest.raises(GraphError):
        ConnectItSpec(sampling="kout", k=0)
    with pytest.raises(GraphError):
        connect_components(None, ConnectItSpec(), sampling="kout")


def test_spec_kwargs_form(er_csr):
    by_spec = connect_components(er_csr, ConnectItSpec(sampling="kout", union_rule="rem"))
    by_kwargs = connect_components(er_csr, sampling="kout", union_rule="rem")
    np.testing.assert_array_equal(by_spec.labels, by_kwargs.labels)


def test_spec_names_unique():
    names = [s.name for s in ALL_SPECS]
    assert len(names) == len(set(names)) == 36


def test_profile_phases_and_meta(small_rmat_csr):
    spec = ConnectItSpec(sampling="kout")
    result = connect_components(small_rmat_csr, spec)
    prof = result.profile()
    assert [p.name for p in prof.phases] == ["sample", "finish"]
    assert prof.total("rand_accesses") > 0
    assert prof.meta["spec"]["name"] == spec.name
    assert prof.meta["counters"]["unions"] == result.counters.unions
    # unsampled composition has no sample phase
    prof_un = connect_components(small_rmat_csr, ConnectItSpec()).profile()
    assert [p.name for p in prof_un.phases] == ["finish"]


def test_counters_split_at_phase_boundary(small_rmat_csr):
    result = connect_components(small_rmat_csr, ConnectItSpec(sampling="bfs"))
    total = result.sample_counters.snapshot()
    total.add(result.finish_counters)
    assert total == result.counters


def test_empty_graph():
    csr = build_csr(EdgeList(0, np.array([], dtype=np.int64), np.array([], dtype=np.int64)))
    for sampling in SAMPLING_RULES:
        result = connect_components(csr, ConnectItSpec(sampling=sampling))
        assert result.labels.size == 0
        assert result.n_components == 0


def test_isolated_vertices_only():
    csr = build_csr(EdgeList(5, np.array([], dtype=np.int64), np.array([], dtype=np.int64)))
    for sampling in SAMPLING_RULES:
        result = connect_components(csr, ConnectItSpec(sampling=sampling))
        assert result.labels.tolist() == [0, 1, 2, 3, 4]


def test_unionfind_reexported():
    assert UnionFind(3).n == 3


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=30),
    edges=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=80),
    spec=st.sampled_from(ALL_SPECS),
)
def test_hypothesis_arbitrary_graphs_match_networkx(n, edges, spec):
    src = np.array([u % n for u, _ in edges], dtype=np.int64)
    dst = np.array([v % n for _, v in edges], dtype=np.int64)
    graph = EdgeList(n, src, dst)
    expected = nx_reference_labels(graph)
    result = connect_components(build_csr(graph), spec)
    np.testing.assert_array_equal(result.labels, expected)
