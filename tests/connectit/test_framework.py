"""Equivalence suite: every variant × composition matches networkx.

The acceptance contract of the framework: canonical component labels are
bit-identical to the networkx reference (and to the repo's Shiloach–Vishkin
kernel) for every union rule, compaction rule, and sampling strategy, on
every reference topology.
"""

import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import obs
from repro.adjacency.csr import build_csr
from repro.connectit import (
    SAMPLING_RULES,
    ConnectItSpec,
    UnionFind,
    connect_components,
    variant_matrix,
)
from repro.connectit.framework import _finish_arcs
from repro.connectit.sampling import bfs_level_bound, run_sampling
from repro.core.components import connected_components
from repro.edgelist import EdgeList
from repro.errors import GraphError
from repro.generators.reference import erdos_renyi
from repro.generators.rmat import rmat_graph
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
    for sampling in ("none", "kout", "bfs"):
        spec = ConnectItSpec(sampling=sampling)
        np.testing.assert_array_equal(connect_components(csr, spec).labels, sv.labels)


def test_finish_span_reports_settled_arcs(small_rmat_csr):
    # The finish span carries the arcs the union loop counted in bulk and
    # the masks it rebuilt: a bare UnionFind's over the same finish arcs,
    # and the counters stay those of the per-pair loop.
    csr = small_rmat_csr
    ref = UnionFind(csr.n)
    ref.union_arcs(*_finish_arcs(csr, UnionFind(csr.n)))
    tracer = obs.enable_tracing(obs.MemorySink())
    try:
        result = connect_components(csr, ConnectItSpec(sampling="none"))
    finally:
        obs.disable_tracing()
    (finish,) = [e for e in tracer.sink.events if e["name"] == "connectit.finish"]
    attrs = finish["attrs"]
    assert 0 < attrs["settled"] < attrs["arcs"]
    assert attrs["restarts"] >= 0
    assert (attrs["settled"], attrs["restarts"]) == (ref.settled, ref.restarts)
    assert result.counters == ref.counters


def test_connect_components_loads_no_parallel_module():
    # The finish runs in this process, so the package pulls in neither the
    # worker pool nor the shared-memory arena.
    code = (
        "import sys; import numpy as np; from repro.adjacency.csr import build_csr; "
        "from repro.connectit import connect_components; from repro.edgelist import EdgeList; "
        "csr = build_csr(EdgeList(4, np.array([0, 2]), np.array([1, 3]))); "
        "assert connect_components(csr).n_components == 2; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.parallel')))"
    )
    src_dir = Path(repro.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src_dir)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_sampling_reduces_finish_work(small_rmat_csr):
    unsampled = connect_components(small_rmat_csr, ConnectItSpec(sampling="none"))
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
        connect_components(None, ConnectItSpec(sampling="none"), sampling="kout")


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
    prof_un = connect_components(small_rmat_csr, ConnectItSpec(sampling="none")).profile()
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


def _path_csr(n: int):
    return build_csr(EdgeList(n, np.arange(n - 1, dtype=np.int64), np.arange(1, n, dtype=np.int64)))


def _small_components_csr():
    # 1 000 paths of three vertices, 400 isolates, and a 12-leaf star that
    # holds the maximum degree (the sample's source).
    tri = np.arange(1000, dtype=np.int64) * 3
    src = np.concatenate([tri, tri + 1, np.full(12, 3400, dtype=np.int64)])
    dst = np.concatenate([tri + 1, tri + 2, np.arange(3401, 3413, dtype=np.int64)])
    return build_csr(EdgeList(3413, src, dst))


#: Graphs the default composition must label exactly as SV and the baseline.
DEFAULT_GRAPHS = {
    "rmat": lambda: build_csr(rmat_graph(12, 8, seed=5)),
    "er": lambda: build_csr(erdos_renyi(2000, 0.0015, seed=3)),
    "path-2^14": lambda: _path_csr(1 << 14),
    "small-components": _small_components_csr,
    "directed": lambda: build_csr(rmat_graph(10, 8, seed=9), symmetrize=False),
}


def test_default_spec_is_the_bfs_sample():
    spec = ConnectItSpec()
    assert (spec.sampling, spec.union_rule, spec.compaction) == ("bfs", "rank", "halving")
    assert spec.name == "bfs+rank/halving"
    assert ConnectItSpec(sampling="none").name == "rank/halving"


@pytest.mark.parametrize("name", sorted(DEFAULT_GRAPHS))
def test_default_matches_sv_and_unsampled(name):
    csr = DEFAULT_GRAPHS[name]()
    default = connect_components(csr)
    assert default.spec == ConnectItSpec()
    assert default.sample.strategy == "bfs"
    np.testing.assert_array_equal(default.labels, connected_components(csr).labels)
    unsampled = connect_components(csr, ConnectItSpec(sampling="none"))
    np.testing.assert_array_equal(default.labels, unsampled.labels)


def test_level_bound_on_a_path_leaves_the_rest_to_the_finish():
    n = 1 << 14
    bound = bfs_level_bound(n)
    assert bound == 28
    result = connect_components(_path_csr(n))
    meta = result.sample.meta
    assert meta["source"] == 1  # the first vertex of degree 2
    assert meta["bfs_levels"] == bound and meta["bfs_cut"] is True
    # The sample holds vertices 0..29 (one level left of vertex 1, 28 right).
    assert result.sample.attempts == bound + 1
    assert result.meta["finish_arcs"] == 2 * (n - 1) - 2 * (bound + 1)
    assert result.finish_counters.hooks == n - (bound + 2)
    assert result.n_components == 1 and not result.labels.any()


@pytest.mark.parametrize("chain,cut", [(12, False), (13, True)])
def test_bfs_cut_only_when_the_bound_leaves_vertices(chain, cut):
    # 64 vertices (a bound of 12 levels): the hub 0 starts a chain of
    # ``chain`` vertices and holds every other vertex as a leaf.  A chain
    # as long as the bound is reached whole; one vertex more is cut.
    n = 64
    chain_src = np.arange(chain, dtype=np.int64)
    leaves = np.arange(chain + 1, n, dtype=np.int64)
    src = np.concatenate([chain_src, np.zeros(leaves.size, dtype=np.int64)])
    dst = np.concatenate([chain_src + 1, leaves])
    csr = build_csr(EdgeList(n, src, dst))
    result = connect_components(csr)
    meta = result.sample.meta
    assert meta["source"] == 0 and bfs_level_bound(n) == 12
    assert (meta["bfs_levels"], meta["bfs_cut"]) == (12, cut)
    assert result.meta["finish_arcs"] == (2 if cut else 0)
    assert result.n_components == 1


def test_bound_does_not_bind_on_rmat(small_rmat_csr):
    meta = connect_components(small_rmat_csr).sample.meta
    assert meta["bfs_cut"] is False
    assert meta["bfs_levels"] < bfs_level_bound(small_rmat_csr.n)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=30),
    edges=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=80),
    strategy=st.sampled_from(SAMPLING_RULES),
    directed=st.booleans(),
)
def test_hypothesis_finish_arcs_one_gather_matches_endpoint_gathers(n, edges, strategy, directed):
    # The finish arcs as the source-id repeat plus four gathers built them.
    src = np.array([u % n for u, _ in edges], dtype=np.int64)
    dst = np.array([v % n for _, v in edges], dtype=np.int64)
    csr = build_csr(EdgeList(n, src, dst), symmetrize=not directed)
    # Given the sample, an uncut BFS on a symmetric CSR reads only the
    # unreached vertices' arcs: the same arcs in the same order.
    uf = UnionFind(n)
    stats = run_sampling(csr, uf, strategy)
    roots = uf.flat_roots()
    asrc = np.repeat(np.arange(n, dtype=np.int64), np.diff(csr.offsets))
    mask = roots[asrc] != roots[csr.targets]
    want = (roots[asrc[mask]], roots[csr.targets[mask]])
    for sample in (None, stats):
        for got, expect in zip(_finish_arcs(csr, uf, sample), want):
            assert got.dtype == expect.dtype and got.flags.c_contiguous
            np.testing.assert_array_equal(got, expect)
