"""Direct loop-vs-reference equivalence for the fused kernel bodies.

These exercise :mod:`repro.kernels.loops` head-on (through
:func:`repro.kernels.get`, so a real numba Dispatcher is covered when
installed): the union-find loops on every tier against the per-pair
:meth:`UnionFind.union` oracle across all 12 rule × compaction
combinations, the pointer chase against the
level-synchronous batch, and the SV loop against the numpy pass structure.
The ``apply_mixed`` delete-matching path has its own end-to-end coverage in
``tests/adjacency/test_equivalence.py``.
"""

import itertools
from contextlib import nullcontext

import numpy as np
import pytest

from repro import kernels
from repro.connectit.unionfind import COMPACTION_RULES, UNION_RULES, UnionFind
from repro.core.components import connected_components
from repro.core.linkcut import LinkCutForest
from repro.generators.rmat import rmat_graph
from repro.adjacency.csr import build_csr


def random_arcs(seed, n, k):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, n, k).astype(np.int64),
        rng.integers(0, n, k).astype(np.int64),
    )


def union_cases(*axes):
    """The product of ``axes`` × kernel tier, one ``pytest.param`` each.

    Tier None is whatever the install resolves to (interpreted over the
    ``array`` buffers without numba) and keeps the bare id; ``scalar`` pins
    the interpreted path, ``compiled`` the ndarray-view path (a real
    Dispatcher with numba, the same body uncompiled without).
    """
    return [
        pytest.param(*combo, tier, id="-".join(combo) + (f"-{tier}" if tier else ""))
        for combo in itertools.product(*axes)
        for tier in (None, "scalar", "compiled")
    ]


@pytest.mark.parametrize("comp,rule,tier", union_cases(COMPACTION_RULES, UNION_RULES))
def test_union_arcs_matches_scalar(comp, rule, tier):
    n = 200
    src, dst = random_arcs(13, n, 1500)
    ref = UnionFind(n, union_rule=rule, compaction=comp)
    linked_ref = [ref.union(u, v) for u, v in zip(src.tolist(), dst.tolist())]

    uf = UnionFind(n, union_rule=rule, compaction=comp)
    uf.kernel_tier = tier
    with kernels.force_available() if tier == "compiled" else nullcontext():
        linked = uf.union_arcs(src, dst)
    assert linked.dtype == np.bool_
    assert linked.tolist() == linked_ref
    np.testing.assert_array_equal(uf.parent, ref.parent)
    if rule == "rank":
        np.testing.assert_array_equal(uf.rank, ref.rank)
    if rule == "size":
        np.testing.assert_array_equal(uf.size, ref.size)
    assert uf.counters.to_dict() == ref.counters.to_dict()


@pytest.mark.parametrize("rule,tier", union_cases(UNION_RULES))
def test_union_arcs_pre_resolved_convention(rule, tier):
    # Equal endpoints with pre_resolved: one union attempt, nothing else —
    # the insert_batch contract for edges its findroot pass resolved.
    n = 10
    src = np.array([3, 3, 4], dtype=np.int64)
    dst = np.array([3, 5, 4], dtype=np.int64)
    uf = UnionFind(n, union_rule=rule)
    uf.kernel_tier = tier
    with kernels.force_available() if tier == "compiled" else nullcontext():
        linked = uf.union_arcs(src, dst, pre_resolved=True)
    assert linked.tolist() == [False, True, False]
    ref = UnionFind(n, union_rule=rule)
    assert ref.union(3, 5)
    ref.counters.unions += 2  # the two resolved pairs: attempts, nothing else
    assert uf.counters == ref.counters
    np.testing.assert_array_equal(uf.parent, ref.parent)


def test_findroot_batch_matches_vectorised():
    g = build_csr(rmat_graph(scale=9, edge_factor=8, seed=3))
    forest, _ = LinkCutForest.from_csr(g)
    rng = np.random.default_rng(1)
    queries = rng.integers(0, g.n, 2000).astype(np.int64)

    before = forest.hops
    ref_roots = forest.findroot_batch(queries)
    ref_hops = forest.hops - before

    v = queries.copy()
    with kernels.force_available():
        hops = int(kernels.get("findroot_batch")(forest.parent, v))
    np.testing.assert_array_equal(v, ref_roots)
    assert hops == ref_hops


def test_sv_components_matches_numpy():
    for seed in (3, 4, 5):
        g = build_csr(rmat_graph(scale=8, edge_factor=6, seed=seed))
        ref = connected_components(g)
        labels = np.arange(g.n, dtype=np.int64)
        src = np.repeat(np.arange(g.n, dtype=np.int64), g.degrees())
        limit = 2 * int(np.ceil(np.log2(g.n + 1))) + 4
        with kernels.force_available():
            passes, jumps, arcs = kernels.get("sv_components")(
                labels, src, g.targets, limit
            )
        np.testing.assert_array_equal(labels, ref.labels)
        assert (int(passes), int(jumps), int(arcs)) == (
            ref.n_passes,
            ref.jump_rounds,
            ref.arcs_processed,
        )


def test_sv_components_respects_max_passes():
    # A long path needs many passes; the limit must clip identically.
    n = 120
    src = np.concatenate(
        [np.arange(n - 1, dtype=np.int64), np.arange(1, n, dtype=np.int64)]
    )
    dst = np.concatenate(
        [np.arange(1, n, dtype=np.int64), np.arange(n - 1, dtype=np.int64)]
    )
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.add.at(offsets, src + 1, 1)
    order = np.argsort(src, kind="stable")
    from repro.adjacency.csr import CSRGraph

    g = CSRGraph(n, np.cumsum(offsets), dst[order])
    ref = connected_components(g, max_passes=1)
    with kernels.force_available():
        jit = connected_components(g, max_passes=1, kernel_tier="compiled")
    np.testing.assert_array_equal(jit.labels, ref.labels)
    assert jit.n_passes == ref.n_passes == 1
    assert jit.jump_rounds == ref.jump_rounds
