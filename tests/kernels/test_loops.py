"""Direct loop-vs-reference equivalence for the pointer-chase loop bodies.

These exercise :mod:`repro.kernels.loops` head-on: the union-find loop on
both tiers against the per-pair :meth:`UnionFind.union` oracle across all 12
rule × compaction combinations, and the root chase against the
level-synchronous batch.  The two kernels with one body on every tier —
``union_arcs`` and the SV components sweep — are also run with
``REPRO_KERNEL_TIER`` naming the deleted ``compiled`` tier, which neither
consults.
"""

import itertools
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.connectit.unionfind import COMPACTION_RULES, UNION_RULES, UnionFind
from repro.core.components import connected_components
from repro.core.linkcut import LinkCutForest
from repro.generators.rmat import rmat_graph
from repro.adjacency.csr import build_csr
from repro.kernels import loops

#: A tier name this repository no longer has (numba's, removed).
DELETED_TIER = "compiled"


def random_arcs(seed, n, k):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, n, k).astype(np.int64),
        rng.integers(0, n, k).astype(np.int64),
    )


def union_cases(*axes):
    """The product of ``axes`` × kernel tier, one ``pytest.param`` each.

    Tier None leaves ``REPRO_KERNEL_TIER`` as it is and keeps the bare id;
    ``scalar`` pins it, and so does the deleted tier.  ``union_arcs`` is one
    body that reads no tier, and these cases hold it to that.
    """
    return [
        pytest.param(*combo, tier, id="-".join(combo) + (f"-{tier}" if tier else ""))
        for combo in itertools.product(*axes)
        for tier in (None, "scalar", DELETED_TIER)
    ]


def at_tier(tier):
    """Pin ``REPRO_KERNEL_TIER`` to ``tier`` inside the block (None: leave it)."""
    return mock.patch.dict(os.environ, {kernels.ENV_VAR: tier} if tier else {})


@pytest.mark.parametrize("comp,rule,tier", union_cases(COMPACTION_RULES, UNION_RULES))
def test_union_arcs_matches_scalar(comp, rule, tier):
    n = 200
    src, dst = random_arcs(13, n, 1500)
    ref = UnionFind(n, union_rule=rule, compaction=comp)
    linked_ref = [ref.union(u, v) for u, v in zip(src.tolist(), dst.tolist())]

    uf = UnionFind(n, union_rule=rule, compaction=comp)
    with at_tier(tier):
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
    with at_tier(tier):
        linked = uf.union_arcs(src, dst, pre_resolved=True)
    assert linked.tolist() == [False, True, False]
    ref = UnionFind(n, union_rule=rule)
    assert ref.union(3, 5)
    ref.counters.unions += 2  # the two resolved pairs: attempts, nothing else
    assert uf.counters == ref.counters
    np.testing.assert_array_equal(uf.parent, ref.parent)


def check_against_union_oracle(n, arcs, rule, comp, tier, pre_resolved=False, forest=None):
    """``union_arcs`` over ``arcs`` vs the per-pair ``union`` loop, everything compared.

    ``forest`` is an optional parent array written into both structures
    first (deep trees the balanced rules would never build themselves).
    With ``pre_resolved`` the oracle skips equal endpoints after counting
    the attempt, which is the whole of that convention.
    """
    ref = UnionFind(n, union_rule=rule, compaction=comp)
    uf = UnionFind(n, union_rule=rule, compaction=comp)
    if forest is not None:
        ref.parent[:] = forest
        uf.parent[:] = forest
    expect = []
    for u, v in arcs:
        if pre_resolved and u == v:
            ref.counters.unions += 1
            expect.append(False)
        else:
            expect.append(ref.union(u, v))
    src = np.array([u for u, _ in arcs], dtype=np.int64)
    dst = np.array([v for _, v in arcs], dtype=np.int64)
    with at_tier(tier):
        linked = uf.union_arcs(src, dst, pre_resolved=pre_resolved)
    assert linked.tolist() == expect
    np.testing.assert_array_equal(uf.parent, ref.parent)
    for mine, theirs in ((uf.rank, ref.rank), (uf.size, ref.size)):
        assert (mine is None) == (theirs is None)
        assert mine is None or mine.tolist() == theirs.tolist()
    assert uf.counters.to_dict() == ref.counters.to_dict()


def _star(centre, leaves):
    return [(centre, leaf) for leaf in leaves]


def _settled_cases():
    """Inputs that live on the settled-arc branch of ``union_arcs`` and its edges.

    Each entry is ``(n, arcs, forest)``; vertex 0 ends up the root of every
    star under all three union rules (lowest id, first hooked onto).
    """
    star = _star(0, range(1, 9))
    second_pass = (
        [(i, i + 1) for i in range(1, 8)]  # child / child
        + [(i, 0) for i in range(1, 9)]  # child / root
        + star  # root / child
    )
    rng = np.random.default_rng(17)
    pairs = rng.integers(0, 16, (40, 2)).tolist()
    two_stars = _star(0, range(1, 5)) + _star(5, range(6, 10))
    path = np.maximum(np.arange(12) - 1, 0)  # parent[i] = i - 1: depth i
    return {
        # Second pass entirely settled: nothing to chase, store or hook.
        "star-twice": (9, star + second_pass, None),
        # A self-loop on a root (hooked-onto and untouched) and on a child.
        "self-loops": (10, star + [(0, 0), (3, 3), (9, 9), (3, 3), (0, 0)], None),
        "arc-then-reverse": (16, [a for u, v in pairs for a in ((u, v), (v, u))], None),
        # Endpoints at depth >= 2: the check fails, the chase runs, and the
        # same arc is (sooner or later, by compaction rule) settled after it.
        "deep-path": (12, [(11, 7)] * 5 + [(10, 11)] * 4 + [(4, 0), (11, 0)] * 2, path),
        # Joining two flat stars leaves one root's children at depth 2 with
        # equal parents that are no longer a root: the check must fail.
        "two-stars-joined": (10, two_stars + [(3, 8)] + two_stars + [(6, 7), (9, 1)] * 2, None),
    }


SETTLED_CASES = _settled_cases()


@pytest.mark.parametrize("case", SETTLED_CASES)
@pytest.mark.parametrize("comp,rule,tier", union_cases(COMPACTION_RULES, UNION_RULES))
def test_union_arcs_settled_branch_matches_oracle(comp, rule, tier, case):
    n, arcs, forest = SETTLED_CASES[case]
    check_against_union_oracle(n, arcs, rule, comp, tier, forest=forest)


@pytest.mark.parametrize("comp,rule,tier", union_cases(COMPACTION_RULES, UNION_RULES))
def test_union_arcs_pre_resolved_root_space_matches_oracle(comp, rule, tier):
    # insert_batch hands over roots: equal ones are attempts and nothing
    # else, unequal ones union as usual — and go stale as the batch hooks
    # them, so later arcs name children and settled pairs too.
    forest = np.array([0, 0, 0, 3, 3, 5, 6, 6])
    arcs = [(0, 0), (3, 3), (0, 3), (3, 0), (5, 5), (5, 6), (6, 5), (6, 6), (3, 6), (0, 6)]
    check_against_union_oracle(8, arcs, rule, comp, tier, pre_resolved=True, forest=forest)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    arcs=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=200),
    variant=st.sampled_from(union_cases(COMPACTION_RULES, UNION_RULES)),
    pre_resolved=st.booleans(),
)
def test_hypothesis_union_arcs_matches_oracle_on_colliding_arcs(n, arcs, variant, pre_resolved):
    # A dozen vertices and up to 200 arcs: almost every arc lands on a tree
    # built by the ones before it, which is where the settled branch lives.
    comp, rule, tier = variant.values
    arcs = [(u % n, v % n) for u, v in arcs]
    check_against_union_oracle(n, arcs, rule, comp, tier, pre_resolved=pre_resolved)


def test_union_arcs_body_is_self_contained():
    # No helper calls and no module globals: every name a pointer chase
    # touches is a local, and UnionFind calls this very object.
    assert set(loops.union_arcs.__code__.co_names) <= {"len", "range"}
    assert loops.union_arcs.__globals__ is vars(loops)  # never rebound


def test_findroot_batch_matches_vectorised():
    g = build_csr(rmat_graph(scale=9, edge_factor=8, seed=3))
    forest, _ = LinkCutForest.from_csr(g)
    rng = np.random.default_rng(1)
    queries = rng.integers(0, g.n, 2000).astype(np.int64)

    before = forest.hops
    ref_roots = forest.findroot_batch(queries)
    ref_hops = forest.hops - before

    v = queries.copy()
    hops = loops.findroot_batch(forest.parent, v)
    np.testing.assert_array_equal(v, ref_roots)
    assert hops == ref_hops


def sv_at_deleted_tier(monkeypatch, g, **kw):
    """``connected_components(g)`` with the variable unset, then at the deleted tier."""
    monkeypatch.delenv(kernels.ENV_VAR, raising=False)
    ref = connected_components(g, **kw)
    monkeypatch.setenv(kernels.ENV_VAR, DELETED_TIER)
    return ref, connected_components(g, **kw)


def test_sv_components_matches_numpy(monkeypatch):
    # The SV sweep is one numpy body on every tier: a stale environment
    # naming the deleted tier leaves labels and all three counters as they
    # are with the variable unset.
    for seed in (3, 4, 5):
        g = build_csr(rmat_graph(scale=8, edge_factor=6, seed=seed))
        ref, stale = sv_at_deleted_tier(monkeypatch, g)
        np.testing.assert_array_equal(stale.labels, ref.labels)
        assert (stale.n_passes, stale.jump_rounds, stale.arcs_processed) == (
            ref.n_passes,
            ref.jump_rounds,
            ref.arcs_processed,
        )


def test_sv_components_respects_max_passes(monkeypatch):
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
    ref, stale = sv_at_deleted_tier(monkeypatch, g, max_passes=1)
    np.testing.assert_array_equal(stale.labels, ref.labels)
    assert stale.n_passes == ref.n_passes == 1
    assert stale.jump_rounds == ref.jump_rounds
