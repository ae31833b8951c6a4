"""Direct loop-vs-reference equivalence for the union loop body.

These exercise :func:`repro.kernels.loops.union_arcs` head-on against the
per-pair :meth:`UnionFind.union` oracle across all 12 rule × compaction
combinations.  The oracle cases also run with the settled-arc mask's block
shrunk to 1, 2 and 3 arcs, so that block edges and the re-mask after a
watched root is hooked fall inside every case.  ``union_arcs`` and the SV
components sweep are one body each that reads no tier; every union case
also runs with the retired tier variable naming ``scalar`` and the deleted
``compiled`` tier, and the sweep under ``compiled``, and each must come out
as it does with it unset.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adjacency.csr import CSRGraph, build_csr
from repro.connectit import unionfind
from repro.connectit.unionfind import COMPACTION_RULES, UNION_RULES, UnionFind
from repro.core.components import connected_components
from repro.generators.rmat import rmat_graph
from repro.kernels import loops
from tests.retired_tier import stale_tier

#: Every (compaction, rule) pair.
VARIANTS = list(itertools.product(COMPACTION_RULES, UNION_RULES))

#: Settled-arc mask blocks small enough to cut every oracle case.
SMALL_BLOCKS = (1, 2, 3)


def random_arcs(seed, n, k):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, n, k).astype(np.int64),
        rng.integers(0, n, k).astype(np.int64),
    )


def union_cases(*axes):
    """The product of ``axes`` × stale tier, one ``pytest.param`` each.

    Stale tier None unsets the retired variable and keeps the bare id;
    ``scalar`` and ``compiled`` set it and suffix the id.
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
    with stale_tier(tier):
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
    # the apply_batch contract for edges its findroot pass resolved.
    n = 10
    src = np.array([3, 3, 4], dtype=np.int64)
    dst = np.array([3, 5, 4], dtype=np.int64)
    uf = UnionFind(n, union_rule=rule)
    with stale_tier(tier):
        linked = uf.union_arcs(src, dst, pre_resolved=True)
    assert linked.tolist() == [False, True, False]
    ref = UnionFind(n, union_rule=rule)
    assert ref.union(3, 5)
    ref.counters.unions += 2  # the two resolved pairs: attempts, nothing else
    assert uf.counters == ref.counters
    np.testing.assert_array_equal(uf.parent, ref.parent)


def check_against_union_oracle(n, arcs, rule, comp, tier=None, pre_resolved=False, forest=None):
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
    with stale_tier(tier):
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
        # 4 and 5 hang under root 3 when the block is masked, so both (4, 5)
        # arcs are settled then; (0, 3) hooks 3 below 0 between them, and
        # the second (4, 5) and the (3, 4) after it must run, not be counted.
        "hook-demotes-settled": (6, [(4, 5), (0, 3), (4, 5), (3, 4)], [0, 1, 2, 3, 3, 3]),
    }


SETTLED_CASES = _settled_cases()


@pytest.mark.parametrize("case", SETTLED_CASES)
@pytest.mark.parametrize("comp,rule,tier", union_cases(COMPACTION_RULES, UNION_RULES))
def test_union_arcs_settled_branch_matches_oracle(comp, rule, tier, case):
    n, arcs, forest = SETTLED_CASES[case]
    check_against_union_oracle(n, arcs, rule, comp, tier, forest=forest)


@pytest.mark.parametrize("block", SMALL_BLOCKS)
@pytest.mark.parametrize("case", SETTLED_CASES)
@pytest.mark.parametrize("comp,rule", VARIANTS)
def test_union_arcs_settled_branch_in_small_blocks(monkeypatch, comp, rule, case, block):
    monkeypatch.setattr(unionfind, "_BLOCK", block)
    n, arcs, forest = SETTLED_CASES[case]
    check_against_union_oracle(n, arcs, rule, comp, forest=forest)


#: apply_batch hands over roots: equal ones are attempts and nothing else,
#: unequal ones union as usual — and go stale as the batch hooks them, so
#: later arcs name children and settled pairs too.
ROOT_SPACE_FOREST = np.array([0, 0, 0, 3, 3, 5, 6, 6])
ROOT_SPACE_ARCS = [(0, 0), (3, 3), (0, 3), (3, 0), (5, 5), (5, 6), (6, 5), (6, 6), (3, 6), (0, 6)]


@pytest.mark.parametrize("comp,rule,tier", union_cases(COMPACTION_RULES, UNION_RULES))
def test_union_arcs_pre_resolved_root_space_matches_oracle(comp, rule, tier):
    check_against_union_oracle(
        8, ROOT_SPACE_ARCS, rule, comp, tier, pre_resolved=True, forest=ROOT_SPACE_FOREST
    )


@pytest.mark.parametrize("block", SMALL_BLOCKS)
@pytest.mark.parametrize("comp,rule", VARIANTS)
def test_union_arcs_pre_resolved_root_space_in_small_blocks(monkeypatch, comp, rule, block):
    monkeypatch.setattr(unionfind, "_BLOCK", block)
    check_against_union_oracle(
        8, ROOT_SPACE_ARCS, rule, comp, pre_resolved=True, forest=ROOT_SPACE_FOREST
    )


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    arcs=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=200),
    variant=st.sampled_from(VARIANTS),
    pre_resolved=st.booleans(),
)
def test_hypothesis_union_arcs_matches_oracle_on_colliding_arcs(n, arcs, variant, pre_resolved):
    # A dozen vertices and up to 200 arcs: almost every arc lands on a tree
    # built by the ones before it, which is where the settled branch lives.
    comp, rule = variant
    arcs = [(u % n, v % n) for u, v in arcs]
    check_against_union_oracle(n, arcs, rule, comp, pre_resolved=pre_resolved)


@pytest.mark.parametrize("block", SMALL_BLOCKS)
@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    arcs=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=200),
    variant=st.sampled_from(VARIANTS),
    pre_resolved=st.booleans(),
)
def test_hypothesis_union_arcs_in_small_blocks(block, n, arcs, variant, pre_resolved):
    comp, rule = variant
    arcs = [(u % n, v % n) for u, v in arcs]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(unionfind, "_BLOCK", block)
        check_against_union_oracle(n, arcs, rule, comp, pre_resolved=pre_resolved)


def test_union_arcs_body_is_self_contained():
    # No helper calls and no module globals: every name a pointer chase
    # touches is a local, and UnionFind calls this very object.  ``watch``
    # is a plain argument, indexed like the others.
    assert set(loops.union_arcs.__code__.co_names) <= {"len", "range"}
    assert "watch" in loops.union_arcs.__code__.co_varnames
    assert loops.union_arcs.__globals__ is vars(loops)  # never rebound


def test_sv_components_matches_numpy():
    # The SV sweep is one numpy body: a stale environment naming the
    # deleted tier leaves labels and all three counters as they are with
    # the variable unset.
    for seed in (3, 4, 5):
        g = build_csr(rmat_graph(scale=8, edge_factor=6, seed=seed))
        with stale_tier(None):
            ref = connected_components(g)
        with stale_tier("compiled"):
            stale = connected_components(g)
        np.testing.assert_array_equal(stale.labels, ref.labels)
        assert (stale.n_passes, stale.jump_rounds, stale.arcs_processed) == (
            ref.n_passes,
            ref.jump_rounds,
            ref.arcs_processed,
        )


def test_sv_components_respects_max_passes():
    # The limit stops the sweep after one pass, before the pass that would
    # confirm the labels no longer change.
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
    g = CSRGraph(n, np.cumsum(offsets), dst[order])
    clipped = connected_components(g, max_passes=1)
    full = connected_components(g)
    assert clipped.n_passes == 1 < full.n_passes
    assert full.labels.tolist() == [0] * n
