"""Query batches answered from one whole-forest resolve.

``LinkCutForest.connected_batch`` resolves every vertex's root and depth once
when the batch has at least as many endpoints as the forest has vertices,
and chases the endpoints otherwise.  Both sides of that cut must answer as
the per-pair ``connected`` does and advance ``hops`` by the per-pair
``findroot`` hop sum; ``hops_chased`` shows which side ran: the resolve
walks every vertex's depth, the chase only the endpoints'.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.linkcut import LinkCutForest
from repro.errors import GraphError, VertexError


def copy_of(forest):
    ref = LinkCutForest(forest.n)
    ref.parent[:] = forest.parent
    return ref


def path_forest(n):
    """One path 0 <- 1 <- ... <- n-1: depths 0..n-1."""
    forest = LinkCutForest(n)
    forest.parent[1:] = np.arange(n - 1)
    return forest


def assert_batch_matches_per_pair(forest, us, vs):
    ref = copy_of(forest)
    want = [ref.connected(int(u), int(v)) for u, v in zip(us, vs)]
    depth_sum = int(forest.depths().sum())
    hops, chased = forest.hops, forest.hops_chased
    got = forest.connected_batch(us, vs)
    assert got.dtype == bool and got.tolist() == want
    assert forest.hops - hops == ref.hops
    resolved = forest.resolves(us.size)
    assert forest.hops_chased - chased == (depth_sum if resolved else ref.hops)


def assert_both_sides_of_the_cut(forest, seed):
    q = math.ceil(forest.n / 2)
    assert forest.resolves(q) and not forest.resolves(q - 1)
    rng = np.random.default_rng(seed)
    for k in (q, q - 1):
        us, vs = rng.integers(0, forest.n, size=(2, k))
        assert_batch_matches_per_pair(forest, us, vs)


@st.composite
def forests(draw):
    """Forests grown by random ``link`` / ``cut`` / ``reroot`` sequences."""
    n = draw(st.integers(min_value=1, max_value=40))
    forest = LinkCutForest(n)
    vertex = st.integers(0, n - 1)
    for kind, a, b in draw(st.lists(st.tuples(st.sampled_from("lcr"), vertex, vertex),
                                    max_size=120)):
        if kind == "l" and forest.is_root(a) and forest.findroot(b) != a:
            forest.link(a, b)
        elif kind == "c" and not forest.is_root(a):
            forest.cut(a)
        elif kind == "r":
            forest.reroot(a)
    return forest


@settings(max_examples=60, deadline=None)
@given(forest=forests(), seed=st.integers(0, 2**16))
def test_random_forests_on_both_sides_of_the_cut(forest, seed):
    assert_both_sides_of_the_cut(forest, seed)


@pytest.mark.parametrize("n", [300, 301, 1200])
def test_paths_deeper_than_a_byte(n):
    # Depth 299 needs 9 bits and 1199 needs 11, so the packed depth field
    # is wider than 8 bits; even n puts ceil(n/2) pairs exactly on the cut.
    forest = path_forest(n)
    assert int(forest.depths().max()).bit_length() > 8
    assert_both_sides_of_the_cut(forest, seed=n)


@pytest.mark.parametrize("bad", [-1, 300])
@pytest.mark.parametrize("k", [150, 149])
def test_out_of_range_endpoint_raises_on_both_paths(bad, k):
    forest = path_forest(300)
    us = np.zeros(k, dtype=np.int64)
    vs = np.ones(k, dtype=np.int64)
    vs[-1] = bad
    with pytest.raises(VertexError):
        forest.connected_batch(us, vs)
    with pytest.raises(VertexError):
        forest.connected_batch(vs, us)


def test_empty_batches_and_shape_errors():
    assert LinkCutForest(0).connected_batch([], []).size == 0
    assert path_forest(4).connected_batch([], []).size == 0
    with pytest.raises(GraphError):
        path_forest(4).connected_batch([0, 1], [0])


def test_whole_forest_users_share_the_resolve():
    forest = LinkCutForest(6)
    forest.link(1, 0)
    forest.link(2, 1)
    forest.link(4, 3)
    counted = forest.hops, forest.hops_chased
    roots, depth = forest.resolve()
    assert roots.tolist() == [0, 0, 0, 3, 3, 5]
    assert depth.tolist() == [0, 1, 2, 0, 1, 0]
    np.testing.assert_array_equal(forest.depths(), depth)
    assert forest.tree_vertices(2).tolist() == [0, 1, 2]
    assert (forest.hops, forest.hops_chased) == counted  # the resolve counts no hops
