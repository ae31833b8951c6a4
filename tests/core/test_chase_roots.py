"""The vectorised root chase against the per-query chase it must equal.

``chase_roots`` carries a shrinking index of the chains still below a root;
:meth:`LinkCutForest.findroot` chases one query at a time.  Same roots, same
summed hops, and the caller's array is left alone.
"""

import numpy as np
import pytest

from repro.core.linkcut import LinkCutForest, chase_roots


def path_forest(n):
    """0 <- 1 <- ... <- n-1: vertex v sits at depth v."""
    return np.arange(-1, n - 1, dtype=np.int64)


def random_forest(n, seed):
    """Each vertex points at a smaller id or is a root: acyclic, mixed depths."""
    rng = np.random.default_rng(seed)
    parent = np.array([rng.integers(-1, v) if v else -1 for v in range(n)], dtype=np.int64)
    return parent


def per_query(forest, queries):
    """Roots and summed hops of ``findroot`` called once per query."""
    before = forest.hops
    roots = [forest.findroot(int(v)) for v in queries]
    return np.array(roots, dtype=np.int64), forest.hops - before


CASES = {
    "deep path": (path_forest(300), np.array([299, 0, 150, 299, 1])),
    "all roots": (np.full(50, -1, dtype=np.int64), np.arange(50)),
    "empty batch": (path_forest(10), np.empty(0, dtype=np.int64)),
    "repeated endpoints": (random_forest(200, 1), np.repeat([199, 7, 199, 0], 25)),
    "random": (random_forest(500, 2), np.random.default_rng(2).integers(0, 500, 4000)),
}


@pytest.mark.parametrize("case", CASES)
def test_vectorised_chase_equals_scalar_loop(case):
    parent, queries = CASES[case]
    queries = queries.astype(np.int64)
    kept = queries.copy()
    forest = LinkCutForest(parent.size)
    forest.parent[:] = parent
    want, want_hops = per_query(forest, queries)
    roots, hops = chase_roots(parent, queries)
    np.testing.assert_array_equal(roots, want)
    assert hops == want_hops
    np.testing.assert_array_equal(queries, kept)
    assert roots is not queries
    assert np.all(parent[roots] == -1)


def test_depths_counts_the_same_chase():
    parent = random_forest(400, 3)
    forest = LinkCutForest(parent.size)
    forest.parent[:] = parent
    every = np.arange(parent.size, dtype=np.int64)
    assert int(forest.depths().sum()) == chase_roots(parent, every)[1]
    np.testing.assert_array_equal(LinkCutForest(1).depths(), [0])
    forest.parent[:] = path_forest(parent.size)
    np.testing.assert_array_equal(forest.depths(), every)
