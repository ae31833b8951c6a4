"""Copies of one arc: every structure deletes the oldest.

Treaps keep equal keys in arrival order and a delete removes the leftmost
(oldest) copy, dyn-arr's rule (it tombstones the first match in slot order).
So deleting one copy of a multi-edge whose copies carry different stamps
removes the same stamp from ``u -> v`` and from ``v -> u``, on the per-op
loop, on the fused run and after a bulk build, and on both sides of the
hybrid.  Which copy goes must not depend on priorities: the two
directions' treaps draw different ones, and the snapshot would stop being
its own transpose.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adjacency.dynarr import DynArrAdjacency
from repro.adjacency.registry import REPRESENTATIONS, make_representation
from repro.adjacency.treap import TreapAdjacency
from repro.api import DynamicGraph
from repro.core.update_engine import symmetric_arcs
from repro.generators.streams import UpdateStream

#: ``(op, u, v, ts)``: five self-loop copies on 0, an edge {0, 2} stamped 1,
#: three more self-loops, the edge {2, 0} stamped 0, then one delete of
#: {0, 2}: both directions must lose the copy stamped 1, the oldest.
REPRODUCER = (
    [(1, 0, 0, 0)] * 5 + [(1, 0, 2, 1)] + [(1, 0, 0, 0)] * 3 + [(1, 2, 0, 0), (-1, 0, 2, 0)]
)

#: Edges between two vertices the reproducer never touches: a batch's worth
#: of arcs elsewhere in the graph.
PADDING = [(1, 5, 6, 7)] * 48

KINDS = {"treap": {}, "hybrid": {"degree_thresh": 1}}


def stream(rows) -> UpdateStream:
    op, u, v, ts = (np.array(col, dtype=np.int64) for col in zip(*rows))
    return UpdateStream(8, op.astype(np.int8), u, v, ts)


def arcs(csr) -> list[tuple[int, int, int]]:
    """The snapshot as a sorted multiset of ``(u, v, ts)``."""
    src = np.repeat(np.arange(csr.n), csr.degrees()).tolist()
    return sorted(zip(src, csr.targets.tolist(), csr.ts.tolist()))


def assert_own_transpose(csr):
    assert arcs(csr) == sorted((v, u, t) for u, v, t in arcs(csr))


@pytest.mark.parametrize("path", ["per-op", "fused", "build"])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_reproducer_deletes_the_same_copy_both_ways(kind, path):
    for seed in range(40):
        if path == "build":
            # ``from_edges`` writes both arcs of each edge in turn, as
            # ``apply`` does, through ``bulk_insert``: every treap is built
            # whole.
            _, u, v, ts = zip(*REPRODUCER[:-1] + PADDING)
            g = DynamicGraph.from_edges(8, u, v, ts, representation=kind, seed=seed, **KINDS[kind])
            g.apply(stream(REPRODUCER[-1:]))
        elif path == "fused":
            g = DynamicGraph(8, kind, seed=seed, **KINDS[kind])
            g.apply(stream(REPRODUCER + PADDING))
        else:
            # The per-edge API, both arcs of each edge in turn.
            g = DynamicGraph(8, kind, seed=seed, **KINDS[kind])
            for op, u, v, ts in REPRODUCER:
                g.insert_edge(u, v, ts) if op == 1 else g.delete_edge(u, v)
        csr = g.snapshot()
        assert_own_transpose(csr)
        assert [t for u, v, t in arcs(csr) if (u, v) == (0, 2)] == [0], seed


def test_paths_reach_the_bulk_kernels(monkeypatch):
    """The per-op case runs the per-op methods alone; the fused and build
    cases, however few their arcs, never enter them."""
    calls = []
    for cls, name in [(DynArrAdjacency, "insert"), (DynArrAdjacency, "delete"),
                      (TreapAdjacency, "insert"), (TreapAdjacency, "delete"),
                      (TreapAdjacency, "_apply_run"), (TreapAdjacency, "_build_run")]:
        def spy(self, *args, _orig=getattr(cls, name), _name=name):
            calls.append(_name)
            return _orig(self, *args)
        monkeypatch.setattr(cls, name, spy)
    for kind in sorted(KINDS):
        for path in ("per-op", "fused", "build"):
            calls.clear()
            g = DynamicGraph(8, kind, seed=1, **KINDS[kind])
            if path == "per-op":
                for op, u, v, ts in REPRODUCER:
                    g.insert_edge(u, v, ts) if op == 1 else g.delete_edge(u, v)
                # (A hybrid's per-op migration moves a block as one run.)
                assert {"insert", "delete"} <= set(calls) <= {"insert", "delete", "_apply_run"}
                continue
            if path == "build":
                _, u, v, ts = zip(*REPRODUCER[:-1])
                g.rep.bulk_insert(*symmetric_arcs(*map(np.asarray, (u, v, ts))))
            else:
                g.apply(stream(REPRODUCER))
            assert calls and not {"insert", "delete"} & set(calls), (kind, path, calls)


@pytest.mark.parametrize("padded", [False, True], ids=["per-op", "bulk"])
@pytest.mark.parametrize("kind", sorted(REPRESENTATIONS))
def test_one_edge_written_both_ways_through_from_edges(kind, padded):
    """Two copies of one edge in opposite orientations with different
    stamps, ``(0, 2, ts=1)`` then ``(2, 0, ts=0)``, built through
    ``from_edges`` (``bulk``, padded to 48 edges) or through the per-op
    ``bulk_insert_scalar``: both endpoints hold them in one arrival order,
    so one delete leaves a snapshot that is its own transpose, stamps
    included."""
    edges = [(0, 2, 1), (2, 0, 0)] + [(5, 6, 7)] * (48 if padded else 0)
    u, v, ts = zip(*edges)
    kw = {"degrees": np.full(8, 2 * len(edges))} if kind == "dynarr-nr" else {}
    if padded:
        g = DynamicGraph.from_edges(8, u, v, ts, representation=kind, **kw)
    else:
        g = DynamicGraph(8, kind, **kw)
        g.rep.bulk_insert_scalar(*symmetric_arcs(*map(np.asarray, (u, v, ts))))
    assert g.delete_edge(0, 2)
    csr = g.snapshot()
    assert_own_transpose(csr)
    assert [t for a, b, t in arcs(csr) if (a, b) == (0, 2)] == [0]


#: Stamped multigraph streams: three vertices, so most arcs are parallel
#: copies; the stamp is the arc's arrival index, so all stamps differ.
multigraph = st.lists(
    st.lists(
        st.tuples(st.sampled_from([1, 1, -1]), st.integers(0, 2), st.integers(0, 2)),
        min_size=1,
        max_size=70,
    ),
    min_size=1,
    max_size=4,
)


@pytest.mark.parametrize("entry", ["apply_arcs_scalar", "apply_arcs"], ids=["cut", "bulk"])
@settings(max_examples=40, deadline=None)
@given(batches=multigraph, seed=st.integers(0, 3))
def test_multigraph_streams_match_dynarr(batches, seed, entry):
    """``treap`` and ``hybrid`` snapshots equal dyn-arr's as ``(u, v, ts)``
    multisets after every batch, through the batch path (``bulk``) and the
    per-op reference (``cut``, the path small batches once took)."""
    reps = [
        make_representation("dynarr", 3),
        make_representation("treap", 3, seed=seed),
        make_representation("hybrid", 3, seed=seed, degree_thresh=2),
    ]
    stamp = 0
    for batch in batches:
        op, u, v = (np.array(col, dtype=np.int64) for col in zip(*batch))
        ts = np.arange(stamp, stamp + op.size)
        stamp += op.size
        misses = [getattr(rep, entry)(op.astype(np.int8), u, v, ts) for rep in reps]
        assert misses[1:] == misses[:-1]
        want = arcs(reps[0].to_csr())
        for rep in reps[1:]:
            assert arcs(rep.to_csr()) == want, rep.kind
