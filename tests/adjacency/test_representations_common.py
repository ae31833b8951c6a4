"""Conformance tests every representation must pass (parametrised).

A plain Python dict-of-multisets serves as the reference model; every
structure is driven through the same operation sequences and must agree on
degrees, neighbour multisets, membership and arc counts.
"""

from collections import Counter

import numpy as np
import pytest

from repro.adjacency.registry import make_representation
from repro.errors import VertexError

KINDS = ["dynarr", "dynarr-nr", "treap", "hybrid", "vpart", "epart", "batched"]
N = 12


def build(kind, n=N):
    if kind == "dynarr-nr":
        # generous capacities so the no-resize variant can absorb any test stream
        return make_representation(kind, n, degrees=np.full(n, 512))
    if kind == "hybrid":
        return make_representation(kind, n, degree_thresh=4, seed=1)
    if kind == "treap":
        return make_representation(kind, n, seed=1)
    return make_representation(kind, n)


class Model:
    """Reference dict-of-multiset adjacency."""

    def __init__(self, n):
        self.adj = [Counter() for _ in range(n)]

    def insert(self, u, v):
        self.adj[u][v] += 1

    def delete(self, u, v):
        if self.adj[u][v] > 0:
            self.adj[u][v] -= 1
            if self.adj[u][v] == 0:
                del self.adj[u][v]
            return True
        return False

    def degree(self, u):
        return sum(self.adj[u].values())

    def neighbors(self, u):
        return sorted(self.adj[u].elements())

    def n_arcs(self):
        return sum(self.degree(u) for u in range(len(self.adj)))


def run_ops(rep, model, ops):
    for kind, u, v in ops:
        if kind == "i":
            rep.insert(u, v)
            model.insert(u, v)
        else:
            assert rep.delete(u, v) == model.delete(u, v)


def assert_agree(rep, model):
    assert rep.n_arcs == model.n_arcs()
    for u in range(rep.n):
        assert rep.degree(u) == model.degree(u), f"degree mismatch at {u}"
        assert sorted(rep.neighbors(u).tolist()) == model.neighbors(u)
        unordered = rep._targets_unordered(u)  # what a cut's search reads
        assert unordered.dtype == np.int64 and sorted(unordered.tolist()) == model.neighbors(u)
        copies = [rep.multiplicity(u, v) for v in range(rep.n)]
        assert copies == [model.adj[u][v] for v in range(rep.n)], f"copies at {u}"


@pytest.mark.parametrize("kind", KINDS)
class TestConformance:
    def test_insert_only(self, kind):
        rep, model = build(kind), Model(N)
        rng = np.random.default_rng(10)
        ops = [("i", int(u), int(v)) for u, v in
               zip(rng.integers(0, N, 200), rng.integers(0, N, 200))]
        run_ops(rep, model, ops)
        assert_agree(rep, model)

    def test_mixed_ops(self, kind):
        rep, model = build(kind), Model(N)
        rng = np.random.default_rng(11)
        ops = []
        for _ in range(400):
            u, v = int(rng.integers(0, N)), int(rng.integers(0, N))
            ops.append(("i" if rng.random() < 0.65 else "d", u, v))
        run_ops(rep, model, ops)
        assert_agree(rep, model)

    def test_delete_everything(self, kind):
        rep, model = build(kind), Model(N)
        rng = np.random.default_rng(12)
        pairs = [(int(u), int(v)) for u, v in
                 zip(rng.integers(0, N, 100), rng.integers(0, N, 100))]
        run_ops(rep, model, [("i", u, v) for u, v in pairs])
        run_ops(rep, model, [("d", u, v) for u, v in pairs])
        assert rep.n_arcs == 0
        assert_agree(rep, model)

    def test_bulk_insert_agrees(self, kind):
        rep, model = build(kind), Model(N)
        rng = np.random.default_rng(13)
        src = rng.integers(0, N, 150)
        dst = rng.integers(0, N, 150)
        rep.bulk_insert(src, dst)
        for u, v in zip(src.tolist(), dst.tolist()):
            model.insert(u, v)
        assert_agree(rep, model)

    def test_apply_arcs_agrees(self, kind):
        rep, model = build(kind), Model(N)
        rng = np.random.default_rng(14)
        k = 300
        src = rng.integers(0, N, k)
        dst = rng.integers(0, N, k)
        op = np.where(rng.random(k) < 0.7, 1, -1).astype(np.int8)
        rep.apply_arcs(op, src, dst)
        for o, u, v in zip(op.tolist(), src.tolist(), dst.tolist()):
            if o == 1:
                model.insert(u, v)
            else:
                model.delete(u, v)
        assert_agree(rep, model)

    def test_to_arrays_roundtrip(self, kind):
        rep, model = build(kind), Model(N)
        rng = np.random.default_rng(15)
        for u, v in zip(rng.integers(0, N, 80), rng.integers(0, N, 80)):
            rep.insert(int(u), int(v), ts=int(u + v))
            model.insert(int(u), int(v))
        src, dst, ts = rep.to_arrays()
        assert len(src) == model.n_arcs()
        got = Counter(zip(src.tolist(), dst.tolist()))
        want = Counter()
        for u in range(N):
            for v, c in model.adj[u].items():
                want[(u, v)] = c
        assert got == want

    def test_vertex_validation(self, kind):
        rep = build(kind)
        with pytest.raises(VertexError):
            rep.insert(N, 0)
        with pytest.raises(VertexError):
            rep.delete(0, N)
        with pytest.raises(VertexError):
            rep.degree(-1)

    def test_degrees_vector(self, kind):
        rep = build(kind)
        rep.insert(0, 1)
        rep.insert(0, 2)
        rep.insert(3, 1)
        deg = rep.degrees()
        assert deg.tolist()[:4] == [2, 0, 0, 1]

    def test_phase_builds(self, kind):
        rep = build(kind)
        rng = np.random.default_rng(16)
        for u, v in zip(rng.integers(0, N, 50), rng.integers(0, N, 50)):
            rep.insert(int(u), int(v))
        ph = rep.phase("construction")
        assert ph.footprint_bytes > 0
        assert ph.alu_ops > 0

    def test_stats_reset(self, kind):
        rep = build(kind)
        rep.insert(0, 1)
        rep.reset_stats()
        assert rep.stats.inserts == 0
