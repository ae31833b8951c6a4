"""Tests for the update engine."""

from dataclasses import asdict

import numpy as np
import pytest

from repro import obs
from repro.adjacency.dynarr import DynArrAdjacency
from repro.adjacency.hybrid import HybridAdjacency
from repro.adjacency.registry import REPRESENTATIONS, make_representation
from repro.adjacency.treap import TreapAdjacency
from repro.core.update_engine import _TICKED_STATS, apply_stream, construct, symmetric_arcs
from repro.generators.rmat import rmat_graph
from repro.generators.streams import (
    UpdateStream,
    deletion_stream,
    insertion_stream,
    mixed_stream,
)


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(9, 8, seed=21, ts_range=(1, 50))


class TestApplyStream:
    def test_undirected_doubles_arcs(self, graph):
        rep = DynArrAdjacency(graph.n)
        res = apply_stream(rep, insertion_stream(graph))
        assert res.n_updates == graph.m
        assert res.n_arc_ops == 2 * graph.m
        assert rep.n_arcs == 2 * graph.m

    def test_directed_single_arcs(self, graph):
        rep = DynArrAdjacency(graph.n)
        res = apply_stream(rep, insertion_stream(graph), undirected=False)
        assert res.n_arc_ops == graph.m
        assert rep.n_arcs == graph.m

    def test_symmetry_after_undirected_insert(self, graph):
        rep = DynArrAdjacency(graph.n)
        apply_stream(rep, insertion_stream(graph))
        for u, v in list(zip(graph.src.tolist(), graph.dst.tolist()))[:50]:
            assert rep.has_arc(u, v) and rep.has_arc(v, u)

    def test_deletions_remove_both_arcs(self, graph):
        rep = DynArrAdjacency(graph.n)
        apply_stream(rep, insertion_stream(graph))
        dels = deletion_stream(graph, 50, seed=1)
        res = apply_stream(rep, dels)
        assert res.misses == 0
        assert rep.n_arcs == 2 * (graph.m - 50)

    def test_misses_counted(self):
        g = rmat_graph(6, 4, seed=2)
        rep = DynArrAdjacency(g.n)
        stream = UpdateStream(
            g.n,
            np.array([-1], dtype=np.int8),
            np.array([0]),
            np.array([1]),
            np.array([0]),
        )
        res = apply_stream(rep, stream)
        assert res.misses == 2  # both arc deletes missed

    def test_vertex_count_mismatch(self, graph):
        rep = DynArrAdjacency(graph.n + 1)
        with pytest.raises(ValueError):
            apply_stream(rep, insertion_stream(graph))

    def test_profile_metadata(self, graph):
        rep = DynArrAdjacency(graph.n)
        res = apply_stream(rep, insertion_stream(graph), phase_name="construction")
        assert res.profile.name == "construction"
        assert res.profile.meta["n_updates"] == graph.m
        assert res.profile.meta["representation"] == "dynarr"

    @pytest.mark.parametrize(
        "make",
        [
            DynArrAdjacency,
            lambda n: HybridAdjacency(n, seed=1),
            lambda n: TreapAdjacency(n, seed=1),
        ],
        ids=["dynarr", "hybrid", "treap"],
    )
    def test_vectorised_meta_reports_the_path_that_ran(self, graph, make):
        # Every kind applies a stream as one batch, so the flag says whether
        # the stream held an arc; the profile does not carry it.
        res = apply_stream(make(graph.n), mixed_stream(graph, 500, 0.5, seed=3))
        assert res.meta["vectorised"] is True
        assert "vectorised" not in res.profile.meta
        empty = UpdateStream(graph.n, np.empty(0, np.int8), np.empty(0), np.empty(0), np.empty(0))
        assert apply_stream(make(graph.n), empty).meta["vectorised"] is False

    @pytest.mark.parametrize("kind", sorted(REPRESENTATIONS))
    def test_stream_counters_reach_the_registry(self, graph, kind):
        # The registry's adjacency.<kind>.* deltas over one stream are the
        # per-op reference's counters for that stream, on every kind; on the
        # dyn-arr family, probe_scale scales the probe words the profile
        # charges.
        base, stream = insertion_stream(graph), mixed_stream(graph, 400, 0.5, seed=5)
        ends = np.concatenate([base.src, base.dst, stream.src, stream.dst])
        extra = {"degrees": np.bincount(ends, minlength=graph.n)} if kind == "dynarr-nr" else {}
        op = np.repeat(stream.op, 2)
        src, dst, ts = symmetric_arcs(stream.src, stream.dst, stream.ts)

        ref = make_representation(kind, graph.n, **extra)
        base_arcs = symmetric_arcs(base.src, base.dst, base.ts)
        ref.apply_arcs_scalar(np.ones(2 * graph.m, np.int8), *base_arcs)
        ref.reset_stats()
        ref_misses = ref.apply_arcs_scalar(op, src, dst, ts)
        want = asdict(ref.combined_stats() if kind == "hybrid" else ref.stats)

        rep = make_representation(kind, graph.n, **extra)
        apply_stream(rep, base)
        start = obs.METRICS.snapshot()["counters"]
        res = apply_stream(rep, stream)
        now = obs.METRICS.snapshot()["counters"]
        got = {f: now.get(f"adjacency.{kind}.{f}", 0) - start.get(f"adjacency.{kind}.{f}", 0)
               for f in _TICKED_STATS}
        assert got["inserts"] == int((op == 1).sum())
        assert got == {f: want[f] for f in _TICKED_STATS}
        assert res.misses == ref_misses

        if kind in ("dynarr", "dynarr-nr", "vpart", "epart", "batched"):
            scaled_rep = make_representation(kind, graph.n, **extra)
            apply_stream(scaled_rep, base)
            scaled = apply_stream(scaled_rep, stream, probe_scale=3.0)
            words = want["probe_words"]
            assert words > 0 and scaled_rep.stats.probe_words == 3 * words
            extra_bytes = scaled.profile.phases[0].seq_bytes - res.profile.phases[0].seq_bytes
            assert extra_bytes == 8.0 * 2 * words

    def test_hot_stats_from_arc_sources(self, graph):
        rep = DynArrAdjacency(graph.n)
        res = apply_stream(rep, insertion_stream(graph))
        deg = np.bincount(graph.src, minlength=graph.n) + np.bincount(
            graph.dst, minlength=graph.n
        )
        assert res.hot.max_addr_ops == int(deg.max())

    def test_reset_stats_scopes_profile(self, graph):
        rep = DynArrAdjacency(graph.n)
        apply_stream(rep, insertion_stream(graph))
        dels = deletion_stream(graph, 10, seed=1)
        res = apply_stream(rep, dels, phase_name="deletions")
        # profile covers only the deletions, not construction
        assert res.profile.phases[0].atomics == pytest.approx(20.0)

    def test_probe_scale(self, graph):
        rep1 = DynArrAdjacency(graph.n)
        rep2 = DynArrAdjacency(graph.n)
        apply_stream(rep1, insertion_stream(graph))
        apply_stream(rep2, insertion_stream(graph))
        dels = deletion_stream(graph, 40, seed=3)
        plain = apply_stream(rep1, dels)
        scaled = apply_stream(rep2, dels, probe_scale=10.0)
        assert scaled.profile.phases[0].seq_bytes > 5 * plain.profile.phases[0].seq_bytes

    def test_probe_scale_negative_rejected(self, graph):
        rep = DynArrAdjacency(graph.n)
        with pytest.raises(ValueError):
            apply_stream(rep, insertion_stream(graph), probe_scale=-1.0)


class TestConstruct:
    def test_equivalent_to_insertion_stream(self, graph):
        a = DynArrAdjacency(graph.n)
        b = DynArrAdjacency(graph.n)
        construct(a, graph)
        apply_stream(b, insertion_stream(graph))
        assert a.n_arcs == b.n_arcs
        for u in range(0, graph.n, 37):
            assert sorted(a.neighbors(u).tolist()) == sorted(b.neighbors(u).tolist())

    def test_shuffle_changes_order_not_content(self, graph):
        a = DynArrAdjacency(graph.n)
        construct(a, graph, shuffle=True, seed=5)
        assert a.n_arcs == 2 * graph.m

    def test_hybrid_construction(self, graph):
        rep = HybridAdjacency(graph.n, seed=1)
        res = construct(rep, graph)
        assert rep.n_arcs == 2 * graph.m
        assert res.profile.phases[0].locks > 0  # treap side active

    def test_mixed_stream_end_state(self, graph):
        rep = DynArrAdjacency(graph.n)
        construct(rep, graph)
        stream = mixed_stream(graph, 200, 0.5, seed=7)
        before = rep.n_arcs
        res = apply_stream(rep, stream)
        # inserts add 2 arcs each; successful deletes remove 2 each
        expected = before + 2 * stream.n_inserts - (2 * stream.n_deletes - res.misses)
        assert rep.n_arcs == expected
