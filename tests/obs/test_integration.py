"""Integration: the instrumented library emits the expected spans/counters."""

import numpy as np
import pytest

from repro import obs
from repro.api import DynamicGraph
from repro.core.connectivity import ConnectivityIndex
from repro.core.update_engine import apply_stream
from repro.adjacency.registry import make_representation
from repro.generators.streams import mixed_stream
from repro.machine.sim import SimulatedMachine


@pytest.fixture
def graph_and_stream(small_rmat):
    g = DynamicGraph.from_edgelist(small_rmat, representation="hybrid")
    stream = mixed_stream(small_rmat, 500, insert_frac=0.75, seed=2)
    return g, stream


class TestApplyStreamSpans:
    def test_span_chain_api_to_representation(self, tracer, graph_and_stream):
        g, stream = graph_and_stream
        g.apply(stream)
        events = {e["name"]: e for e in tracer.sink.events}
        api = events["api.apply"]
        eng = events["update_engine.apply_stream"]
        rep = events["adjacency.hybrid.apply_arcs"]
        # API -> update engine -> representation, properly nested.
        assert api["parent_id"] is None
        assert eng["parent_id"] == api["span_id"]
        assert rep["parent_id"] == eng["span_id"]

    def test_span_attrs(self, tracer, graph_and_stream):
        g, stream = graph_and_stream
        res = g.apply(stream)
        events = {e["name"]: e for e in tracer.sink.events}
        eng = events["update_engine.apply_stream"]["attrs"]
        assert eng["representation"] == "hybrid"
        assert eng["n_updates"] == len(stream)
        assert eng["n_arc_ops"] == res.n_arc_ops
        assert eng["misses"] == res.misses
        assert eng["host_seconds"] > 0

    def test_counters_ticked(self, graph_and_stream):
        g, stream = graph_and_stream
        res = g.apply(stream)
        snap = obs.METRICS.snapshot()["counters"]
        assert snap["update_engine.streams"] == 1
        assert snap["update_engine.arc_ops"] == res.n_arc_ops
        # The hybrid splits counters over its sub-structures; the registry
        # sees the merged view.
        assert snap["adjacency.hybrid.inserts"] == g.rep.combined_stats().inserts > 0
        gauges = obs.METRICS.snapshot()["gauges"]
        assert gauges["adjacency.hybrid.live_arcs"] == g.rep.n_arcs

    def test_counters_accumulate_across_streams(self, small_rmat):
        rep = make_representation("dynarr", small_rmat.n)
        s1 = mixed_stream(small_rmat, 100, insert_frac=1.0, seed=1)
        s2 = mixed_stream(small_rmat, 100, insert_frac=1.0, seed=2)
        apply_stream(rep, s1)
        apply_stream(rep, s2)
        snap = obs.METRICS.snapshot()["counters"]
        assert snap["update_engine.streams"] == 2
        assert snap["update_engine.arc_ops"] == 400  # 2 * 100 updates * 2 arcs

    def test_counters_tick_each_stream_once_without_reset(self, small_rmat):
        # With reset_stats=False the structure's counters run on across
        # streams; the registry must still get each stream's work once.
        rep = make_representation("dynarr", small_rmat.n)
        seen = []
        for seed in range(3):
            stream = mixed_stream(small_rmat, 50, insert_frac=1.0, seed=seed)
            apply_stream(rep, stream, reset_stats=False)
            seen.append(obs.METRICS.snapshot()["counters"]["adjacency.dynarr.inserts"])
        assert seen == [100, 200, 300] and rep.stats.inserts == 300

    def test_connectivity_batches_tick_the_merged_stats(self, small_rmat):
        # ConnectivityIndex.apply_batch applies without a reset, on the
        # hybrid's merged counters.  Its has_arc checks after the stream
        # probe outside any stream, so only the update counters compare.
        g = DynamicGraph.from_edgelist(small_rmat, representation="hybrid")
        index = ConnectivityIndex.from_rep(g.rep)
        obs.METRICS.reset()
        start = g.rep.combined_stats()
        for seed in range(3):
            index.apply_batch(mixed_stream(small_rmat, 200, insert_frac=0.75, seed=seed))
        now, snap = g.rep.combined_stats(), obs.METRICS.snapshot()["counters"]
        for name in ("inserts", "deletes", "resize_events", "migrations", "migration_words"):
            assert snap[f"adjacency.hybrid.{name}"] == getattr(now, name) - getattr(start, name)
        assert now.inserts > start.inserts and now.deletes > start.deletes

    def test_profile_meta_carries_manifest(self, graph_and_stream):
        g, stream = graph_and_stream
        res = g.apply(stream)
        assert res.profile.meta["manifest_id"] == obs.ensure_manifest().id


class TestKernelSpans:
    def test_spanning_forest_span_tree(self, tracer, graph_and_stream):
        g, _ = graph_and_stream
        g.spanning_forest()
        events = {e["name"]: e for e in tracer.sink.events}
        sf = events["api.spanning_forest"]
        assert events["api.snapshot"]["parent_id"] == sf["span_id"]
        assert events["connectivity.from_csr"]["parent_id"] == sf["span_id"]
        assert obs.METRICS.counter("connectivity.forests_built").value == 1
        # The link-cut build's traversal is not a BFS query: no bfs.* ticks.
        counters = obs.METRICS.snapshot()["counters"]
        assert not any(counters[k] for k in counters if k.startswith("bfs."))

    def test_bfs_spans_and_counters(self, tracer, graph_and_stream):
        g, _ = graph_and_stream
        res = g.bfs(0)
        events = {e["name"]: e for e in tracer.sink.events}
        core = events["core.bfs"]
        assert core["parent_id"] == events["api.bfs"]["span_id"]
        assert core["attrs"]["levels"] == res.n_levels
        assert core["attrs"]["reached"] == res.n_reached
        snap = obs.METRICS.snapshot()["counters"]
        assert snap["bfs.runs"] == 1
        assert snap["bfs.edges_scanned"] == res.total_edges_scanned
        # The snapshot of an undirected graph pulls its wide levels.
        assert 0 < res.arcs_touched < res.total_edges_scanned
        assert core["attrs"]["arcs_touched"] == snap["bfs.arcs_touched"] == res.arcs_touched

    def test_connectivity_queries_counters(self, tracer, graph_and_stream):
        g, _ = graph_and_stream
        index = g.spanning_forest()
        res = index.random_query_batch(200, seed=3)
        events = {e["name"]: e for e in tracer.sink.events}
        assert events["connectivity.query_batch"]["attrs"]["hops"] == res.total_hops
        snap = obs.METRICS.snapshot()["counters"]
        assert snap["connectivity.queries"] == 200
        assert snap["connectivity.hops"] == res.total_hops

    def test_snapshot_cache_metrics(self, graph_and_stream):
        g, _ = graph_and_stream
        g.snapshot()
        g.snapshot()
        snap = obs.METRICS.snapshot()["counters"]
        assert snap["api.snapshot_rebuilds"] == 1
        assert snap["api.snapshot_cache_hits"] == 1


class TestSimulatorSpans:
    def test_sweep_span_and_counters(self, tracer, graph_and_stream):
        g, stream = graph_and_stream
        res = g.apply(stream)
        sim = SimulatedMachine("t2")
        scaling = sim.sweep(res.profile, (1, 4, 16), n_items=res.n_updates)
        events = {e["name"]: e for e in tracer.sink.events}
        attrs = events["sim.sweep"]["attrs"]
        assert attrs["machine"] == "UltraSPARC T2"
        assert attrs["sim_seconds"] == pytest.approx(min(scaling.seconds))
        assert attrs["mups"] > 0
        assert obs.METRICS.counter("sim.evaluations").value == 3
        assert obs.METRICS.counter("sim.cache_misses").value >= 0

    def test_scaling_result_meta_manifest(self, graph_and_stream):
        g, stream = graph_and_stream
        res = g.apply(stream)
        scaling = SimulatedMachine("t1").sweep(res.profile, (1, 2))
        assert scaling.meta["manifest_id"] == obs.ensure_manifest().id


class TestDisabledModeIsInert:
    def test_no_events_and_identical_results(self, small_rmat):
        assert not obs.tracing_enabled()
        rep_a = make_representation("dynarr", small_rmat.n)
        rep_b = make_representation("dynarr", small_rmat.n)
        stream = mixed_stream(small_rmat, 300, insert_frac=0.8, seed=5)
        res_a = apply_stream(rep_a, stream)

        sink = obs.MemorySink()
        obs.enable_tracing(sink)
        res_b = apply_stream(rep_b, stream)
        obs.disable_tracing()

        # Tracing changes observability, never results.
        assert res_a.n_arc_ops == res_b.n_arc_ops
        assert res_a.misses == res_b.misses
        assert rep_a.n_arcs == rep_b.n_arcs
        np.testing.assert_array_equal(rep_a.neighbors(0), rep_b.neighbors(0))
        assert len(sink.events) == 2  # engine + representation spans
