"""End-to-end integration scenarios crossing module boundaries.

Each test plays through a realistic workflow: generate, ingest through a
dynamic representation, mutate with streams, snapshot, and answer analysis
queries — checking the results against independent references along the way.
"""

import networkx as nx
import numpy as np
import pytest

from repro.adjacency.registry import make_representation
from repro.api import DynamicGraph
from repro.core.bfs import bfs
from repro.core.components import connected_components
from repro.core.connectivity import ConnectivityIndex
from repro.core.update_engine import apply_stream, construct
from repro.generators.rmat import rmat_graph
from repro.generators.reference import to_networkx
from repro.generators.streams import deletion_stream, mixed_stream
from repro.machine.sim import SimulatedMachine
from repro.machine.spec import ULTRASPARC_T2


class TestStreamThenAnalyze:
    """The paper's core workflow: build dynamically, then run kernels."""

    @pytest.mark.parametrize("kind", ["dynarr", "treap", "hybrid"])
    def test_construct_snapshot_analyze(self, kind):
        graph = rmat_graph(9, 8, seed=51, ts_range=(1, 40))
        rep = make_representation(kind, graph.n, **({"seed": 1} if kind != "dynarr" else {}))
        construct(rep, graph)
        csr = rep.to_csr()

        # snapshot must equal the direct CSR of the symmetrised input
        nx_graph = to_networkx(graph, multigraph=True)
        comps = connected_components(csr)
        assert comps.n_components == nx.number_connected_components(
            nx.Graph(nx_graph)
        ) + (graph.n - nx_graph.number_of_nodes())

        res = bfs(csr, 0)
        truth = nx.single_source_shortest_path_length(nx.Graph(nx_graph), 0)
        mine = {v: int(d) for v, d in enumerate(res.dist) if d >= 0}
        assert mine == dict(truth)

    def test_delete_then_connectivity_tracks_truth(self):
        graph = rmat_graph(8, 6, seed=52)
        rep = make_representation("hybrid", graph.n, seed=2)
        construct(rep, graph)
        dels = deletion_stream(graph, 80, seed=3)
        apply_stream(rep, dels)

        csr = rep.to_csr()
        index = ConnectivityIndex.from_csr(csr)

        G = nx.MultiGraph()
        G.add_nodes_from(range(graph.n))
        G.add_edges_from(zip(graph.src.tolist(), graph.dst.tolist()))
        for u, v in zip(dels.src.tolist(), dels.dst.tolist()):
            G.remove_edge(u, v)

        rng = np.random.default_rng(4)
        for _ in range(100):
            u, v = (int(x) for x in rng.integers(0, graph.n, 2))
            assert index.query(u, v) == nx.has_path(G, u, v)

    def test_mixed_stream_state_matches_reference(self):
        graph = rmat_graph(8, 6, seed=53)
        stream = mixed_stream(graph, 300, 0.6, seed=5)
        rep = make_representation("hybrid", graph.n, seed=6)
        construct(rep, graph)
        apply_stream(rep, stream)

        from collections import Counter

        ref = Counter(zip(graph.src.tolist(), graph.dst.tolist()))
        ref.update(zip(graph.dst.tolist(), graph.src.tolist()))
        for o, u, v in zip(stream.op.tolist(), stream.src.tolist(), stream.dst.tolist()):
            pairs = [(u, v), (v, u)]
            for p in pairs:
                if o == 1:
                    ref[p] += 1
                elif ref[p] > 0:
                    ref[p] -= 1
        assert rep.n_arcs == sum(ref.values())


class TestTemporalForensics:
    """Interval snapshots + temporal reachability, the section 3.2/3.3 flow."""

    def test_interval_snapshot_connectivity(self):
        graph = rmat_graph(9, 10, seed=54, ts_range=(1, 100))
        g = DynamicGraph.from_edgelist(graph)
        early = g.induced_interval(0, 34)
        late = g.induced_interval(33, 101)
        assert early.graph.n_arcs + late.graph.n_arcs == 2 * graph.m

        # connectivity of the early window is a subgraph property: any pair
        # connected early is connected in the full graph
        idx_early = ConnectivityIndex.from_csr(early.graph)
        idx_full = g.spanning_forest()
        rng = np.random.default_rng(7)
        for _ in range(60):
            u, v = (int(x) for x in rng.integers(0, g.n, 2))
            if idx_early.query(u, v):
                assert idx_full.query(u, v)

    def test_temporal_bfs_monotone_in_window(self):
        graph = rmat_graph(9, 10, seed=55, ts_range=(1, 100))
        g = DynamicGraph.from_edgelist(graph)
        narrow = g.bfs(0, ts_range=(40, 60))
        wide = g.bfs(0, ts_range=(20, 80))
        # widening the window can only reach more vertices
        assert set(narrow.reached().tolist()) <= set(wide.reached().tolist())


class TestSimulationPipeline:
    """Measured profiles must flow into the simulator coherently."""

    def test_profile_to_machine_time(self):
        graph = rmat_graph(10, 10, seed=56)
        rep = make_representation("dynarr", graph.n, expected_m=2 * graph.m)
        res = construct(rep, graph)
        sim = SimulatedMachine(ULTRASPARC_T2)
        t1 = sim.time(res.profile, 1)
        t64 = sim.time(res.profile, 64)
        assert t1 > t64 > 0
        assert 10 < t1 / t64 < 40

    def test_bigger_stream_costs_more(self):
        small = rmat_graph(8, 6, seed=57)
        big = rmat_graph(10, 6, seed=57)
        sim = SimulatedMachine(ULTRASPARC_T2)
        times = []
        for g in (small, big):
            rep = make_representation("dynarr", g.n, expected_m=2 * g.m)
            res = construct(rep, g)
            times.append(sim.time(res.profile, 64))
        assert times[1] > times[0]

    def test_representation_ordering_for_deletes_at_scale(self):
        """Fig. 5's ordering emerges at paper scale.

        At a 2^10 measured scale Dyn-arr's scans are short enough that it
        can even beat the hybrid; applying the analytically-known probe
        growth to the paper's 2^25 instance must flip the ordering — the
        crux of Figure 5.
        """
        from repro.machine.scale import rmat_size_biased_growth

        graph = rmat_graph(10, 10, seed=58)
        sim = SimulatedMachine(ULTRASPARC_T2)
        dels = deletion_stream(graph, graph.m // 13, seed=9)
        growth = rmat_size_biased_growth(10, 25)
        rates = {}
        for kind in ("dynarr", "hybrid"):
            rep = make_representation(
                kind, graph.n, **({"seed": 3} if kind == "hybrid" else {})
            )
            construct(rep, graph)
            res = apply_stream(
                rep, dels, probe_scale=growth if kind == "dynarr" else 1.0
            )
            rates[kind] = sim.mups_at(res.profile, 64, len(dels))
        assert rates["hybrid"] > 3 * rates["dynarr"]
