"""Tests for the Vpart and Epart execution-scheme representations."""

import numpy as np
import pytest

from repro.adjacency.epart import EPartAdjacency
from repro.adjacency.vpart import VPartAdjacency
from repro.errors import GraphError


class TestVPart:
    def test_storage_matches_dynarr(self):
        r = VPartAdjacency(4)
        r.insert(0, 1)
        r.insert(0, 2)
        r.delete(0, 1)
        assert r.neighbors(0).tolist() == [2]

    def test_owner_deterministic(self):
        r = VPartAdjacency(16)
        assert r.owner(5, 4) == 1
        assert r.owner(5, 4) == r.owner(5, 4)

    def test_owner_partitions_all_vertices(self):
        r = VPartAdjacency(64)
        owners = {r.owner(v, 8) for v in range(64)}
        assert owners == set(range(8))

    def test_owner_invalid_threads(self):
        with pytest.raises(ValueError):
            VPartAdjacency(4).owner(0, 0)

    def test_phase_has_no_sync_but_replicated_reads(self):
        r = VPartAdjacency(4)
        for i in range(10):
            r.insert(i % 4, (i + 1) % 4)
        ph = r.phase("x")
        assert ph.atomics == 0.0 and ph.locks == 0.0
        assert ph.seq_bytes_per_thread == pytest.approx(32.0 * 10)
        assert ph.alu_ops_per_thread > 0

    def test_replicated_reads_cost_scales_with_threads(self):
        from repro.machine.cost import CostModel
        from repro.machine.spec import ULTRASPARC_T2

        r = VPartAdjacency(64)
        rng = np.random.default_rng(0)
        for u, v in zip(rng.integers(0, 64, 5000), rng.integers(0, 64, 5000)):
            r.insert(int(u), int(v))
        cm = CostModel(ULTRASPARC_T2)
        ph = r.phase("x")
        # Scaling must flatten well below the Dyn-arr cap.
        speedup = cm.phase_cost(ph, 1).total / cm.phase_cost(ph, 64).total
        assert speedup < 20


class TestEPart:
    def test_storage_matches_dynarr(self):
        r = EPartAdjacency(4, split_thresh=2)
        for v in [1, 2, 3, 1]:
            r.insert(0, v)
        assert r.neighbors(0).tolist() == [1, 2, 3, 1]

    def test_hi_arcs_counted(self):
        r = EPartAdjacency(4, split_thresh=2)
        for v in [1, 2, 3, 1]:
            r.insert(0, v)
        assert r.hi_arcs == 2  # the 3rd and 4th arcs exceed the threshold

    def test_hi_arcs_bulk_matches_sequential(self):
        src = np.array([0] * 6 + [1] * 2)
        dst = np.arange(8) % 4
        seq = EPartAdjacency(4, split_thresh=3)
        for u, v in zip(src.tolist(), dst.tolist()):
            seq.insert(u, v)
        bulk = EPartAdjacency(4, split_thresh=3)
        bulk.bulk_insert(src, dst)
        assert bulk.hi_arcs == seq.hi_arcs == 3

    def test_merge_words(self):
        r = EPartAdjacency(4, split_thresh=1)
        r.insert(0, 1)
        r.insert(0, 2)
        assert r.merged_arc_words() == 1

    def test_space_overhead_reported(self):
        a = EPartAdjacency(4, split_thresh=1)
        b = EPartAdjacency(4, split_thresh=100)
        for rep in (a, b):
            for i in range(10):
                rep.insert(0, i % 4)
        assert a.model_bytes() > b.model_bytes()
        assert a.memory_bytes() == b.memory_bytes()

    def test_phase_removes_hot_serialisation(self):
        from repro.adjacency.base import HotStats

        r = EPartAdjacency(4, split_thresh=2)
        for i in range(10):
            r.insert(0, i % 4)
        ph = r.phase("x", HotStats(10, 10, 1.0))
        assert ph.atomic_max_addr == 0.0
        assert ph.max_unit_frac == 0.0
        assert ph.barriers == 1.0  # the merge step

    def test_invalid_threshold(self):
        with pytest.raises(GraphError):
            EPartAdjacency(4, split_thresh=0)
