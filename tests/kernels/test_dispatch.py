"""What picks a batch's path, now that the batch size alone does.

A silent import that never reaches for numba, the stubs bench/run.py
records, each batch body's call site, the per-op (``scalar``) and bulk
(``vectorised``) paths of an adjacency batch, and wrappers handing their
batch to the dyn-arr they own.  A stale value in the retired tier variable
is never read.
"""

import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from repro import kernels
from repro.adjacency import bulkops
from repro.adjacency.batch import BatchedAdjacency
from repro.adjacency.dynarr import DynArrAdjacency
from repro.adjacency.hybrid import HybridAdjacency
from repro.adjacency.registry import REPRESENTATIONS, make_representation
from repro.connectit.unionfind import UnionFind
from repro.core.linkcut import LinkCutForest, chase_roots
from repro.kernels import loops
from tests.retired_tier import stale_tier


def mixed_batch(n, k, seed):
    rng = np.random.default_rng(seed)
    op = np.where(rng.random(k) < 0.6, 1, -1).astype(np.int8)
    return op, rng.integers(0, n, k), rng.integers(0, n, k)


class TestPrecedence:
    def test_default_is_probe_result(self):
        # The stub bench/run.py records as the default names the path a
        # batch at the cut runs when nobody asks for anything: no numba,
        # the vectorised kernels.
        assert not kernels.numba_available()
        assert kernels.default_tier() == "vectorised"
        rep = DynArrAdjacency(8)
        k = bulkops.MIN_BULK_SIZE
        rep.bulk_insert(np.arange(k) % 8, np.arange(k)[::-1] % 8)
        assert rep.vectorised_arc_ops == k

    def test_none_attribute_falls_through(self):
        # No representation carries a path of its own: for every kind the
        # gate falls through to the batch size alone.
        sizes = range(2 * bulkops.MIN_BULK_SIZE)
        for kind in REPRESENTATIONS:
            extra = {"degrees": np.full(8, 4)} if kind == "dynarr-nr" else {}
            rep = make_representation(kind, 8, **extra)
            assert [bulkops.enabled(rep, k) for k in sizes] == [
                k >= bulkops.MIN_BULK_SIZE for k in sizes
            ], kind


class TestValidation:
    def test_unknown_tier_env(self):
        # Nothing validates the retired variable because nothing reads it:
        # a value that was never a tier leaves a batch as it is unset.
        op, src, dst = mixed_batch(8, 300, 0)
        with stale_tier(None):
            ref = DynArrAdjacency(8)
            m_ref = ref.apply_arcs(op, src, dst)
        with stale_tier("turbo"):
            rep = DynArrAdjacency(8)
            m_rep = rep.apply_arcs(op, src, dst)
        assert m_rep == m_ref
        assert asdict(rep.stats) == asdict(ref.stats)
        assert rep.vectorised_arc_ops == ref.vectorised_arc_ops > 0


class TestProbe:
    def test_import_emits_no_warnings(self):
        # `import repro` is silent.
        code = "import warnings; warnings.simplefilter('error'); import repro"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.strip() == ""

    def test_probe_state_is_consistent(self):
        # The stubs bench/run.py records: no numba, the bulk kernels' name.
        assert kernels.numba_available() is False
        assert kernels.warmup() is None
        assert kernels.default_tier() == "vectorised"

    @pytest.mark.parametrize("name", ["findroot_batch", "union_arcs"])
    def test_dispatch_sites_exist(self, name):
        # Each batch body is called by name from the method that owns it.
        body, site = {
            "findroot_batch": (chase_roots, LinkCutForest.findroot_batch),
            "union_arcs": (loops.union_arcs, UnionFind.union_arcs),
        }[name]
        assert callable(body)
        assert body.__name__ in site.__code__.co_names


def test_interpreted_union_never_enters_a_dispatcher(tmp_path):
    # Even with a numba importable, repro never imports it: the union runs
    # the plain loops.union_arcs.
    (tmp_path / "numba.py").write_text("raise AssertionError('numba imported')\n")
    code = (
        "import numpy as np, repro; from repro.connectit.unionfind import UnionFind; "
        "UnionFind(4).union_arcs(np.array([0, 1]), np.array([1, 2]))"
    )
    src_dir = Path(kernels.__file__).parents[2]
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": f"{tmp_path}{os.pathsep}{src_dir}"},
    )
    assert proc.returncode == 0, proc.stderr


class TestBulkopsInteraction:
    def test_scalar_tier_disables_bulkops(self, monkeypatch):
        # The per-op oracle never enters the kernels it is the oracle for,
        # however large its batch.
        def refuse(*args):
            raise AssertionError("apply_arcs_scalar entered bulkops")

        monkeypatch.setattr(bulkops, "apply_mixed", refuse)
        monkeypatch.setattr(bulkops, "bulk_insert", refuse)
        rep = DynArrAdjacency(8)
        op, src, dst = mixed_batch(8, 10_000, 1)
        rep.apply_arcs_scalar(op, src, dst)
        rep.bulk_insert_scalar(src, dst)
        assert rep.vectorised_arc_ops == 0 and rep.n_arcs > 0

    def test_vectorised_tier_keeps_bulkops_dispatch(self):
        # A stale environment naming the per-op tier no longer takes a large
        # batch off the kernels.
        rep = DynArrAdjacency(8)
        with stale_tier("scalar"):
            assert bulkops.enabled(rep, 10_000)
            rep.apply_arcs(*mixed_batch(8, 10_000, 2))
        assert rep.vectorised_arc_ops == 10_000

    def test_scalar_tier_applies_scalar_semantics(self):
        # Batches below the cut take the per-op loop: the same misses and
        # stats as the oracle, and nothing counted as vectorised.
        op, src, dst = mixed_batch(8, 300, 0)
        a, b = DynArrAdjacency(8), DynArrAdjacency(8)
        step = bulkops.MIN_BULK_SIZE - 1
        m_a = sum(
            a.apply_arcs(op[i : i + step], src[i : i + step], dst[i : i + step])
            for i in range(0, op.size, step)
        )
        m_b = b.apply_arcs_scalar(op, src, dst)
        assert m_a == m_b
        assert asdict(a.stats) == asdict(b.stats)
        assert a.vectorised_arc_ops == 0

    @pytest.mark.parametrize(
        "make", [lambda: HybridAdjacency(64, seed=1), lambda: BatchedAdjacency(64)],
        ids=["hybrid", "batched"],
    )
    def test_wrapper_tier_reaches_the_inner_dynarr(self, make):
        # The dyn-arr a wrapper owns runs the path the wrapper's batch size
        # picks, not one it picks for itself.
        op, src, dst = mixed_batch(64, 400, 3)
        rep = make()
        small = bulkops.MIN_BULK_SIZE - 1
        rep.apply_arcs(op[:small], src[:small], dst[:small])
        assert rep.vectorised_arc_ops == 0
        rep.apply_arcs(op[small:], src[small:], dst[small:])
        assert rep.vectorised_arc_ops > 0
