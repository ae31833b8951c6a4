"""Nothing picks a batch's path: there is one.

A silent import that never reaches for numba, the stubs bench/ calls,
each batch body's call site, and an adjacency batch of any size on its one
batch path: the dyn-arr kernels apply every arc a dyn-arr (batched
included) or a hybrid's array side is sent, and the per-op loops run only
when called by name, as the reference.  A stale value in the retired tier
variable is never read.
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
from repro.adjacency.treap import TreapAdjacency
from repro.connectit.unionfind import UnionFind
from repro.core.linkcut import LinkCutForest, chase_roots
from repro.kernels import loops
from tests.retired_tier import stale_tier


def mixed_batch(n, k, seed):
    rng = np.random.default_rng(seed)
    op = np.where(rng.random(k) < 0.6, 1, -1).astype(np.int8)
    return op, rng.integers(0, n, k), rng.integers(0, n, k)


@pytest.fixture
def kernel_arcs(monkeypatch):
    """Arcs handed to each dyn-arr kernel call, in call order."""
    sent = []
    for name in ("bulk_insert", "apply_mixed"):
        real = getattr(bulkops, name)

        def spy(rep, *cols, _real=real):
            sent.append(int(cols[-3].size))  # src: (op,) src, dst, ts
            return _real(rep, *cols)

        monkeypatch.setattr(bulkops, name, spy)
    return sent


def refuse_per_op(monkeypatch, classes):
    def refuse(*args):
        raise AssertionError("a batch entered the per-op path")

    for cls in classes:
        for name in ("insert", "delete", "apply_arcs_scalar", "bulk_insert_scalar"):
            monkeypatch.setattr(cls, name, refuse)


class TestPrecedence:
    def test_default_is_probe_result(self, kernel_arcs):
        # The stub bench/run.py records as the default names the path every
        # batch runs, down to one arc: no numba, the dyn-arr kernels, one
        # call per batch.
        assert not kernels.numba_available()
        assert kernels.default_tier() == "vectorised"
        rep = DynArrAdjacency(8)
        for k in (1, 2, 47, 48):
            rep.bulk_insert(np.arange(k) % 8, np.arange(k)[::-1] % 8)
        assert kernel_arcs == [1, 2, 47, 48]
        assert rep.n_arcs == 98


class TestValidation:
    def test_unknown_tier_env(self, kernel_arcs):
        # Nothing validates the retired variable because nothing reads it:
        # a value that was never a tier leaves a batch as it is unset.
        op, src, dst = mixed_batch(8, 300, 0)
        with stale_tier(None):
            ref = DynArrAdjacency(8)
            m_ref = ref.apply_arcs(op, src, dst)
        kernel_arcs.clear()
        with stale_tier("turbo"):
            rep = DynArrAdjacency(8)
            m_rep = rep.apply_arcs(op, src, dst)
        assert kernel_arcs == [300]
        assert m_rep == m_ref
        assert asdict(rep.stats) == asdict(ref.stats)
        assert all(np.array_equal(a, b) for a, b in zip(rep.to_arrays(), ref.to_arrays()))


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
    def test_vectorised_tier_keeps_bulkops_dispatch(self, kernel_arcs):
        # A stale environment naming the per-op tier takes no batch, large
        # or small, off the kernels.
        rep = DynArrAdjacency(8)
        with stale_tier("scalar"):
            rep.apply_arcs(*mixed_batch(8, 10_000, 2))
            rep.apply_arcs(*mixed_batch(8, 3, 2))
        assert kernel_arcs == [10_000, 3]


class TestOneBatchPath:
    def test_no_batch_size_enters_the_per_op_methods(self, monkeypatch):
        # No representation carries a path of its own, and no batch size
        # picks one: for every kind, batches of 1 to 96 arcs through either
        # entry point never enter the per-op methods.
        refuse_per_op(monkeypatch, (DynArrAdjacency, TreapAdjacency, HybridAdjacency))
        for kind in REPRESENTATIONS:
            extra = {"degrees": np.full(8, 4096)} if kind == "dynarr-nr" else {}
            rep = make_representation(kind, 8, **extra)
            for k in range(1, 97):
                op, src, dst = mixed_batch(8, k, k)
                rep.apply_arcs(op, src, dst)
                rep.bulk_insert(src, dst)

    def test_per_op_reference_never_enters_bulkops(self, monkeypatch):
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
        assert rep.n_arcs > 0

    def test_small_batches_keep_per_op_semantics(self, kernel_arcs):
        # Small batches (47 arcs, where a per-op loop once took over) go
        # through the kernels with the oracle's semantics: the same misses,
        # stats and arcs.
        op, src, dst = mixed_batch(8, 300, 0)
        a, b = DynArrAdjacency(8), DynArrAdjacency(8)
        step = 47
        m_a = sum(
            a.apply_arcs(op[i : i + step], src[i : i + step], dst[i : i + step])
            for i in range(0, op.size, step)
        )
        assert kernel_arcs == [step] * 6 + [300 - 6 * step]
        m_b = b.apply_arcs_scalar(op, src, dst)
        assert m_a == m_b
        assert asdict(a.stats) == asdict(b.stats)
        assert all(np.array_equal(x, y) for x, y in zip(a.to_arrays(), b.to_arrays()))

    @pytest.mark.parametrize(
        "make", [lambda: HybridAdjacency(64, seed=1), lambda: BatchedAdjacency(64)],
        ids=["hybrid", "batched"],
    )
    def test_kernels_apply_every_arc_of_a_fresh_batch(self, make, kernel_arcs, monkeypatch):
        # The kernels apply every arc of a fresh structure's small batch
        # (no hybrid vertex is a treap yet) and arcs of every later one;
        # the batched kind is a dyn-arr, with no structure in between.
        refuse_per_op(monkeypatch, (DynArrAdjacency, HybridAdjacency))
        op, src, dst = mixed_batch(64, 400, 3)
        rep = make()
        small = 47
        rep.apply_arcs(op[:small], src[:small], dst[:small])
        assert kernel_arcs == [small]
        rep.apply_arcs(op[small:], src[small:], dst[small:])
        assert len(kernel_arcs) == 2 and kernel_arcs[1] > 0
