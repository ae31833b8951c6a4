"""Dispatch semantics of the two-level kernel tier.

Precedence (env var > instance attribute > default), validation errors, a
silent import that never reaches for numba, each loop body's call site, the
tier as the bulk-kernel gate, and wrappers forwarding their tier.
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
from repro.connectit.unionfind import UnionFind
from repro.core.linkcut import LinkCutForest, chase_roots
from repro.errors import GraphError
from repro.kernels import loops


class TestPrecedence:
    def test_default_is_probe_result(self, monkeypatch):
        # The probe is the stub bench/run.py records: no numba, so the
        # default is the vectorised tier.
        monkeypatch.delenv(kernels.ENV_VAR, raising=False)
        assert not kernels.numba_available()
        assert kernels.TIERS == ("scalar", "vectorised")
        assert kernels.default_tier() == "vectorised"
        assert kernels.resolve_tier() == "vectorised"
        assert kernels.resolve_tier(object()) == "vectorised"

    def test_attribute_beats_probe(self, monkeypatch):
        monkeypatch.delenv(kernels.ENV_VAR, raising=False)
        forest = LinkCutForest(4)
        forest.kernel_tier = "scalar"
        assert kernels.resolve_tier(forest) == "scalar"

    def test_env_beats_attribute(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "vectorised")
        forest = LinkCutForest(4)
        forest.kernel_tier = "scalar"
        assert kernels.resolve_tier(forest) == "vectorised"

    def test_none_attribute_falls_through(self, monkeypatch):
        monkeypatch.delenv(kernels.ENV_VAR, raising=False)
        rep = DynArrAdjacency(4)
        assert rep.kernel_tier is None
        assert kernels.resolve_tier(rep) == kernels.default_tier()


class TestValidation:
    def test_unknown_tier_attribute(self, monkeypatch):
        monkeypatch.delenv(kernels.ENV_VAR, raising=False)
        forest = LinkCutForest(4)
        forest.kernel_tier = "turbo"
        with pytest.raises(GraphError, match="unknown kernel tier"):
            kernels.resolve_tier(forest)

    def test_unknown_tier_env(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "turbo")
        with pytest.raises(GraphError, match="unknown kernel tier"):
            kernels.resolve_tier()

    def test_compiled_without_numba_is_a_clear_error(self, monkeypatch):
        # The deleted tier's name, left in an older environment, fails
        # loudly, never silently falls back to the default.
        monkeypatch.setenv(kernels.ENV_VAR, "compiled")
        with pytest.raises(GraphError, match=r"unknown kernel tier .compiled. from environment"):
            kernels.resolve_tier()


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
        # The stub bench/run.py records says no numba, and no tier needs it.
        assert kernels.numba_available() is False
        assert kernels.warmup() is None
        assert kernels.default_tier() in kernels.TIERS == ("scalar", "vectorised")

    @pytest.mark.parametrize("name", ["findroot_batch", "union_arcs"])
    def test_dispatch_sites_exist(self, name):
        # Each loop body has one caller, and that caller calls it itself.
        site = {"findroot_batch": chase_roots, "union_arcs": UnionFind.union_arcs}[name]
        assert callable(getattr(loops, name))
        assert name in site.__code__.co_names


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
    def test_scalar_tier_disables_bulkops(self):
        rep = DynArrAdjacency(8)
        rep.kernel_tier = "scalar"
        assert not bulkops.enabled(rep, 10_000)

    def test_vectorised_tier_keeps_bulkops_dispatch(self, monkeypatch):
        monkeypatch.delenv(kernels.ENV_VAR, raising=False)
        rep = DynArrAdjacency(8)
        rep.kernel_tier = "vectorised"
        assert bulkops.enabled(rep, 10_000)

    def test_scalar_tier_applies_scalar_semantics(self):
        rng = np.random.default_rng(0)
        op = np.where(rng.random(300) < 0.6, 1, -1).astype(np.int8)
        src = rng.integers(0, 8, 300)
        dst = rng.integers(0, 8, 300)
        a = DynArrAdjacency(8)
        a.kernel_tier = "scalar"
        b = DynArrAdjacency(8)
        m_a = a.apply_arcs(op, src, dst)
        m_b = b.apply_arcs_scalar(op, src, dst)
        assert m_a == m_b
        assert asdict(a.stats) == asdict(b.stats)

    @pytest.mark.parametrize(
        "make", [lambda: HybridAdjacency(64, seed=1), lambda: BatchedAdjacency(64)],
        ids=["hybrid", "batched"],
    )
    def test_wrapper_tier_reaches_the_inner_dynarr(self, make, monkeypatch):
        # The dyn-arr a wrapper owns runs the tier the wrapper was given,
        # not one it resolves for itself.
        monkeypatch.delenv(kernels.ENV_VAR, raising=False)
        rng = np.random.default_rng(3)
        op = np.where(rng.random(400) < 0.6, 1, -1).astype(np.int8)
        src = rng.integers(0, 64, 400)
        dst = rng.integers(0, 64, 400)
        rep = make()
        rep.kernel_tier = "scalar"
        rep.apply_arcs(op, src, dst)
        assert rep.vectorised_arc_ops == 0
        rep.kernel_tier = "vectorised"
        rep.apply_arcs(op, src, dst)
        assert rep.vectorised_arc_ops > 0
