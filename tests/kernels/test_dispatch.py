"""Dispatch semantics of the three-level kernel tier.

Precedence (env var > instance attribute > auto-probe), validation errors,
the silent import probe, the tier as the bulk-kernel gate, wrappers
forwarding their tier, and the ``KERNEL_SITES`` table naming real code.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import kernels
from repro.adjacency import bulkops
from repro.adjacency.batch import BatchedAdjacency
from repro.adjacency.dynarr import DynArrAdjacency
from repro.adjacency.hybrid import HybridAdjacency
from repro.connectit.unionfind import UnionFind
from repro.core.linkcut import LinkCutForest
from repro.errors import GraphError

#: Skip marker for tests that need a real numba (the uninstalled path is
#: covered by everything else in this package via ``force_available``).
requires_numba = pytest.mark.skipif(
    not kernels.numba_available(), reason="numba not installed (pip install repro[jit])"
)


class TestPrecedence:
    def test_default_is_probe_result(self, monkeypatch):
        monkeypatch.delenv(kernels.ENV_VAR, raising=False)
        expected = "compiled" if kernels.numba_available() else "vectorised"
        assert kernels.default_tier() == expected
        assert kernels.resolve_tier() == expected
        assert kernels.resolve_tier(object()) == expected

    def test_attribute_beats_probe(self, monkeypatch):
        monkeypatch.delenv(kernels.ENV_VAR, raising=False)
        uf = UnionFind(4)
        uf.kernel_tier = "scalar"
        assert kernels.resolve_tier(uf) == "scalar"

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

    def test_forced_availability_flips_default(self):
        with kernels.force_available():
            assert kernels.default_tier() == "compiled"
            assert kernels.resolve_tier() == "compiled"


class TestValidation:
    def test_unknown_tier_attribute(self):
        uf = UnionFind(4)
        uf.kernel_tier = "turbo"
        with pytest.raises(GraphError, match="unknown kernel tier"):
            kernels.resolve_tier(uf)

    def test_unknown_tier_env(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "turbo")
        with pytest.raises(GraphError, match="unknown kernel tier"):
            kernels.resolve_tier()

    @pytest.mark.skipif(
        kernels.numba_available(), reason="needs the numba-less environment"
    )
    def test_compiled_without_numba_is_a_clear_error(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "compiled")
        with pytest.raises(GraphError, match=r"repro\[jit\]"):
            kernels.resolve_tier()

    def test_unknown_kernel_name(self):
        with pytest.raises(GraphError, match="unknown kernel"):
            kernels.get("frobnicate")


class TestProbe:
    def test_import_emits_no_warnings(self):
        # The satellite contract: `import repro` is silent without numba.
        code = "import warnings; warnings.simplefilter('error'); import repro"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.strip() == ""

    def test_probe_state_is_consistent(self):
        if kernels.numba_available():
            assert kernels.probe_error() is None
            assert kernels.numba_version()
        else:
            assert kernels.probe_error()
            assert kernels.numba_version() is None

    def test_describe_shape(self):
        d = kernels.describe()
        assert set(d["kernels"]) == set(kernels.KERNEL_NAMES)
        assert d["default_tier"] in kernels.TIERS
        assert d["available"] == kernels.numba_available()

    @pytest.mark.parametrize("name", kernels.KERNEL_NAMES)
    def test_dispatch_sites_exist(self, name):
        # `python -m repro kernels` prints this table; every entry must be
        # an importable module followed by an attribute path.
        parts = kernels.KERNEL_SITES[name].split(".")
        for split in range(len(parts) - 1, 0, -1):
            try:
                obj = importlib.import_module(".".join(parts[:split]))
            except ModuleNotFoundError:
                continue
            for attr in parts[split:]:
                obj = getattr(obj, attr)
            assert callable(obj)
            return
        pytest.fail(f"no importable module in {kernels.KERNEL_SITES[name]!r}")

    @requires_numba
    def test_compiled_kernels_are_dispatchers(self):
        # With numba installed every kernel must be a JIT Dispatcher.
        for name in kernels.KERNEL_NAMES:
            assert hasattr(kernels.get(name), "py_func"), name


#: A stand-in ``numba`` module whose Dispatchers accept what a real typed
#: one accepts (ndarrays and scalars) and fail on anything else.
FAKE_NUMBA = """
import numpy as np

__version__ = "0.0+fake"


class Dispatcher:
    def __init__(self, fn):
        self.py_func = fn

    def __call__(self, *args):
        for a in args:
            assert isinstance(a, (np.ndarray, np.generic, int)), type(a)
        return self.py_func(*args)


def njit(cache=False):
    return Dispatcher
"""

UNION_UNDER_FAKE_NUMBA = """
import numpy as np
from repro import kernels
from repro.connectit.unionfind import UNION_RULES, UnionFind

assert kernels.numba_available() and kernels.numba_version() == "0.0+fake"
rng = np.random.default_rng(5)
src, dst = rng.integers(0, 60, (2, 400))
for rule in UNION_RULES:
    ref = UnionFind(60, union_rule=rule)
    expect = [ref.union(u, v) for u, v in zip(src.tolist(), dst.tolist())]
    for tier in kernels.TIERS:
        uf = UnionFind(60, union_rule=rule)
        uf.kernel_tier = tier
        assert uf.union_arcs(src, dst).tolist() == expect, (rule, tier)
        assert uf.parent.tolist() == ref.parent.tolist(), (rule, tier)
        assert uf.counters == ref.counters, (rule, tier)
"""


def test_interpreted_union_never_enters_a_dispatcher(tmp_path):
    # With numba installed kernels.get("union_arcs") is a typed Dispatcher;
    # the tiers below compiled run the same body over array buffers and
    # lists, which must keep reaching the plain loops.union_arcs (it calls
    # no helper, so nothing inside it can resolve to a Dispatcher either).
    (tmp_path / "numba.py").write_text(FAKE_NUMBA)
    src_dir = Path(kernels.__file__).parents[2]
    proc = subprocess.run(
        [sys.executable, "-c", UNION_UNDER_FAKE_NUMBA],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": f"{tmp_path}{os.pathsep}{src_dir}", kernels.ENV_VAR: ""},
    )
    assert proc.returncode == 0, proc.stderr


class TestBulkopsInteraction:
    def test_scalar_tier_disables_bulkops(self):
        rep = DynArrAdjacency(8)
        rep.kernel_tier = "scalar"
        assert not bulkops.enabled(rep, 10_000)

    def test_vectorised_tier_keeps_bulkops_dispatch(self):
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
        from dataclasses import asdict

        assert asdict(a.stats) == asdict(b.stats)

    @pytest.mark.parametrize(
        "make", [lambda: HybridAdjacency(64, seed=1), lambda: BatchedAdjacency(64)],
        ids=["hybrid", "batched"],
    )
    def test_wrapper_tier_reaches_the_inner_dynarr(self, make, monkeypatch, fetched_kernels):
        # Where the probe says "compiled", a wrapper pinned to "vectorised"
        # must not fall into the delete_match loop kernel because the
        # dyn-arr it owns resolved a tier of its own.
        monkeypatch.delenv(kernels.ENV_VAR, raising=False)
        rng = np.random.default_rng(3)
        op = np.where(rng.random(400) < 0.6, 1, -1).astype(np.int8)
        src = rng.integers(0, 64, 400)
        dst = rng.integers(0, 64, 400)
        with kernels.force_available():
            rep = make()
            rep.kernel_tier = "vectorised"
            rep.apply_arcs(op, src, dst)
            assert fetched_kernels == []
            assert rep.vectorised_arc_ops > 0  # and the bulk kernels did run
            rep.kernel_tier = None  # auto-probe: the loop kernel is right
            rep.apply_arcs(op, src, dst)
            assert fetched_kernels == ["delete_match"]
