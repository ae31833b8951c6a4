"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adjacency.csr import build_csr
from repro.edgelist import EdgeList
from repro.generators.rmat import rmat_graph
from repro.generators.reference import erdos_renyi, to_networkx


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def small_rmat():
    """A small R-MAT graph with time-stamps (session-cached, read-only)."""
    return rmat_graph(scale=10, edge_factor=8, seed=42, ts_range=(1, 100))


@pytest.fixture(scope="session")
def small_rmat_csr(small_rmat):
    return build_csr(small_rmat)


@pytest.fixture(scope="session")
def er_graph():
    """Erdős–Rényi graph for kernel validation (session-cached)."""
    return erdos_renyi(250, 0.015, seed=7)


@pytest.fixture(scope="session")
def er_csr(er_graph):
    return build_csr(er_graph)


@pytest.fixture(scope="session")
def er_nx(er_graph):
    return to_networkx(er_graph)


@pytest.fixture
def tiny_temporal():
    """A hand-built temporal graph whose paths are easy to reason about.

    0 -1- 1 -2- 2 -3- 3   (labels increase along the path)
    0 -5- 4 -4- 3         (second route with non-increasing labels)
    """
    return EdgeList(
        5,
        np.array([0, 1, 2, 0, 4]),
        np.array([1, 2, 3, 4, 3]),
        ts=np.array([1, 2, 3, 5, 4]),
    )
