"""Shared fixtures for the connectit suite: graphs with known components.

``graph_family`` parametrizes the five topologies the equivalence tests
sweep — R-MAT and Erdős–Rényi (realistic), star and path (adversarial for
tree depth), and a multigraph with self-loops and duplicates (the edge
cases a sampling phase must not mis-handle).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adjacency.csr import build_csr
from repro.edgelist import EdgeList
from repro.generators.reference import erdos_renyi, path_graph, star_graph
from repro.generators.rmat import rmat_graph


def _selfloop_graph() -> EdgeList:
    # Two components, self-loops on both, duplicate arcs, one isolate.
    src = np.array([0, 0, 1, 1, 2, 4, 4, 5, 5], dtype=np.int64)
    dst = np.array([0, 1, 2, 2, 0, 4, 5, 6, 6], dtype=np.int64)
    return EdgeList(8, src, dst)


GRAPHS = {
    "rmat": lambda: rmat_graph(scale=10, edge_factor=8, seed=42),
    "er": lambda: erdos_renyi(250, 0.015, seed=7),
    "star": lambda: star_graph(64),
    "path": lambda: path_graph(50),
    "selfloop": _selfloop_graph,
}


@pytest.fixture(scope="session", params=sorted(GRAPHS))
def graph_family(request):
    """(name, EdgeList, CSRGraph) for each reference topology."""
    g = GRAPHS[request.param]()
    return request.param, g, build_csr(g)

