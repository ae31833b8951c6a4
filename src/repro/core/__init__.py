"""Parallel dynamic-graph analysis kernels (paper section 3).

* :mod:`repro.core.bfs` — level-synchronous breadth-first search with
  time-stamp filtering (section 3.3).
* :mod:`repro.core.components` — Shiloach–Vishkin-style connected components.
* :mod:`repro.core.linkcut` — the parent-pointer link-cut forest and its
  parallel construction (section 3.1).
* :mod:`repro.core.connectivity` — batched connectivity queries, and the
  forest kept spanning a graph under update batches.
* :mod:`repro.core.induced` — temporal induced subgraphs (section 3.2).
* :mod:`repro.core.betweenness` — temporal betweenness centrality
  (section 3.4).
* :mod:`repro.core.update_engine` — the driver that feeds update streams to
  adjacency representations and assembles their work profiles.

Extensions beyond the paper's evaluated kernels (flagged in DESIGN.md):

* :meth:`repro.core.connectivity.ConnectivityIndex.apply_batch` — the
  representation and the link-cut forest kept in sync under arbitrary
  update streams.
* :mod:`repro.core.sssp` — Δ-stepping single-source shortest paths (the
  paper's reference [19] and stated future-work problem).
* :mod:`repro.core.metrics` — the small-world statistics ``repro stats``
  prints (degree skew, clustering, effective diameter, giant component).
* :mod:`repro.core.window` — a sliding-window graph under sustained
  insert+delete churn.
"""

from repro.core.bfs import BFSResult, bfs, bfs_profile
from repro.core.components import ComponentsResult, connected_components
from repro.core.linkcut import LinkCutForest
from repro.core.connectivity import ConnectivityIndex, MaintenanceStats, QueryResult
from repro.core.induced import InducedResult, induced_subgraph
from repro.core.betweenness import BetweennessResult, temporal_betweenness, temporal_bc_exact
from repro.core.update_engine import UpdateResult, apply_stream, construct
from repro.core.sssp import SSSPResult, delta_stepping
from repro.core.metrics import (
    DegreeStats,
    average_clustering,
    clustering_coefficient,
    degree_stats,
    effective_diameter,
    giant_component_fraction,
)
from repro.core.window import SlidingWindowGraph, WindowBatch

__all__ = [
    "SlidingWindowGraph",
    "WindowBatch",
    "DegreeStats",
    "average_clustering",
    "clustering_coefficient",
    "degree_stats",
    "effective_diameter",
    "giant_component_fraction",
    "MaintenanceStats",
    "SSSPResult",
    "delta_stepping",
    "BFSResult",
    "bfs",
    "bfs_profile",
    "ComponentsResult",
    "connected_components",
    "LinkCutForest",
    "ConnectivityIndex",
    "QueryResult",
    "InducedResult",
    "induced_subgraph",
    "BetweennessResult",
    "temporal_betweenness",
    "temporal_bc_exact",
    "UpdateResult",
    "apply_stream",
    "construct",
]
