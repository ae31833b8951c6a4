"""Dynamic-graph adjacency representations (paper section 2).

The five candidate structures the paper studies, plus the batched-update
path and the static CSR snapshot format the analysis kernels consume:

* :mod:`repro.adjacency.dynarr` — resizable adjacency arrays (``Dyn-arr``)
  and the no-resize variant (``Dyn-arr-nr``), section 2.1.1.
* :mod:`repro.adjacency.treap` — adjacency treaps with set operations,
  section 2.1.4.
* :mod:`repro.adjacency.hybrid` — the paper's main contribution,
  ``Hybrid-arr-treap`` with a degree threshold, section 2.1.5.
* :mod:`repro.adjacency.vpart` / :mod:`repro.adjacency.epart` — vertex and
  edge partitioning execution schemes, section 2.1.3.
* :mod:`repro.adjacency.batch` — semi-sorted batched updates, section 2.1.2.
* :mod:`repro.adjacency.csr` — compressed sparse row snapshots.
* :mod:`repro.adjacency.mempool` — the custom chunked allocator all of the
  dynamic structures draw from (the paper's "own memory management scheme").
* :mod:`repro.adjacency.bulkops` — the shared vectorised bulk-update kernels
  (group-by-owner batching with bit-identical counters; docs/PERFORMANCE.md).
"""

from repro.adjacency import bulkops
from repro.adjacency.mempool import IntPool
from repro.adjacency.base import AdjacencyRepresentation, UpdateStats
from repro.adjacency.csr import CSRGraph, build_csr
from repro.adjacency.dynarr import DynArrAdjacency
from repro.adjacency.treap import TreapAdjacency
from repro.adjacency.hybrid import HybridAdjacency
from repro.adjacency.vpart import VPartAdjacency
from repro.adjacency.epart import EPartAdjacency
from repro.adjacency.batch import BatchedAdjacency
from repro.adjacency.compressed import CompressedCSR
from repro.adjacency.reorder import apply_order, bfs_order, degree_order, locality_gap
from repro.adjacency.registry import REPRESENTATIONS, make_representation

__all__ = [
    "bulkops",
    "IntPool",
    "AdjacencyRepresentation",
    "UpdateStats",
    "CSRGraph",
    "build_csr",
    "DynArrAdjacency",
    "TreapAdjacency",
    "HybridAdjacency",
    "VPartAdjacency",
    "EPartAdjacency",
    "BatchedAdjacency",
    "CompressedCSR",
    "apply_order",
    "bfs_order",
    "degree_order",
    "locality_gap",
    "REPRESENTATIONS",
    "make_representation",
]
