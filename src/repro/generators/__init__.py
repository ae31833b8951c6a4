"""Synthetic input generators.

* :mod:`repro.generators.rmat` — the R-MAT recursive-matrix generator with the
  paper's shaping parameters (0.6, 0.15, 0.15, 0.10), section 1.2.
* :mod:`repro.generators.timestamps` — uniform random edge time labels.
* :mod:`repro.generators.streams` — structural-update streams (insertions,
  deletions, mixes, batching, semi-sorting), section 2.1.
* :mod:`repro.generators.reference` — small deterministic and classical random
  graphs used for validation and examples.
"""

from repro.edgelist import EdgeList
from repro.generators.rmat import RMATParams, rmat_edges, rmat_graph, PAPER_RMAT
from repro.generators.timestamps import uniform_timestamps
from repro.generators.streams import (
    UpdateStream,
    INSERT,
    DELETE,
    insertion_stream,
    deletion_stream,
    mixed_stream,
    semisort,
    iter_batches,
)
from repro.generators.reference import (
    path_graph,
    cycle_graph,
    star_graph,
    complete_graph,
    grid_graph,
    erdos_renyi,
    watts_strogatz,
    to_networkx,
)

__all__ = [
    "EdgeList",
    "RMATParams",
    "rmat_edges",
    "rmat_graph",
    "PAPER_RMAT",
    "uniform_timestamps",
    "UpdateStream",
    "INSERT",
    "DELETE",
    "insertion_stream",
    "deletion_stream",
    "mixed_stream",
    "semisort",
    "iter_batches",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_graph",
    "grid_graph",
    "erdos_renyi",
    "watts_strogatz",
    "to_networkx",
]
