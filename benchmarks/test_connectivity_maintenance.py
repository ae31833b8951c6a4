"""Gate: keeping the spanning forest under update batches costs less than
recomputing connectivity.

The recipe is the ``serve_churn`` child's: an R-MAT scale-14 base (edge
factor 8) on the ``hybrid`` structure, then batches of 1 024 updates, 75 %
fresh R-MAT inserts and 25 % deletes of existing edges.  Per batch, the
forest's share of :meth:`ConnectivityIndex.apply_batch` (its time minus
``apply_stream`` of the same batch on a twin graph) is set against
``connected_components`` of the twin's snapshot after it, the median of
each over the batches; both run here, one after the other.  The index and
the twin must end with the same adjacency and a forest that spans it.
"""

from statistics import median
import time

import numpy as np

from repro.api import DynamicGraph
from repro.core.components import connected_components
from repro.core.connectivity import ConnectivityIndex
from repro.core.update_engine import apply_stream
from repro.generators import mixed_stream, rmat_graph
from repro.generators.streams import iter_batches

SEED = 11
BATCHES = 12
BATCH = 1024

#: The forest's median per-batch cost as a share of a from-scratch
#: ``connected_components``: about 0.4 on a 2-vCPU container while the
#: components hook scattered with ``minimum.at``; 1.0-1.6 (forest 3.8-5.3 ms)
#: once the segmented-minimum hook made the recompute about 2.5x cheaper.
#: Since ``apply_batch`` applies the batch first and cuts after, 0.39-0.98
#: (median 0.71, forest 1.8-2.9 ms) over 12 runs, so the gate passes in most
#: runs but not all (ROADMAP item 11).
MAX_SHARE = 0.75


def _seconds(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_forest_maintenance_beats_recompute():
    base = rmat_graph(14, 8, seed=SEED)
    stream = mixed_stream(base, BATCHES * BATCH, 0.75, SEED + 2,
                          insert_edges=rmat_graph(14, 16, seed=SEED + 1))
    index = ConnectivityIndex.from_rep(DynamicGraph.from_edgelist(base).rep)
    twin = DynamicGraph.from_edgelist(base)
    forest, recompute = [], []
    for batch in iter_batches(stream, BATCH):
        both = _seconds(lambda: index.apply_batch(batch))
        forest.append(both - _seconds(lambda: apply_stream(twin.rep, batch, reset_stats=False)))
        snapshot = twin.snapshot()
        recompute.append(_seconds(lambda: connected_components(snapshot)))

    for name in ("offsets", "targets", "ts"):
        np.testing.assert_array_equal(getattr(index.rep.to_csr(), name), getattr(snapshot, name))
    index.validate()
    assert index.stats.tree_cuts > BATCHES  # the batches do cut tree edges
    share = median(forest) / median(recompute)
    assert share <= MAX_SHARE, (
        f"forest maintenance {1e3 * median(forest):.1f} ms per batch is {share:.2f} of "
        f"a from-scratch connected_components ({1e3 * median(recompute):.1f} ms)"
    )
