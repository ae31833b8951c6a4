"""Connected components by multi-round parallel hooking (process backend).

Each pass of the serial kernel (:func:`repro.core.components
.connected_components`) hooks every vertex's label to the minimum label
among its neighbours and then pointer-jumps all chains.  The hook is a
minimum over arcs — associative and commutative — so it partitions
cleanly: the arc array is split into contiguous ranges and each worker runs
the serial sweep's one body, :func:`~repro.core.components.hook_rows`, on
its range against the shared ``labels`` snapshot.  A range proposes minima
for the rows it owns (plus, on a CSR not stamped symmetric, for its arcs'
targets); a row split at a chunk edge gets a proposal from each side, and
the parent folds all proposals with ``np.minimum.at``.  A min of mins over
a partition of the arcs equals the min over all arcs, so the merged labels
are bit-identical to the serial pass at every worker count; pointer jumping
(O(n), cheap, and already vectorised) stays in the parent.

The arcs are not shipped: each range's targets are a slice of the pool's
resident ``targets`` and its row runs come from the resident ``offsets``
(:meth:`~repro.parallel.pool.WorkerPool.resident`); the only per-call
shared state is the ``labels`` snapshot of the current pass.

Workers return only the entries their range actually improved — for a
small-world graph the proposal set shrinks geometrically with the pass
number, so later rounds ship almost nothing.
"""

from __future__ import annotations

import numpy as np

from repro.adjacency.csr import CSRGraph
from repro.core.components import (
    ComponentsResult,
    component_roots,
    hook_and_jump,
    hook_rows,
    row_runs,
)
from repro.obs import METRICS, span
from repro.parallel.partition import range_chunks
from repro.parallel.pool import TaskSpec, WorkerPool, task
from repro.parallel.shm import ShmArena

__all__ = ["parallel_connected_components"]


@task("components.hook")
def _components_hook(views: dict, payload: dict) -> dict:
    """One arc range's min-label proposals (worker side)."""
    lo, hi = payload["lo"], payload["hi"]
    rows, starts = row_runs(views["offsets"], lo, hi)
    dst = views["targets"][lo:hi]
    idx, val = hook_rows(views["labels"], rows, starts, dst, payload["symmetric"])
    return {"idx": idx, "val": val}


def parallel_connected_components(
    graph: CSRGraph,
    pool: WorkerPool,
    *,
    max_passes: int | None = None,
) -> ComponentsResult:
    """Multiprocess components, bit-identical to the serial kernel.

    ``result.meta`` names the backend and its worker count.
    """
    n = graph.n
    if n == 0:
        return ComponentsResult(np.arange(0, dtype=np.int64), 0, 0, 0)
    n_arcs = graph.n_arcs
    resident = pool.resident(graph)
    with ShmArena.allocate({"labels": (np.int64, (n,))}) as arena:  # this call's state
        arenas = (resident, arena.descriptor)
        shared_labels = arena.view("labels")
        tasks = [
            TaskSpec(
                "components.hook",
                {"lo": lo, "hi": hi, "symmetric": graph.symmetric},
                arenas=arenas,
            )
            for lo, hi in range_chunks(n_arcs, pool.workers)
        ]

        def pool_hook(prev: np.ndarray) -> np.ndarray:
            """Fan one hooking sweep out and fold the workers' proposals."""
            shared_labels[...] = prev
            outs = pool.run_tasks(tasks)
            labels = prev.copy()
            for o in outs:
                np.minimum.at(labels, o["idx"], o["val"])
            return labels

        with span("parallel.components", n=n, arcs=n_arcs, workers=pool.workers) as sp:
            labels, passes, jumps, arcs_processed = hook_and_jump(n, pool_hook, n_arcs, max_passes)
            sp.set(passes=passes, components=int(component_roots(labels).size))
    METRICS.inc("parallel.components_runs")
    return ComponentsResult(
        labels,
        passes,
        jumps,
        arcs_processed,
        meta={"backend": "process", "workers": pool.workers},
    )
