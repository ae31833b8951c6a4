"""Connected components by multi-round parallel hooking (process backend).

Each pass of the serial kernel (:func:`repro.core.components
.connected_components`) hooks every vertex's label to the minimum label
among its neighbours and then pointer-jumps all chains.  The hook is a
concurrent-min over arcs — associative and commutative — so it partitions
cleanly: the arc array is split into contiguous ranges, each worker computes
its range's min-label proposals against the shared ``labels`` snapshot, and
the parent folds the proposals together with ``np.minimum.at``.  A min of
mins over a partition of the arcs equals the min over all arcs, so the
merged labels are bit-identical to the serial pass at every worker count;
pointer jumping (O(n), cheap, and already vectorised) stays in the parent.

The arcs are not shipped: ``dst`` is a slice of the pool's resident
``targets`` and each range's ``src`` is rebuilt from the resident
``offsets`` (:meth:`~repro.parallel.pool.WorkerPool.resident`); the only
per-call shared state is the ``labels`` snapshot of the current pass.

Workers return only the entries their range actually improved — for a
small-world graph the proposal set shrinks geometrically with the pass
number, so later rounds ship almost nothing.
"""

from __future__ import annotations

import numpy as np

from repro.adjacency.csr import CSRGraph
from repro.core.components import ComponentsResult, hook_and_jump, hook_min_labels
from repro.obs import METRICS, span
from repro.parallel.partition import range_chunks
from repro.parallel.pool import TaskSpec, WorkerPool, task
from repro.parallel.shm import ShmArena

__all__ = ["parallel_connected_components"]


@task("components.hook")
def _components_hook(views: dict, payload: dict) -> dict:
    """One arc range's min-label proposals (worker side)."""
    lo, hi = payload["lo"], payload["hi"]
    # The range's sources from the resident ``offsets``: vertices first..last-1
    # own arcs lo..hi-1, the two end vertices possibly only in part.
    offsets = views["offsets"]
    first = int(np.searchsorted(offsets, lo, side="right")) - 1
    last = int(np.searchsorted(offsets, hi, side="left"))
    owned = np.diff(np.clip(offsets[first : last + 1], lo, hi))
    src = np.repeat(np.arange(first, last, dtype=np.int64), owned)
    dst = views["targets"][lo:hi]
    prev = views["labels"]
    local = hook_min_labels(prev, src, dst)
    changed = np.nonzero(local != prev)[0]
    return {
        "idx": np.ascontiguousarray(changed),
        "val": np.ascontiguousarray(local[changed]),
        "fragment": {"arcs": int(hi - lo), "proposals": int(changed.size)},
    }


def parallel_connected_components(
    graph: CSRGraph,
    pool: WorkerPool,
    *,
    max_passes: int | None = None,
) -> ComponentsResult:
    """Multiprocess components, bit-identical to the serial kernel.

    The per-pass partition fragments land in ``result.meta`` (and therefore
    in the work profile built from it).
    """
    n = graph.n
    if n == 0:
        return ComponentsResult(np.arange(0, dtype=np.int64), 0, 0, 0)
    n_arcs = graph.n_arcs
    resident = pool.resident(graph)
    fragments: list[list[dict]] = []
    with ShmArena.allocate({"labels": (np.int64, (n,))}) as arena:  # this call's state
        arenas = (resident, arena.descriptor)
        shared_labels = arena.view("labels")
        tasks = [
            TaskSpec("components.hook", {"lo": lo, "hi": hi}, arenas=arenas)
            for lo, hi in range_chunks(n_arcs, pool.workers)
        ]

        def pool_hook(prev: np.ndarray) -> np.ndarray:
            """Fan one hooking sweep out and fold the workers' proposals."""
            shared_labels[...] = prev
            outs = pool.run_tasks(tasks)
            fragments.append([o["fragment"] for o in outs])
            labels = prev.copy()
            for o in outs:
                np.minimum.at(labels, o["idx"], o["val"])
            return labels

        with span("parallel.components", n=n, arcs=n_arcs, workers=pool.workers) as sp:
            labels, passes, jumps, arcs_processed = hook_and_jump(n, pool_hook, n_arcs, max_passes)
            sp.set(passes=passes, components=int(np.unique(labels).size))
    METRICS.inc("parallel.components_runs")
    return ComponentsResult(
        labels,
        passes,
        jumps,
        arcs_processed,
        meta={
            "backend": "process",
            "workers": pool.workers,
            "partitions": [
                {"pass": i, "chunks": len(f), "proposals": [x["proposals"] for x in f]}
                for i, f in enumerate(fragments)
            ],
        },
    )
